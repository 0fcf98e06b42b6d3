"""Closed-form Segre and Verlinde numbers for sheaf moduli on a K3 surface.

Every number is evaluated at rank one, after the reduction to the Hilbert
scheme of points (reduction.py).  With s the rank of the tautological input
class, the rank-one Segre numbers are coefficient extractions

    integral of c(alpha)  =  [z^n] ( V_s^c2 * W_s^(c1^2) * X_s^2 )

from three products in an auxiliary parameter t (a = 1 - s, b = 2 - s):

    V_s = (1+at)^(1-s) (1+bt)^s
    W_s = (1+at)^(s/2-1) (1+bt)^((1-s)/2)
    X_s = (1+at)^(s^2/2-s) (1+bt)^((1-s^2)/2) (1+abt)^(-1/2)

read through the variable change z = t (1+at)^a.  The Verlinde numbers are
chi = [w^n] ( G_r^chi(L) * F_r ), with chi of the structure sheaf, 2, baked in:

    F_r = (1+nu)^(r^2) (1 + r^2 nu)^(-1),   G_r = 1 + nu,   w = nu (1+nu)^(r^2 - 1).

At rank rho, with s' = s/rho, the series are V_s'^rho, W_s' V_s'^((1-rho)/2)
and X_s' V_s'^(-s'(rho^2-1)/2) under the same change, so a Segre number is
the rank-one one at the image of the reduction map (reduction.py): rank
s' = s/rho, v2' = rho v2 and the same c1^2, with v2 = rank + c1^2/2 - c2 on
either side.  F and G see (rho, r) only through r' = r/rho.
The two families satisfy an exact correspondence under s = 1 + r and
nu = t (1 - rt)^(-1), F_r = W_s^(-4s) X_s^2 and G_r = V_s W_s^2, which
check_correspondence verifies exactly in t at r'; from order 3 on, its
verdict holds at every order.  On numbers it reads
verlinde_number(1, r, chi, n) = segre_number(1, 1 + r, c2, c1^2, n) with
c2 = chi + (r-1)(1-n) and c1^2 = 2 chi - 4 - 2r, and so at r' for every rho.

Every factor is a binomial power (1 + ct)^e, so each series is an exponent
map, a list of pairs (c, e).  _segre_factors and _verlinde_factors are the
one rank-one table of these maps, on integers: at s' or r' = p/q in lowest
terms each base is an integer over q^2 and each exponent one over 2 q^2.
_rank_one is the one reduction map, which every number, check and builder
here and reduce_to_hilbert go through (c2 and v2 by lattice.c2_from_v2).
No number needs series reversion: by Lagrange-Buermann, [z^n] H(t(z)) =
[t^n] H (t/z)^(n+1) z', and for z = t (1+ct)^e that factor is one more map.
Merged (_merged), each integrand has at most two bases, so each number is a
binomial sum (Marian-Oprea-Pandharipande, "Segre classes and Hilbert schemes
of points"), which _lagrange_buermann evaluates by an integer recurrence on
those numerators, with one Fraction at the end.  check_correspondence reads
each identity from the power sums of one merged map, on the same integers.
build_vwx, build_fg and segre_variable_change expand the table for the
tests, divided out by _rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from .lattice import c2_from_v2
from .series import TruncatedSeries, _check_ints, _frac, constant


@dataclass(frozen=True)
class SegreParams:
    """Input data for one Segre number: rho is the rank of the moduli vector,
    s the rank of the tautological class (rational values are allowed for
    formal checks), c2 and c1sq its exponents, n half the moduli dimension."""

    rho: int
    s: Fraction
    c2: int
    c1sq: int
    n: int

    def __post_init__(self):
        _check_ints(rho=self.rho, c2=self.c2, c1sq=self.c1sq, n=self.n)
        if self.rho < 1:
            raise ValueError("rho must be a positive integer")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        object.__setattr__(self, "s", _frac(self.s))


@dataclass(frozen=True)
class VerlindeParams:
    """Input data for one Verlinde number: twist exponent r and chi(L)."""

    rho: int
    r: int
    chiL: int
    n: int

    def __post_init__(self):
        _check_ints(rho=self.rho, r=self.r, chiL=self.chiL, n=self.n)
        if self.rho < 1:
            raise ValueError("rho must be a positive integer")
        if self.n < 0:
            raise ValueError("n must be non-negative")


def _rank_one(rho: int, rank, *scaled) -> tuple:
    """The reduction map from rank rho to rank one: (rank/rho, rho*x, ...) for
    x in `scaled` (v2, u); a rank alone, s or r, maps to (s',) or (r',)."""
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    return (Fraction(rank, rho), *[rho * x for x in scaled])


def _segre_factors(s):
    """The rank-one maps of V, W and X as in the module docstring, with a = 1 - s
    and b = 1 + a, z = t (1+at)^a as (a, a), and the scale q^2 of s = p/q in
    lowest terms: bases are integers over q^2, exponents over 2 q^2."""
    p, q = _frac(s).as_integer_ratio()
    a, b = (q - p) * q, (2 * q - p) * q
    v = [(a, 2 * q * (q - p)), (b, 2 * q * p)]
    w = [(a, q * (p - 2 * q)), (b, q * (q - p))]
    x = [(a, p * p - 2 * p * q), (b, q * q - p * p), ((q - p) * (2 * q - p), -q * q)]
    return v, w, x, (a, 2 * q * (q - p)), q * q


def _verlinde_factors(r):
    """The rank-one maps of F and G, w = nu (1+nu)^(k-1) as (1, k-1), k = r^2,
    and the scale q^2, on the integers of _segre_factors at r = p/q."""
    p2, q2 = r.numerator ** 2, r.denominator ** 2
    return [(q2, 2 * p2), (p2, -2 * q2)], [(q2, 2 * q2)], (q2, 2 * (p2 - q2)), q2


def _rational(factors, scale: int) -> list:
    """A map of the table as Fractions: bases over `scale`, exponents over 2 `scale`."""
    return [(Fraction(c, scale), Fraction(e, 2 * scale)) for c, e in factors]


def _merged(weighted) -> dict:
    """The map {c: e} of prod M^k over the weighted maps (k, M), equal bases
    merged; bases with c = 0 or e = 0 are the constant 1 and drop out."""
    merged: dict = {}
    for k, factors in weighted:
        for c, e in factors:
            merged[c] = merged.get(c, 0) + e * k
    return {c: e for c, e in merged.items() if c and e}


def _binomials(c, e, n: int) -> list[Fraction]:
    """binom(e, k) c^k for k = 0..n: the coefficients of (1 + ct)^e."""
    out = [Fraction(1)]
    for k in range(n):
        out.append(out[-1] * (e - k) * c / (k + 1))
    return out


def _lagrange_buermann(weighted, change, n: int, scale: int, weight: int) -> Fraction:
    """[z^n] H(t(z)) for H the product of the weighted maps, z = t (1+ct)^e, on
    the table's integers at `scale`, with the weights over `weight`.

    [z^n] H(t(z)) = [t^n] H (t/z)^(n+1) z' with change = (c, e), and
    (t/z)^(n+1) z' = (1+ct)^(-en-1) (1+c(1+e)t) is one more map, whose base
    c(1+e) is one of the table (X's ab, or F's r^2); at most two bases
    remain, so [t^n] is a sum of products of two binomial coefficients.
    It is read off a recurrence instead: H = (1+at)^E_a (1+bt)^E_b solves
    (1+at)(1+bt) H' = (E_a a (1+bt) + E_b b (1+at)) H, so with P = E_a a + E_b b

        (m+1) h_(m+1) = (P - (a+b) m) h_m + ab (E_a + E_b + 1 - m) h_(m-1),

    and h_m = N_m / (m! L^m), L the least common denominator of the
    multipliers, puts the loop on integers N_m.  A missing base is (0, 0),
    which makes ab = 0 and the recurrence first order.
    """
    (c, e), unit = change, 2 * scale
    merged = _merged([*weighted, (weight, [(c, -e * n - unit), (c * (unit + e) // unit, unit)])])
    if len(merged) > 2:
        raise ValueError(f"the integrand has {len(merged)} bases, the closed form at most two")
    (a, e_a), (b, e_b) = [*merged.items(), (0, 0), (0, 0)][:2]
    unit *= weight
    mults = (e_a * a + e_b * b, a + b, a * b, a * b * (e_a + e_b + unit))
    scales = (unit * scale, scale, scale * scale, scale * scale * unit)
    den = lcm(*(d // gcd(x, d) for x, d in zip(mults, scales)))
    p, sum_ab, ab, q = (x * den**k // d for x, d, k in zip(mults, scales, (1, 1, 2, 2)))
    prev, cur = 0, 1
    for m in range(n):
        prev, cur = cur, (p - sum_ab * m) * cur + m * (q - ab * m) * prev
    return Fraction(cur, factorial(n) * den**n)


def _series(weighted, order: int) -> TruncatedSeries:
    """The product of the weighted maps, exact to `order`."""
    if order < 0:
        raise ValueError("order must be non-negative")
    factors = (TruncatedSeries(_binomials(c, e, order)) for c, e in _merged(weighted).items())
    return prod(factors, start=constant(1, order))


def _change_series(change, order: int) -> TruncatedSeries:
    """z = t (1+ct)^e exact to `order`, for change = (c, e)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return TruncatedSeries([0, *_binomials(*change, order - 1)])


def build_vwx(rho: int, s, order: int):
    """(V, W, X) in t at rank rho, exact to `order`, lifted from s' = s/rho."""
    s, = _rank_one(rho, s)
    v, w, x, _, scale = _segre_factors(s)
    v, w, x = (_rational(m, scale) for m in (v, w, x))
    lifted = ([(rho, v)], [(1, w), (Fraction(1 - rho, 2), v)],
              [(1, x), (-s * (rho * rho - 1) / 2, v)])
    return tuple(_series(m, order) for m in lifted)


def segre_variable_change(rho: int, s, order: int) -> TruncatedSeries:
    """t as a series in z, inverting z = t (1 + (1-s/rho) t)^(1-s/rho)."""
    *_, change, scale = _segre_factors(*_rank_one(rho, s))
    return _change_series(*_rational([change], scale), order).revert()


def segre_number(params: SegreParams) -> Fraction:
    """[z^n] of V^c2 * W^c1sq * X^2, z = t (1+at)^a, by Lagrange-Buermann at
    rank one: (s', v2') is the image of (s, v2) under _rank_one, and c2' and
    v2 are read through c2_from_v2.

    The factor (t/z)^(n+1) z' brings (1+abt)^1, which cancels the
    (1+abt)^(-1) of X^2 when the bases are merged, so the number is
    sum_k binom(E_a, k) binom(E_b, n-k) a^k b^(n-k) with
    E_a = c2' (1-s') + c1sq (s'-2)/2 + s'^2 - 2s' - an - 1
    and E_b = c2' s' + c1sq (1-s')/2 + 1 - s'^2, evaluated by the integer
    recurrence of _lagrange_buermann, with the weights over the denominator of c2'.
    """
    s, c1sq = params.s, Fraction(params.c1sq)
    s_one, v2_one = _rank_one(params.rho, s, c2_from_v2(s, c1sq, params.c2))
    c2, d = c2_from_v2(s_one, c1sq, v2_one).as_integer_ratio()
    v, w, x, change, scale = _segre_factors(s_one)
    weighted = [(c2, v), (params.c1sq * d, w), (2 * d, x)]
    return _lagrange_buermann(weighted, change, params.n, scale, d)


def build_fg(rho: int, r: int, order: int):
    """The Verlinde series (F, G) in nu, plus the variable change w(nu)."""
    f, g, change, scale = _verlinde_factors(*_rank_one(rho, r))
    f, g, change = (_rational(m, scale) for m in (f, g, [change]))
    return _series([(1, f)], order), _series([(1, g)], order), _change_series(*change, order)


def verlinde_number(params: VerlindeParams) -> Fraction:
    """[w^n] of G^chiL * F with w = nu (1+nu)^(q-1), by Lagrange-Buermann.

    The factor (nu/w)^(n+1) w' brings (1 + q nu)^1, which cancels the
    (1 + q nu)^(-1) of F when the bases are merged; the one base left is 1,
    so the number is binom(chiL + (1-q)(n-1), n) with q = r'^2 = (r/rho)^2,
    which _lagrange_buermann's recurrence reaches as a first-order one.
    """
    f, g, change, scale = _verlinde_factors(*_rank_one(params.rho, params.r))
    return _lagrange_buermann([(1, f), (params.chiL, g)], change, params.n, scale, 1)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of one exact Segre-Verlinde comparison in t up to `order`.
    Each quotient has at most three bases, so for order >= 3 an identity
    that holds there holds at every order."""

    rho: int
    r: int
    order: int
    g_identity_holds: bool
    f_identity_holds: bool
    first_discrepant_order: int | None


def _first_mismatch(quotient, order: int) -> int | None:
    """The first k in 1..order where LHS and RHS differ, for Q = LHS/RHS
    given as weighted maps: RHS(0) = 1, so LHS - RHS starts where Q - 1 does.

    log Q = sum_k (-1)^(k+1) p_k t^k / k with p_k = sum e c^k over the merged
    map, and by Vandermonde a map with m bases has p_k != 0 for some k <= m;
    scaling the bases and the exponents scales p_k, so integers decide alike.
    """
    m = _merged(quotient)
    powers = range(1, min(order, len(m)) + 1)
    return next((k for k in powers if sum(e * c**k for c, e in m.items())), None)


def check_correspondence(rho: int, r: int, order: int,
                         f_exponent_offset: Fraction | int = 0) -> CorrespondenceReport:
    """Compare both Segre-Verlinde identities in t up to `order`, at r' = r/rho.

    Under nu = t (1+at)^(-1), a = -r', each (c, e) of F and G becomes
    (a+c, e) and (a, -e), so each quotient LHS/RHS is one merged map, empty
    when the identity holds.  As q = a^2, F's base a+q is X's base ab: every
    map has bases in {a, b, ab}, so at most three power sums decide the
    identity at every order.  `f_exponent_offset` perturbs the exponent on
    V = V_s'^rho in the F-identity, for negative controls.
    """
    _check_ints(rho=rho, r=r, order=order)
    r_one, = _rank_one(rho, r)
    v, w, x, (a, _), _ = _segre_factors(1 + r_one)
    f, g, _, _ = _verlinde_factors(r_one)
    if order < 1:
        raise ValueError("order must be at least 1")
    f_t, g_t = ([p for c, e in m for p in ((a + c, e), (a, -e))] for m in (f, g))
    g_quotient = [(1, g_t), (-1, v), (-2, w)]
    # the weights 1, -rho offset, 4 (1 + r') and -2, times q den(offset)
    (o, k), (p, q) = _frac(f_exponent_offset).as_integer_ratio(), r_one.as_integer_ratio()
    f_quotient = [(q * k, f_t), (-rho * o * q, v), (4 * (q + p) * k, w), (-2 * q * k, x)]
    g_mismatch, f_mismatch = (_first_mismatch(m, order) for m in (g_quotient, f_quotient))
    mismatches = [m for m in (g_mismatch, f_mismatch) if m is not None]
    return CorrespondenceReport(rho, r, order, g_mismatch is None, f_mismatch is None,
                                min(mismatches, default=None))
