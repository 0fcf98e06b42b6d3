"""Closed-form Segre and Verlinde series for sheaf moduli on a K3 surface.

With rho the rank of the moduli Mukai vector and s the rank of the
tautological input class, the Segre numbers are coefficient extractions

    integral of c(alpha_M)  =  [z^n] ( V_s^c2 * W_s^(c1^2) * X_s^2 )

from three explicit products in an auxiliary parameter t (a and b denote
1 - s/rho and 2 - s/rho):

    V_s = (1+at)^(1-s) (1+bt)^s (1+at)^(rho-1)
    W_s = (1+at)^(s/2-1) (1+bt)^((1-s)/2) (1+at)^((1-rho)/2)
    X_s = (1+at)^(s^2/2-s) (1+bt)^((1-s^2)/2) (1+abt)^(-1/2)
          * (1+at)^(-(rho-1)^2 s / (2 rho))

read through the variable change z = t (1+at)^a.  The Verlinde numbers come
from

    chi = [w^n] ( G_r^chi(L) * F_r )        (Euler characteristic 2 of the
                                             structure sheaf is baked in)
    F_r = (1+nu)^(r^2/rho^2) (1 + (r^2/rho^2) nu)^(-1),   G_r = 1 + nu,

with w = nu (1+nu)^(r^2/rho^2 - 1).  The two families satisfy an exact
correspondence under s = rho + r and nu = t (1 - (r/rho) t)^(-1):

    F_r = V_s^((s/rho)(rho - 2 + 1/rho)) W_s^(-4s/rho) X_s^2,
    G_r = V_s W_s^2,

which check_correspondence verifies order by order in the common parameter
t, with exact rational arithmetic throughout.

Every factor is a binomial power (1 + ct)^e, so the numbers need no series
reversion: by Lagrange-Buermann, [z^n] H(t(z)) = [t^n] H (t/z)^(n+1) z' is
a coefficient of another binomial product.  build_vwx, build_fg and
segre_variable_change serve check_correspondence and the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import TruncatedSeries, _frac, constant, identity


def _unit_linear(c: Fraction, order: int) -> TruncatedSeries:
    """The series 1 + c*t at the given order."""
    return TruncatedSeries([1, c] + [0] * (order - 1)) if order >= 1 else constant(1, 0)


@dataclass(frozen=True)
class SegreParams:
    """Input data for one Segre number.

    rho is the rank of the moduli vector, s the rank of the tautological
    class (rational values are allowed for formal checks), c2 and c1sq its
    exponents, and n half the dimension of the moduli space.
    """

    rho: int
    s: Fraction
    c2: int
    c1sq: int
    n: int

    def __post_init__(self):
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
        if self.rho < 1:
            raise ValueError("rho must be a positive integer")
        if self.n < 0:
            raise ValueError("n must be non-negative")


def build_vwx(rho: int, s, order: int):
    """The three Segre factor series (V, W, X) in t, exact to `order`."""
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    if order < 0:
        raise ValueError("order must be non-negative")
    s = _frac(s)
    a = 1 - s / rho
    b = 2 - s / rho
    base_a = _unit_linear(a, order)
    base_b = _unit_linear(b, order)
    base_ab = _unit_linear(a * b, order)
    half = Fraction(1, 2)
    v = (
        base_a.pow_rational(1 - s)
        * base_b.pow_rational(s)
        * base_a.pow_rational(rho - 1)
    )
    w = (
        base_a.pow_rational(half * s - 1)
        * base_b.pow_rational(half * (1 - s))
        * base_a.pow_rational(half - half * rho)
    )
    x = (
        base_a.pow_rational(half * s * s - s)
        * base_b.pow_rational(-half * s * s + half)
        * base_ab.pow_rational(-half)
        * base_a.pow_rational(-((rho - 1) ** 2) * s / (2 * rho))
    )
    return v, w, x


def segre_variable_change(rho: int, s, order: int) -> TruncatedSeries:
    """t as a series in z, inverting z = t (1 + (1-s/rho) t)^(1-s/rho)."""
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    if order < 1:
        raise ValueError("order must be at least 1")
    a = 1 - _frac(s) / rho
    z_of_t = identity(order) * _unit_linear(a, order).pow_rational(a)
    return z_of_t.revert()


def _binomial_product(factors: dict, n: int) -> list[Fraction]:
    """Coefficients t^0..t^n of prod (1 + c t)^e over the factors {c: e}.

    The logarithmic derivative P'/P = sum e c / (1 + c t) gives Q P' = R P
    with polynomials Q = prod (1 + c t), R = Q sum e c / (1 + c t); at t^m
    this is J.C.P. Miller's recurrence, O(#factors) steps per coefficient:
        (m+1) p_(m+1) = sum_j r_j p_(m-j) - sum_(j>=1) q_j (m+1-j) p_(m+1-j).
    Factors with c = 0 or e = 0 are the constant 1 and drop out.
    """
    q, r = [Fraction(1)], [Fraction(0)]
    for c, e in factors.items():
        if c and e:
            r = [x + c * y + e * c * z for x, y, z in zip(r + [0], [0] + r, q + [0])]
            q = [x + c * y for x, y in zip(q + [0], [0] + q)]
    p = [Fraction(1)]
    for m in range(n):
        acc = sum(r[j] * p[m - j] for j in range(min(m + 1, len(r))))
        acc -= sum(q[j] * (m + 1 - j) * p[m + 1 - j] for j in range(1, min(m + 2, len(q))))
        p.append(acc / (m + 1))
    return p


def segre_number(params: SegreParams) -> Fraction:
    """[z^n] of V^c2 * W^c1sq * X^2 with z = t (1+at)^a, by Lagrange-Buermann.

    [z^n] H(t(z)) = [t^n] H (t/z)^(n+1) z', and since b = 1 + a,
    (t/z)^(n+1) z' = (1+at)^(-an-1) (1+abt) cancels the (1+abt)^(-1) of
    X^2: the integrand is a product of powers of 1+at and 1+bt.
    """
    rho, s, c2, c1sq, n = params.rho, params.s, params.c2, params.c1sq, params.n
    a = 1 - s / rho
    e_a = (
        c2 * (rho - s)
        + c1sq * (s - rho - 1) / 2
        + s * s - 2 * s - (rho - 1) ** 2 * s / rho
    )
    e_b = c2 * s + c1sq * (1 - s) / 2 + 1 - s * s
    return _binomial_product({a: e_a - a * n - 1, 1 + a: e_b}, n)[n]


def build_fg(rho: int, r: int, order: int):
    """The Verlinde series (F, G) in nu, plus the variable change w(nu)."""
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    if order < 1:
        raise ValueError("order must be at least 1")
    q = Fraction(r * r, rho * rho)
    nu = identity(order)
    one_plus_nu = _unit_linear(Fraction(1), order)
    f = one_plus_nu.pow_rational(q) / _unit_linear(q, order)
    g = one_plus_nu
    w_of_nu = nu * one_plus_nu.pow_rational(q - 1)
    return f, g, w_of_nu


def verlinde_number(params: VerlindeParams) -> Fraction:
    """[w^n] of G^chiL * F with w = nu (1+nu)^(q-1), by Lagrange-Buermann.

    (nu/w)^(n+1) w' = (1+nu)^((1-q) n - 1) (1 + q nu) cancels the
    (1 + q nu)^(-1) of F, leaving a single power of 1 + nu.
    """
    q = Fraction(params.r * params.r, params.rho * params.rho)
    n = params.n
    return _binomial_product({1: params.chiL + (1 - q) * (n - 1)}, n)[n]


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of one exact Segre-Verlinde comparison."""

    rho: int
    r: int
    order: int
    g_identity_holds: bool
    f_identity_holds: bool
    first_discrepant_order: int | None


def _first_mismatch(lhs: TruncatedSeries, rhs: TruncatedSeries) -> int | None:
    for k in range(min(lhs.order, rhs.order) + 1):
        if lhs.coeff(k) != rhs.coeff(k):
            return k
    return None


def check_correspondence(
    rho: int,
    r: int,
    order: int,
    f_exponent_offset: Fraction | int = 0,
) -> CorrespondenceReport:
    """Compare both Segre-Verlinde identities order by order in t.

    Every variable change is composed back to the common parameter t, the
    strongest reading of the identities.  `f_exponent_offset` perturbs the
    exponent on V in the F-identity and exists for negative controls.
    """
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    if order < 1:
        raise ValueError("order must be at least 1")
    s = rho + r
    v, w, x = build_vwx(rho, s, order)
    f, g, _ = build_fg(rho, r, order)
    nu_of_t = identity(order) / _unit_linear(Fraction(-r, rho), order)
    lhs_g = g.compose(nu_of_t)
    rhs_g = v * w.pow_rational(2)
    # (s/rho) (sqrt(rho) - 1/sqrt(rho))^2 simplifies to a rational number
    exponent = Fraction(s, rho) * (Fraction(rho) - 2 + Fraction(1, rho))
    exponent += _frac(f_exponent_offset)
    lhs_f = f.compose(nu_of_t)
    rhs_f = (
        v.pow_rational(exponent)
        * w.pow_rational(Fraction(-4 * s, rho))
        * x.pow_rational(2)
    )
    g_mismatch = _first_mismatch(lhs_g, rhs_g)
    f_mismatch = _first_mismatch(lhs_f, rhs_f)
    mismatches = [m for m in (g_mismatch, f_mismatch) if m is not None]
    return CorrespondenceReport(
        rho=rho,
        r=r,
        order=order,
        g_identity_holds=g_mismatch is None,
        f_identity_holds=f_mismatch is None,
        first_discrepant_order=min(mismatches) if mismatches else None,
    )
