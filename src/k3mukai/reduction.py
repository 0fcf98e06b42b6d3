"""Reduction of moduli-space integral data to Hilbert-scheme data.

Integrals of tautological classes against exp(mu(L) + u*mu(point)) over a
2n-dimensional moduli space of sheaves depend only on a short list of
Mukai-lattice pairings.  Matching that list against its specialisation to
the Hilbert scheme of n points pins down the target invariants:

    rk(beta)   = rk(alpha) / rho,
    v2(beta)   = rho * v2(alpha),
    c1(beta)^2 = c1(alpha)^2,
    c1(beta).L = c1(alpha).L,
    u'         = rho * u.

The pairings are those of four Mukai vectors in the plane spanned by c1(alpha)
and L (see PairingList), read off lattice.gram_matrix; the reduction is the
statement that both sides have one Gram matrix, and universality guarantees
the integrals see nothing else.  The map itself is segre_verlinde._rank_one,
and the relation v2 = rank + c1^2/2 - c2 is lattice.c2_from_v2, which
mukai_vector_from_chern also reads, so reduce_to_hilbert and every Segre and
Verlinde number, evaluated at rank one, share one copy of each.  The
two-dimensional case has a closed-form evaluation, which doubles as an
independent consistency check against the coefficient-extraction route at
n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import MukaiVector, QuadraticSpace, c2_from_v2, gram_matrix
from .segre_verlinde import SegreParams, _rank_one, segre_number
from .series import _check_ints, _exact_text, _frac, _json_number


class DimensionMismatch(ValueError):
    """The closed-form evaluation only covers half-dimension one."""


@dataclass(frozen=True)
class KClassInvariants:
    """Numeric fingerprint of a K-theory class: rank, c1^2, c1.L, v2."""

    rank: Fraction
    c1sq: Fraction
    c1L: Fraction
    v2: Fraction

    def __post_init__(self):
        for name in ("rank", "c1sq", "c1L", "v2"):
            object.__setattr__(self, name, _frac(getattr(self, name)))


@dataclass(frozen=True)
class ModuliData:
    """One moduli-side integrand: rho = rk(v), n = half the dimension."""

    rho: int
    n: int
    alpha: KClassInvariants
    Lsq: Fraction
    u: Fraction

    def __post_init__(self):
        _check_ints(rho=self.rho, n=self.n)
        if self.rho < 1:
            raise ValueError("rho must be a positive integer")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "Lsq", _frac(self.Lsq))
        object.__setattr__(self, "u", _frac(self.u))


@dataclass(frozen=True)
class ReductionTarget:
    """Hilbert-scheme-side data produced by the reduction."""

    n: int
    beta: KClassInvariants
    Lsq: Fraction
    u_prime: Fraction
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "Lsq", _frac(self.Lsq))
        object.__setattr__(self, "u_prime", _frac(self.u_prime))
        object.__setattr__(self, "warnings", tuple(self.warnings))


@dataclass(frozen=True)
class PairingList:
    """The pairings the integrals depend on.

    They are entries of the Gram matrix of four Mukai vectors in the plane
    with Gram matrix ((c1(alpha)^2, c1(alpha).L), (c1(alpha).L, L^2)): the
    moduli vector v = (rho, 0, (1-n)/rho), the class alpha = (rk, -c1, v2)
    (the sign makes alpha.L = -c1.L), the scaled point class (0, 0, 1/rho)
    and L = (0, L, 0).  alpha_v, alpha_p and alpha_alpha pair alpha with v,
    the point class and itself; L_pairs is (v.L, alpha.L, L.L), whose first
    entry is identically zero; u_pairs is (v.p, alpha.p, L.p) times the
    exponential weight u*rho.  The Hilbert-scheme side is rho = 1.
    """

    alpha_v: Fraction
    alpha_p: Fraction
    alpha_alpha: Fraction
    L_pairs: tuple[Fraction, Fraction, Fraction]
    u_pairs: tuple[Fraction, Fraction, Fraction]


def _is_integer(q: Fraction) -> bool:
    return q.denominator == 1


def reduce_to_hilbert(m: ModuliData) -> ReductionTarget:
    """Map moduli-side data (rho, alpha, L, u) to Hilbert-scheme data.

    When rho does not divide rk(alpha), or c1(alpha)^2 is not an even
    integer, no integral K-theory class realises the target invariants; the
    formal reduction is still returned, with a warning recorded.
    """
    rank, v2, u_prime = _rank_one(m.rho, m.alpha.rank, m.alpha.v2, m.u)
    beta = KClassInvariants(rank=rank, c1sq=m.alpha.c1sq, c1L=m.alpha.c1L, v2=v2)
    warnings = []
    if not _is_integer(beta.rank):
        warnings.append(
            f"rank {beta.rank} is not an integer; no integral class realises these invariants"
        )
    if not (_is_integer(beta.c1sq) and beta.c1sq.numerator % 2 == 0):
        warnings.append(
            f"c1^2 = {beta.c1sq} is not an even integer; no integral class realises these invariants"
        )
    return ReductionTarget(
        n=m.n, beta=beta, Lsq=m.Lsq, u_prime=u_prime, warnings=tuple(warnings)
    )


def _pairing_vectors(rho: int, n: int, alpha: KClassInvariants,
                     Lsq: Fraction) -> list[MukaiVector]:
    """The vectors (v, alpha, point class, L) of PairingList, at rank rho."""
    plane = QuadraticSpace(((alpha.c1sq, alpha.c1L), (alpha.c1L, Lsq)))
    return [
        MukaiVector(plane, rho, (0, 0), Fraction(1 - n, rho)),
        MukaiVector(plane, alpha.rank, (-1, 0), alpha.v2),
        MukaiVector(plane, 0, (0, 0), Fraction(1, rho)),
        MukaiVector(plane, 0, (0, 1), 0),
    ]


def _pairing_list(rho: int, n: int, alpha: KClassInvariants, Lsq: Fraction,
                  weight: Fraction) -> PairingList:
    """PairingList read off the Gram matrix of `_pairing_vectors`."""
    g = gram_matrix(_pairing_vectors(rho, n, alpha, Lsq))
    return PairingList(alpha_v=g[1][0], alpha_p=g[1][2], alpha_alpha=g[1][1],
                       L_pairs=(g[0][3], g[1][3], g[3][3]),
                       u_pairs=(weight * g[0][2], weight * g[1][2], weight * g[3][2]))


def dependence_pairings(m: ModuliData) -> PairingList:
    """The moduli-side pairing list: v = (rho, 0, (1-n)/rho), the point class
    scaled by 1/rho and weight u*rho.  With vv = 2n - 2 its entries are
      alpha_v = -v2(alpha)*rho + (rk(alpha)/rho) * vv / 2,  alpha_p = -rk(alpha)/rho,
      alpha_alpha = c1(alpha)^2 - 2 rk(alpha) v2(alpha),  L_pairs = (0, -c1(alpha).L, L^2),
      u_pairs = u*rho * (-1, -rk(alpha)/rho, 0).
    """
    return _pairing_list(m.rho, m.n, m.alpha, m.Lsq, m.u * m.rho)


def hilbert_pairings(t: ReductionTarget) -> PairingList:
    """The same pairing list on the Hilbert-scheme side: v = (1, 0, 1-n), the
    point class, beta in place of alpha and weight u'."""
    return _pairing_list(1, t.n, t.beta, t.Lsq, t.u_prime)


def dim2_evaluate(m: ModuliData) -> Fraction:
    """Closed form for the n = 1 integral.

    A two-dimensional moduli space is again a K3 surface, and the integral
    reduces to an honest surface integral of c(beta) exp(L + u*rho*point):

        c2(beta) + c1(beta).L + L^2/2 + u*rho.
    """
    if m.n != 1:
        raise DimensionMismatch(f"closed form needs n = 1, got n = {m.n}")
    target = reduce_to_hilbert(m)
    beta = target.beta
    return c2_from_v2(beta.rank, beta.c1sq, beta.v2) + beta.c1L + target.Lsq / 2 + target.u_prime


def segre_cross_check(rho: int, s: int, c2: int, c1sq: int) -> bool:
    """Compare the n = 1 coefficient extraction with the closed form.

    alpha is reconstructed from (s, c1sq, c2) through v2 = s + c1sq/2 - c2,
    with L = 0 and u = 0 on both sides.
    """
    s = _frac(s)
    value_series = segre_number(SegreParams(rho=rho, s=s, c2=c2, c1sq=c1sq, n=1))
    alpha = KClassInvariants(
        rank=s,
        c1sq=Fraction(c1sq),
        c1L=Fraction(0),
        v2=c2_from_v2(s, Fraction(c1sq), Fraction(c2)),
    )
    value_closed = dim2_evaluate(ModuliData(rho=rho, n=1, alpha=alpha, Lsq=0, u=0))
    return value_series == value_closed


# -- JSON encoding --------------------------------------------------------------


def k_class_to_json(k: KClassInvariants) -> dict:
    return {
        "rank": _exact_text(k.rank),
        "c1sq": _exact_text(k.c1sq),
        "c1L": _exact_text(k.c1L),
        "v2": _exact_text(k.v2),
    }


def _require_keys(obj, name: str, keys) -> None:
    """Refuse `obj` unless it is a JSON object with every one of `keys`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{name} is missing the key {key!r}")


def k_class_from_json(obj: dict, name: str = "a K-class") -> KClassInvariants:
    keys = ("rank", "c1sq", "c1L", "v2")
    _require_keys(obj, name, keys)
    return KClassInvariants(**{k: _json_number(obj[k], k) for k in keys})


def moduli_data_from_json(obj: dict) -> ModuliData:
    _require_keys(obj, "the input", ("rho", "n", "alpha", "Lsq", "u"))
    return ModuliData(
        rho=int(_json_number(obj["rho"], "rho", integer=True)),
        n=int(_json_number(obj["n"], "n", integer=True)),
        alpha=k_class_from_json(obj["alpha"], "alpha"),
        Lsq=_json_number(obj["Lsq"], "Lsq"),
        u=_json_number(obj["u"], "u"),
    )


def reduction_target_to_json(t: ReductionTarget) -> dict:
    return {
        "n": t.n,
        "beta": k_class_to_json(t.beta),
        "Lsq": _exact_text(t.Lsq),
        "u_prime": _exact_text(t.u_prime),
        "warnings": list(t.warnings),
    }
