"""Independent checks of every benchmark output, written against plain Fractions.

Nothing here calls `revert`, `compose` or the lattice routines that the
benchmark times: each value is recomputed by a second algorithm.

* Segre and Verlinde numbers come from Lagrange-Buermann extraction,
  [z^n] H(t(z)) = [t^n] H (t/z)^(n+1) z', where every factor is a product of
  binomial powers (1 + c t)^e, expanded by the J.C.P. Miller recurrence on
  the logarithmic derivative.
* n = 1 and reduction outputs are compared with their closed forms.
* Lattice ranks come from plain Gaussian elimination, pairings from a K3
  Gram matrix built here.
"""

from __future__ import annotations

from fractions import Fraction


def binomial_product(factors: dict, order: int) -> list[Fraction]:
    """Coefficients t^0..t^order of prod (1 + c t)^e over factors {c: e}.

    With L = P'/P = sum_c e c / (1 + c t), the recurrence
    (m+1) p_(m+1) = sum_k l_k p_(m-k) follows from P' = L P.
    """
    live = [(Fraction(c), Fraction(e)) for c, e in factors.items() if c != 0 and e != 0]
    logder = []
    for k in range(order):
        logder.append(sum((e * c * (-c) ** k for c, e in live), Fraction(0)))
    p = [Fraction(1)]
    for m in range(order):
        acc = sum((logder[k] * p[m - k] for k in range(m + 1)), Fraction(0))
        p.append(acc / (m + 1))
    return p


def _merge(*pairs) -> dict:
    out: dict = {}
    for c, e in pairs:
        out[Fraction(c)] = out.get(Fraction(c), Fraction(0)) + Fraction(e)
    return out


def segre_value(rho: int, s, c2: int, c1sq: int, n: int) -> Fraction:
    """[z^n] V^c2 W^c1sq X^2 with z = t (1+at)^a, by Lagrange-Buermann.

    (t/z)^(n+1) z' = (1+at)^(-a(n+1) + a - 1) (1 + (a + a^2) t).
    """
    s = Fraction(s)
    a = 1 - s / rho
    b = 2 - s / rho
    half = Fraction(1, 2)
    e_a = (
        c2 * (rho - s)
        + c1sq * (half * s - 1 + half * (1 - rho))
        + 2 * (half * s * s - s - Fraction((rho - 1) ** 2) * s / (2 * rho))
    )
    e_b = c2 * s + c1sq * half * (1 - s) + (1 - s * s)
    integrand = _merge(
        (a, e_a - a * (n + 1) + a - 1),
        (b, e_b),
        (a * b, -1),
        (a + a * a, 1),
    )
    return binomial_product(integrand, n)[n]


def verlinde_value(rho: int, r: int, chiL: int, n: int) -> Fraction:
    """[w^n] G^chiL F with w = nu (1+nu)^(q-1), q = r^2/rho^2.

    (nu/w)^(n+1) w' = (1+nu)^((1-q)(n+1) + q - 2) (1 + q nu).
    """
    q = Fraction(r * r, rho * rho)
    integrand = _merge(
        (1, chiL + q + (1 - q) * (n + 1) + q - 2),
        (q, -1),
        (q, 1),
    )
    return binomial_product(integrand, n)[n]


def dim2_value(rho: int, rank, c1sq, c1L, v2, Lsq, u) -> Fraction:
    """c2(beta) + c1(beta).L + L^2/2 + u rho, with beta from the reduction."""
    rank_b = Fraction(rank) / rho
    v2_b = rho * Fraction(v2)
    c2_b = rank_b + Fraction(c1sq) / 2 - v2_b
    return c2_b + Fraction(c1L) + Fraction(Lsq) / 2 + Fraction(u) * rho


def reduction_doc(rho: int, n: int, rank, c1sq, c1L, v2, Lsq, u) -> dict:
    """The JSON document `reduce` must print, from the reduction formulas."""
    rank_b = Fraction(rank) / rho
    c1sq = Fraction(c1sq)
    warnings = []
    if rank_b.denominator != 1:
        warnings.append(
            f"rank {rank_b} is not an integer; no integral class realises these invariants"
        )
    if not (c1sq.denominator == 1 and c1sq.numerator % 2 == 0):
        warnings.append(
            f"c1^2 = {c1sq} is not an even integer; no integral class realises these invariants"
        )
    return {
        "n": n,
        "beta": {
            "rank": str(rank_b),
            "c1sq": str(c1sq),
            "c1L": str(Fraction(c1L)),
            "v2": str(rho * Fraction(v2)),
        },
        "Lsq": str(Fraction(Lsq)),
        "u_prime": str(rho * Fraction(u)),
        "warnings": warnings,
    }


# -- lattice ---------------------------------------------------------------------


def _e8_negated() -> list[list[int]]:
    # minus the Cartan matrix of E8, Dynkin diagram in Bourbaki numbering
    edges = {(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)}
    return [
        [-2 if i == j else 1 if (i, j) in edges or (j, i) in edges else 0 for j in range(8)]
        for i in range(8)
    ]


def k3_gram() -> list[list[int]]:
    """U + U + U + E8(-1) + E8(-1) as a 22 x 22 integer matrix."""
    blocks = [[[0, 1], [1, 0]]] * 3 + [_e8_negated()] * 2
    gram = [[0] * 22 for _ in range(22)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                gram[offset + i][offset + j] = x
        offset += len(block)
    return gram


K3_GRAM = k3_gram()


def pairing(x, y) -> Fraction:
    """Mukai pairing of coordinate tuples (rank, c1..., v2) on the K3 lattice."""
    dx, dy = x[1:-1], y[1:-1]
    dd = sum(
        (dx[i] * K3_GRAM[i][j] * dy[j]
         for i in range(22) if dx[i] for j in range(22) if K3_GRAM[i][j] and dy[j]),
        Fraction(0),
    )
    return dd - x[0] * y[-1] - y[0] * x[-1]


def pairing_matrix(vectors) -> list[list[Fraction]]:
    return [[pairing(x, y) for y in vectors] for x in vectors]


def gauss_rank(rows) -> int:
    """Rank over the rationals by plain Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            factor = m[i][col] / m[rank][col]
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank
