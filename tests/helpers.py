"""Shared test oracles, independent of the library code paths they check."""

from fractions import Fraction

from k3mukai.segre_verlinde import build_fg, build_vwx, segre_variable_change
from k3mukai.series import TruncatedSeries


def segre_by_reversion(params, order: int) -> Fraction:
    """[z^n] of V^c2 W^c1sq X^2 by reverting z(t) and composing at `order`.

    This is the Newton-reversion route: the series engine inverts the
    variable change and substitutes it, with no use of Lagrange-Buermann.
    """
    v, w, x = build_vwx(params.rho, params.s, order)
    product = v.pow_rational(params.c2) * w.pow_rational(params.c1sq) * x.pow_rational(2)
    if params.n == 0:
        return product.coeff(0)
    t_of_z = segre_variable_change(params.rho, params.s, order)
    return product.compose(t_of_z).coeff(params.n)


def verlinde_by_reversion(params, order: int) -> Fraction:
    """[w^n] of G^chiL F by reverting w(nu) and composing at `order`."""
    f, g, w_of_nu = build_fg(params.rho, params.r, max(order, 1))
    series_in_nu = g.pow_rational(params.chiL) * f
    return series_in_nu.compose(w_of_nu.revert()).coeff(params.n)


def lagrange_coefficient(h: TruncatedSeries, z: TruncatedSeries, n: int) -> Fraction:
    """[z^n] of h(t(z)) via the Lagrange-Buermann formula.

    For z(t) = t*u(t) with u(0) invertible and n >= 1:

        [z^n] h(t(z)) = (1/n) * [t^(n-1)] ( h'(t) * (t/z(t))^n ).

    This never calls revert or compose-with-an-inverse, so it is an
    independent second algorithm for the same coefficient.
    """
    assert n >= 1
    u = TruncatedSeries(z.coeffs[1:])  # z/t, a unit
    t_over_z = 1 / u
    power = t_over_z
    for _ in range(n - 1):
        power = power * t_over_z
    return (h.derivative() * power).coeff(n - 1) / n


def naive_compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(t)) by summing f_k * g^k directly (no Horner)."""
    n = min(f.order, g.order)
    acc = TruncatedSeries([f.coeffs[0]] + [0] * n)
    gk = TruncatedSeries([1] + [0] * n)
    for k in range(1, n + 1):
        gk = gk * g
        acc = acc + f.coeffs[k] * gk
    return acc


def gauss_rank(rows) -> int:
    """Rank over the rationals by plain fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        for i in range(rank + 1, n_rows):
            factor = m[i][col] * inv
            if factor != 0:
                for j in range(col, n_cols):
                    m[i][j] -= factor * m[rank][j]
        rank += 1
        if rank == n_rows:
            break
    return rank


def gauss_det(rows) -> Fraction:
    """Determinant over the rationals by fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            factor = m[i][col] * inv
            if factor != 0:
                for j in range(col, n):
                    m[i][j] -= factor * m[col][j]
    return det


def fraction_rref(rows):
    """Reduced row echelon form and pivot columns by plain Fraction
    Gauss-Jordan elimination, with first-nonzero pivoting."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def fraction_kernel_basis(rows):
    """Right kernel basis read off `fraction_rref`, by free column index."""
    if not rows:
        return []
    n_cols = len(rows[0])
    rref, pivots = fraction_rref(rows)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(tuple(vec))
    return basis


def fraction_inverse(rows):
    """The inverse by `fraction_rref` of [A | I], or None if A is singular."""
    n = len(rows)
    rref, pivots = fraction_rref([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rref]


def greedy_by_rank(rows):
    """Indices of a maximal independent sublist: keep row i when it raises
    the `fraction_rref` rank of the rows kept so far."""
    picked = []
    for i, row in enumerate(rows):
        if len(fraction_rref([rows[j] for j in picked] + [row])[1]) > len(picked):
            picked.append(i)
    return picked
