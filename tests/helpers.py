"""Shared test oracles, independent of the library code paths they check,
and two adapters, segre_table and lagrange_buermann, that move Fraction data
to and from the library's integer table."""

from fractions import Fraction
from math import lcm

from k3mukai.segre_verlinde import _lagrange_buermann, _rational, _segre_factors
from k3mukai.series import TruncatedSeries, identity


def _unit_linear(c, order: int) -> TruncatedSeries:
    """The series 1 + c*t at the given order."""
    return TruncatedSeries([1, c] + [0] * (order - 1)) if order >= 1 else TruncatedSeries([1])


def vwx_by_powers(rho: int, s, order: int):
    """(V, W, X) in the paper's form, one rational power of the series engine
    per factor; independent of the library's exponent table."""
    s = Fraction(s)
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


def segre_maps_at_rank(rho: int, s):
    """The exponent maps (c, e) of V, W and X at rank rho, read off the
    paper's form above, and the variable change z = t (1+at)^a as (a, a);
    the library keeps only the rank-one table."""
    s = Fraction(s)
    a = 1 - s / rho
    b = 1 + a
    half = Fraction(1, 2)
    v = [(a, 1 - s), (b, s), (a, rho - 1)]
    w = [(a, half * s - 1), (b, half * (1 - s)), (a, half * (1 - rho))]
    x = [(a, half * s * s - s), (b, half * (1 - s * s)), (a * b, -half),
         (a, -((rho - 1) ** 2) * s / (2 * rho))]
    return v, w, x, (a, a)


def segre_table(s):
    """The library's rank-one maps (V, W, X, change) at s, divided out of its
    integer table by its own _rational; an adapter, not an oracle."""
    *maps, change, scale = _segre_factors(s)
    return (*(_rational(m, scale) for m in maps), *_rational([change], scale))


def lagrange_buermann(weighted, change, n: int) -> Fraction:
    """The library's _lagrange_buermann on Fraction weights and maps, brought
    to its integers: with L the common denominator of every base and exponent,
    bases over L^2 and exponents over 2 L^2, so that the change's base
    c (1+e) is an integer over L^2 too, and the weights over their own."""
    values = [Fraction(x) for _, m in weighted for pair in m for x in pair]
    scale = lcm(*(x.denominator for x in [*values, *map(Fraction, change)])) ** 2
    weight = lcm(*(Fraction(k).denominator for k, _ in weighted))

    def integers(pairs):
        return [(int(c * scale), int(e * 2 * scale)) for c, e in pairs]

    ints = [(int(k * weight), integers(m)) for k, m in weighted]
    return _lagrange_buermann(ints, *integers([change]), n, scale, weight)


def segre_z_of_t(rho: int, s, order: int) -> TruncatedSeries:
    """z = t (1 + at)^a with a = 1 - s/rho, by a rational power."""
    a = 1 - Fraction(s) / rho
    return identity(order) * _unit_linear(a, order).pow_rational(a)


def fg_by_powers(rho: int, r: int, order: int):
    """(F, G, w(nu)) in the paper's form, by rational powers and a division."""
    q = Fraction(r * r, rho * rho)
    one_plus_nu = _unit_linear(Fraction(1), order)
    f = one_plus_nu.pow_rational(q) / _unit_linear(q, order)
    w_of_nu = identity(order) * one_plus_nu.pow_rational(q - 1)
    return f, one_plus_nu, w_of_nu


def correspondence_sides(rho: int, r: int, order: int, f_exponent_offset=0):
    """The (LHS, RHS) series in t of the G- and of the F-identity.

    F and G in nu are composed with nu(t) = t / (1 - (r/rho) t); the right-hand
    sides raise V, W and X to their exponents by rational powers, the offset
    added to V's.  This is the series engine's route, independent of the
    library's exponent table.
    """
    s = rho + r
    f, g, _ = fg_by_powers(rho, r, order)
    nu = identity(order) / _unit_linear(Fraction(-r, rho), order)
    v, w, x = vwx_by_powers(rho, s, order)
    exponent = Fraction(s, rho) * (rho - 2 + Fraction(1, rho)) + Fraction(f_exponent_offset)
    rhs_f = v.pow_rational(exponent) * w.pow_rational(Fraction(-4 * s, rho)) * x.pow_rational(2)
    return (g.compose(nu), v * w.pow_rational(2)), (f.compose(nu), rhs_f)


def correspondence_by_composition(rho: int, r: int, order: int, f_exponent_offset=0):
    """First orders where the G- and the F-identity fail, None where one holds,
    read off correspondence_sides."""
    return tuple(
        next((k for k in range(order + 1) if lhs.coeff(k) != rhs.coeff(k)), None)
        for lhs, rhs in correspondence_sides(rho, r, order, f_exponent_offset)
    )


def segre_by_reversion(params, order: int) -> Fraction:
    """[z^n] of V^c2 W^c1sq X^2 by reverting z(t) and composing at `order`.

    This is the Newton-reversion route: the series engine inverts the
    variable change and substitutes it, with no use of Lagrange-Buermann.
    """
    v, w, x = vwx_by_powers(params.rho, params.s, order)
    product = v.pow_rational(params.c2) * w.pow_rational(params.c1sq) * x.pow_rational(2)
    if params.n == 0:
        return product.coeff(0)
    t_of_z = segre_z_of_t(params.rho, params.s, order).revert()
    return product.compose(t_of_z).coeff(params.n)


def verlinde_by_reversion(params, order: int) -> Fraction:
    """[w^n] of G^chiL F by reverting w(nu) and composing at `order`."""
    f, g, w_of_nu = fg_by_powers(params.rho, params.r, max(order, 1))
    series_in_nu = g.pow_rational(params.chiL) * f
    return series_in_nu.compose(w_of_nu.revert()).coeff(params.n)


def binomial_convolution(a, e_a, b, e_b, n: int) -> Fraction:
    """[t^n] of (1 + at)^e_a (1 + bt)^e_b as the two-list convolution
    sum_k binom(e_a, k) a^k binom(e_b, n-k) b^(n-k), each list built by the
    ratio loop binom(e, k+1) c^(k+1) = binom(e, k) c^k (e-k) c / (k+1)."""
    def terms(c, e):
        out = [Fraction(1)]
        for k in range(n):
            out.append(out[-1] * (e - k) * c / (k + 1))
        return out

    return sum(x * y for x, y in zip(terms(a, e_a), reversed(terms(b, e_b))))


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


def fraction_pairing(gram, a, b) -> Fraction:
    """The Mukai pairing D.G.D' - r*n' - r'*n of two coordinate rows
    (rank, D..., v2), for a quadratic space with Gram matrix `gram`."""
    da, db = a[1:-1], b[1:-1]
    return (sum((Fraction(x) * g * y for row, x in zip(gram, da) if x
                 for g, y in zip(row, db) if g and y), Fraction(0))
            - a[0] * b[-1] - b[0] * a[-1])


def multi_round_reduction(v, xs):
    """The coordinates of the non-degenerate-span reduction of the vectors
    xs, removing one radical vector per round, in plain Fractions.

    Each round takes the greedy basis of (v, ys), the first vector w of the
    `fraction_kernel_basis` of its Gram matrix, and subtracts from each y
    its w-coordinate in the basis that the `fraction_rref` pivots of the
    columns (w, v, basis, ys) pick; it stops when the kernel is empty.
    """
    gram = v.space.gram
    vc = list(v.coords)
    ys = [list(x.coords) for x in xs]
    while True:
        rows = [vc, *ys]
        basis = [rows[i] for i in greedy_by_rank(rows)]
        kernel = fraction_kernel_basis([[fraction_pairing(gram, a, b) for b in basis]
                                        for a in basis])
        if not kernel:
            return [tuple(y) for y in ys]
        w = [sum((c * b[i] for c, b in zip(kernel[0], basis)), Fraction(0))
             for i in range(len(vc))]
        columns = [w, vc, *basis, *ys]
        rref, pivots = fraction_rref([list(r) for r in zip(*columns)])
        first_y = 2 + len(basis)
        assert pivots[:2] == [0, 1] and pivots[-1] < first_y
        ys = [[a - rref[0][col] * b for a, b in zip(y, w)]
              for col, y in enumerate(ys, first_y)]
