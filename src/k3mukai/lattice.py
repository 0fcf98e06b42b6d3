"""The Mukai lattice of a K3 surface, with exact linear algebra.

A vector is a triple (rank, D, v2) with D in a quadratic space modelling
H^2 of the surface; the pairing of (r, D, n) with (r', D', n') is

    D.D' - r*n' - r'*n,

so the (H^0, H^4) part contributes a hyperbolic plane with a sign and never
needs its own coordinates.  The distinguished H^2 model is the even
unimodular lattice of signature (3, 19): three hyperbolic planes plus two
copies of the E8 lattice with the form negated.

All of it is exact, on integers.  Each vector's integer form (numerators
over the least common denominator of its coordinates) is computed once, on
first use, and every internal step reads that form: pairings are dot
products over the sparse Gram rows (at most four nonzeros per K3 row), and
ranks, kernels, inverses, bases and solves share one fraction-free
elimination, since degenerate versus non-degenerate is a discrete
distinction that floating point would corrupt.  Inside the module a Gram
matrix stays as integer numerators N, with <x_i, x_j> = N_ij / (den d_i d_j)
for den the space's Gram denominator and d_i the forms' denominators;
Fractions are built only at the public boundary: the value of
`MukaiVector.pair` and `gram_matrix`, a span isometry's `gram_inverse`, and
the coordinates of each vector returned; the radical basis vectors of a
reduction stay integer forms.  Each is built for a nonzero entry only; every
zero entry is one shared `Fraction(0)`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .series import _exact_text, _frac, _integer_coeffs, _json_number

Matrix = tuple[tuple[Fraction, ...], ...]

# the one Fraction for every zero entry built at the public boundary
_ZERO = Fraction(0)


class LatticeError(ValueError):
    """A lattice operation was called outside its domain."""


class SpaceMismatch(LatticeError):
    """Vectors from different quadratic spaces were combined."""


class DegenerateMukaiVector(LatticeError):
    """The distinguished vector must satisfy v.v >= 2."""


class GramMismatch(LatticeError):
    """The two vector lists do not have equal Gram matrices."""


class DegenerateSpan(LatticeError):
    """A span required to be non-degenerate is not."""


class NotInSpan(LatticeError):
    """A vector outside the source span was handed to a span isometry."""


def _matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(_frac(x) for x in row) for row in rows)


@dataclass(frozen=True)
class QuadraticSpace:
    """A rational quadratic space given by a symmetric Gram matrix."""

    gram: Matrix
    # the nonzero (j, numerator) entries of each Gram row over one common
    # denominator, and that denominator; derived, so not in ==, hash or repr
    _sparse: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gram = _matrix(self.gram)
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        nums, den = _integer_coeffs([x for row in gram for x in row])
        rows = tuple(tuple((j, g) for j, g in enumerate(nums[i * n:(i + 1) * n]) if g)
                     for i in range(n))
        object.__setattr__(self, "_sparse", (rows, den))

    @property
    def dim(self) -> int:
        return len(self.gram)


def hyperbolic_plane() -> QuadraticSpace:
    return QuadraticSpace(((0, 1), (1, 0)))


def e8_gram() -> Matrix:
    """The Gram matrix of E8(-1): the Cartan matrix of the E8 root system, negated."""
    edges = {(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)}
    rows = []
    for i in range(1, 9):
        row = []
        for j in range(1, 9):
            if i == j:
                entry = 2
            elif (i, j) in edges or (j, i) in edges:
                entry = -1
            else:
                entry = 0
            row.append(-entry)
        rows.append(row)
    return _matrix(rows)


@lru_cache(maxsize=1)
def k3_lattice() -> QuadraticSpace:
    """H^2 of a K3 surface: U + U + U + E8(-1) + E8(-1), dimension 22."""
    blocks = [hyperbolic_plane().gram] * 3 + [e8_gram()] * 2
    dim = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                rows[offset + i][offset + j] = x
        offset += len(block)
    return QuadraticSpace(_matrix(rows))


@dataclass(frozen=True)
class MukaiVector:
    """A vector (rank, c1, v2) with the pairing D.D' - r*n' - r'*n."""

    space: QuadraticSpace
    rank: Fraction
    c1: tuple[Fraction, ...]
    v2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rank", _frac(self.rank))
        object.__setattr__(self, "v2", _frac(self.v2))
        c1 = tuple(_frac(x) for x in self.c1)
        object.__setattr__(self, "c1", c1)
        if len(c1) != self.space.dim:
            raise ValueError(
                f"c1 has {len(c1)} coordinates but the space has dimension {self.space.dim}"
            )

    def pair(self, other: "MukaiVector") -> Fraction:
        if self.space != other.space:
            raise SpaceMismatch("cannot pair vectors from different quadratic spaces")
        p = _pair_nums(self.space, [self._form], _duals(self.space, [other._form]))[0][0]
        return Fraction(p, self.space._sparse[1] * self._form[1] * other._form[1]) if p else _ZERO

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return (self.rank, *self.c1, self.v2)

    @cached_property
    def _form(self) -> tuple[list[int], int]:
        """coords as integer numerators over their least denominator, built on
        first use and kept; not a field, so not in ==, hash or repr."""
        return _integer_coeffs(self.coords)

    @classmethod
    def from_coords(cls, space: QuadraticSpace, coords: Sequence[Fraction]) -> "MukaiVector":
        return cls(space, coords[0], tuple(coords[1:-1]), coords[-1])

    @classmethod
    def _from_form(cls, space: QuadraticSpace, form: tuple[list[int], int]) -> "MukaiVector":
        """The vector of a form (numerators over their least, positive
        denominator), with that form as its cached `_form`."""
        nums, den = form
        coords = [Fraction(a, den) if a else _ZERO for a in nums]
        x = cls.__new__(cls)
        x.__dict__.update(space=space, rank=coords[0], c1=tuple(coords[1:-1]),
                          v2=coords[-1], _form=form)
        return x

    def is_zero(self) -> bool:
        return self.rank == 0 and self.v2 == 0 and all(x == 0 for x in self.c1)

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        if self.space != other.space:
            raise SpaceMismatch("cannot add vectors from different quadratic spaces")
        return MukaiVector(
            self.space,
            self.rank + other.rank,
            tuple(a + b for a, b in zip(self.c1, other.c1)),
            self.v2 + other.v2,
        )

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return self + (-1) * other

    def __mul__(self, scalar) -> "MukaiVector":
        s = _frac(scalar)
        return MukaiVector(
            self.space, self.rank * s, tuple(x * s for x in self.c1), self.v2 * s
        )

    __rmul__ = __mul__

    def __neg__(self) -> "MukaiVector":
        return (-1) * self


def point_class(space: QuadraticSpace) -> MukaiVector:
    """The class of a point: (0, 0, 1)."""
    return MukaiVector(space, 0, (0,) * space.dim, 1)


def hilbert_scheme_vector(space: QuadraticSpace, n: int) -> MukaiVector:
    """The vector (1, 0, 1-n) of the Hilbert scheme of n points."""
    return MukaiVector(space, 1, (0,) * space.dim, 1 - n)


def mukai_pairing(x: MukaiVector, y: MukaiVector) -> Fraction:
    return x.pair(y)


def c2_from_v2(rank: Fraction, c1sq: Fraction, v2: Fraction) -> Fraction:
    """Invert v2 = rank + c1^2/2 - c2; the relation is symmetric, so the
    same call also gives v2 from c2."""
    return rank + c1sq / 2 - v2


def mukai_vector_from_chern(
    space: QuadraticSpace, rank, c1: Sequence, c2
) -> MukaiVector:
    """The vector of a sheaf with Chern data (rank, c1, c2).

    On a K3 surface the square root of the Todd class is 1 + p, so the
    degree-four component is rank + c1^2/2 - c2, with c1^2 the pairing of
    (0, c1, 0) with itself.
    """
    d = MukaiVector(space, 0, c1, 0)
    rank = _frac(rank)
    return MukaiVector(space, rank, d.c1, c2_from_v2(rank, d.pair(d), _frac(c2)))


def _duals(space: QuadraticSpace, forms) -> list[tuple]:
    """(rank, G.c1, v2) per form; G = G^T, so G.c1 sums rows of c1's support."""
    rows, _ = space._sparse
    duals = []
    for nums, _ in forms:
        g_c1 = [0] * space.dim
        for j, c in enumerate(nums[1:-1]):
            for i, g in rows[j] if c else ():
                g_c1[i] += g * c
        duals.append((nums[0], g_c1, nums[-1]))
    return duals


def _pair_nums(space: QuadraticSpace, forms, duals) -> list[list[int]]:
    """Pairing numerators: <x_i, y_j> = N[i][j] / (den * d_i * d_j), with den
    the space's Gram denominator and d_i, d_j the denominators of the forms
    of x_i and of y_j (whose duals are given).  As a matrix, G = D^-1 N D^-1 / den."""
    _, den = space._sparse
    table = []
    for nums, _ in forms:
        r, n = nums[0], nums[-1]
        support = [(i, a) for i, a in enumerate(nums[1:-1]) if a]
        table.append([sum(a * gy[i] for i, a in support) - den * (r * yn + yr * n)
                      for yr, gy, yn in duals])
    return table


def _gram_nums(space: QuadraticSpace, forms) -> list[list[int]]:
    """The pairing numerators of forms of one space among themselves; the
    matrix is symmetric, so row i copies its first i entries from the rows
    above and pairs each entry once."""
    duals = _duals(space, forms) if forms else []
    table = []
    for i, form in enumerate(forms):
        table.append([row[i] for row in table] + _pair_nums(space, [form], duals[i:])[0])
    return table


def gram_matrix(xs: Sequence[MukaiVector]) -> Matrix:
    """The symmetric matrix of pairwise pairings; () for an empty list."""
    if not xs:
        return ()
    if any(x.space != xs[0].space for x in xs):
        raise SpaceMismatch("cannot pair vectors from different quadratic spaces")
    space, forms = xs[0].space, [x._form for x in xs]
    den = space._sparse[1]
    return tuple(tuple(Fraction(p, den * d * e) if p else _ZERO for p, (_, e) in zip(row, forms))
                 for row, (_, d) in zip(_gram_nums(space, forms), forms))


def gram_rank(matrix) -> int:
    """Exact rank over the rationals, by fraction-free elimination of the rows,
    each times the lcm of its denominators (which keeps the row space)."""
    return len(_eliminate([_integer_coeffs([_frac(x) for x in row])[0] for row in matrix],
                          reduce=False))


def span_dim(xs: Sequence[MukaiVector]) -> int:
    """Dimension of the span: the rank of the forms' numerators, as scaling a
    row keeps the rank."""
    return len(_eliminate([x._form[0] for x in xs], reduce=False))


@dataclass(frozen=True)
class FingerprintMatrix:
    """Pairings of a distinguished vector v and classes x_1..x_k.

    Row and column 0 belong to v, so matrix[0][0] = v.v, which is the
    moduli-space dimension minus two.
    """

    matrix: Matrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", _matrix(self.matrix))


def fingerprint(v: MukaiVector, xs: Sequence[MukaiVector]) -> FingerprintMatrix:
    """The (k+1) x (k+1) matrix of pairings among v, x_1, ..., x_k."""
    return FingerprintMatrix(gram_matrix([v, *xs]))


# -- exact elimination on integers ------------------------------------------


def _eliminate(rows: list[list[int]], reduce: bool = True) -> list[int]:
    """Fraction-free elimination of integer rows, in place; the pivot columns.

    The list `rows` is reordered and its entries replaced by new rows; no
    row list is changed, so rows shared with cached forms are safe.

    A column's pivot is its first nonzero entry at or below the current
    row.  Every other row (every row below, if not `reduce`) with a nonzero
    entry f there becomes p*row - f*pivot_row and is divided by its content
    (the gcd of its entries), so entries stay small and no Fraction is
    built.  The first len(pivots) rows then hold an echelon form; with
    `reduce`, row r divided by rows[r][pivots[r]] is row r of the reduced
    row echelon form, which is unique.
    """
    n_rows = len(rows)
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[col]
        for i in range(0 if reduce else r + 1, n_rows):
            f = rows[i][col]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
    return pivots


def _kernel_nums(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Basis of the right kernel of an integer matrix, ordered by free column
    index, as integer vectors over one denominator: (vectors, scale).

    Eliminates `rows` in place; each vector is scale times the one with 1
    at its free column, 0 at the others, and minus the reduced row echelon
    entries of that column at the pivots.
    """
    n_cols = len(rows[0]) if rows else 0
    pivots = _eliminate(rows)
    scale = lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [0] * n_cols
        vec[fc] = scale
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(vec)
    return basis, scale


def _inverse_nums(rows: list[list[int]]) -> tuple[list[list[int]], int] | None:
    """The inverse of a square integer matrix as integer rows over one
    denominator q > 0, from one elimination of [rows | I]; None if singular."""
    n = len(rows)
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    if _eliminate(m) != list(range(n)):
        return None
    q = lcm(*(row[i] for i, row in enumerate(m)))
    return [[a * (q // row[i]) for a in row[n:]] for i, row in enumerate(m)], q


def _greedy_basis_indices(forms) -> list[int]:
    """Indices of a maximal independent sublist of the forms, left to right.

    These are the pivot columns of the matrix whose columns are the forms:
    column j is a pivot exactly when it is outside the span of the columns
    before it.  Scaling a column by its denominator keeps the pivots.
    """
    return _eliminate([list(r) for r in zip(*(nums for nums, _ in forms)) if any(r)],
                      reduce=False)


def _normal_form(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den as a form: over the least denominator, which is positive,
    so equal vectors give equal forms."""
    g = gcd(den, *nums)
    g = -g if den < 0 else g
    return [a // g for a in nums], den // g


def _combine_nums(cn: Sequence[int], cd: int, forms, length: int) -> tuple[list[int], int]:
    """sum_b (cn[b] / cd) * forms[b] as a form; cd is any nonzero integer."""
    den = lcm(*(d for _, d in forms))
    total = [0] * length
    for c, (nums, d) in zip(cn, forms):
        if c:
            scale = c * (den // d)
            total = [t + scale * a for t, a in zip(total, nums)]
    return _normal_form(total, cd * den)


# -- the non-degenerate-span reduction --------------------------------------


def nondegenerate_reduction(
    v: MukaiVector, xs: Sequence[MukaiVector]
) -> list[MukaiVector]:
    """Replace the x_i by y_i with the same fingerprint and non-degenerate span.

    Finds a basis w_1..w_d of the radical of Span(v, x_1..x_k), extends it
    by v and a greedy choice of the x_i to a basis of the span, and
    subtracts from each x_i its components along the w_j in that basis: one
    elimination removes the whole radical.  The w_j pair to zero with
    everything in the span, so no pairing among v and the x_i changes.
    """
    if v.pair(v) < 2:
        raise DegenerateMukaiVector(f"need v.v >= 2, got {v.pair(v)}")
    space = v.space
    if any(x.space != space for x in xs):
        raise SpaceMismatch("all vectors must live in one quadratic space")
    forms = [v._form, *(x._form for x in xs)]
    basis = [forms[i] for i in _greedy_basis_indices(forms)]
    # the basis Gram matrix is D^-1 N D^-1 / den, so its kernel is D kernel(N)
    kernel, _ = _kernel_nums(_gram_nums(space, basis))
    if not kernel:
        return list(xs)
    length = space.dim + 2
    ws = [_combine_nums([u * e for u, (_, e) in zip(vec, basis)], 1, basis, length)
          for vec in kernel]
    # one elimination on the columns (w_1..w_d, v, basis, xs): its pivots
    # extend {w_1..w_d, v} to a basis of the span (the w_j are independent,
    # and v.v >= 2 while w_j.v = 0), and row j over rows[j][j] holds the
    # w_j-coordinate of each column's numerators in that basis
    d, columns = len(ws), [*ws, *forms[:1], *basis, *forms[1:]]
    rows = [list(r) for r in zip(*(nums for nums, _ in columns)) if any(r)]
    pivots = _eliminate(rows)
    first_x = d + 1 + len(basis)
    if pivots[:d + 1] != list(range(d + 1)):
        raise LatticeError("w and v do not start a basis of the span")
    if pivots[-1] >= first_x:
        raise LatticeError("an x_i lies outside the span of the reduction basis")
    top = rows[:d]
    m = lcm(*(row[j] for j, row in enumerate(top)))
    ys = []
    for col, x in enumerate(xs, first_x):
        # x - sum_j c_j w_j with c_j = (row_j[col] / row_j[j]) (d_wj / d_x), over m d_x
        cs = [-row[col] * (m // row[j]) * dw for j, (row, (_, dw)) in enumerate(zip(top, ws))]
        if any(cs):
            md = m * x._form[1]
            x = MukaiVector._from_form(
                space, _combine_nums([md, *cs], md, [x._form, *ws], length))
        ys.append(x)
    return ys


# -- isometries between spans ------------------------------------------------


@dataclass(frozen=True)
class SpanIsometry:
    """The unique pairing-preserving map Span(vs) -> Span(ws) with v_i -> w_i."""

    basis: tuple[MukaiVector, ...]
    images: tuple[MukaiVector, ...]
    # (rows, q): the coordinates of x are rows.P / (q d_x), P its pairing
    # numerators with the basis (see `span_isometry`); not in ==, hash or repr
    _solve: tuple[list[list[int]], int] = field(repr=False, compare=False)
    _dual_forms: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        forms = [b._form for b in self.basis]
        object.__setattr__(self, "_dual_forms",
                           _duals(self.basis[0].space, forms) if forms else [])

    @cached_property
    def gram_inverse(self) -> Matrix:
        """The inverse of the basis Gram matrix: den rows_ij d_j / q."""
        rows, q = self._solve
        den = self.basis[0].space._sparse[1] if rows else 1
        ds = [b._form[1] for b in self.basis]
        return tuple(tuple(Fraction(den * a * d, q) if a else _ZERO for a, d in zip(row, ds))
                     for row in rows)

    def apply(self, x: MukaiVector) -> MukaiVector:
        if any(b.space != x.space for b in self.basis):
            raise SpaceMismatch("cannot pair vectors from different quadratic spaces")
        # the coordinates nums / den of x in the source basis: in a
        # non-degenerate span, x = sum_ab <x, v_a> (G^-1)_ab v_b
        pairings = _pair_nums(x.space, [x._form], self._dual_forms)[0]
        rows, q = self._solve
        nums = [sum(a * p for a, p in zip(row, pairings)) for row in rows]
        den = q * x._form[1]
        length = x.space.dim + 2
        if _combine_nums(nums, den, [b._form for b in self.basis], length) != x._form:
            raise NotInSpan("vector is not in the source span")
        if any(w.space != x.space for w in self.images):
            raise SpaceMismatch("cannot add vectors from different quadratic spaces")
        images = [w._form for w in self.images]
        return MukaiVector._from_form(x.space, _combine_nums(nums, den, images, length))


def span_isometry(
    vs: Sequence[MukaiVector], ws: Sequence[MukaiVector]
) -> SpanIsometry:
    """Construct the pairing-preserving map Span(vs) -> Span(ws), v_i -> w_i.

    Requires equal Gram matrices and both spans non-degenerate.  A basis is
    chosen among the vs; the remaining vectors are expressed through inverse-
    Gram coordinates and checked to map correctly.  No extension to an
    isometry of the whole lattice is attempted.

    All of it reads the Gram numerators N (see `_pair_nums`): the Gram
    matrices are equal when N_v and N_w agree after cross-multiplying by the
    forms' denominators, and the basis Gram inverse is den D N_B^-1 D, found
    by the elimination that decides whether Span(vs) is non-degenerate.
    """
    if len(vs) != len(ws):
        raise GramMismatch("vector lists must have the same length")
    if any(x.space != vs[0].space for x in [*vs, *ws]):
        raise SpaceMismatch("all vectors must live in one quadratic space")
    space = vs[0].space if vs else None
    nv, nw = (_gram_nums(space, [x._form for x in xs]) for xs in (vs, ws))
    dv, dw = [x._form[1] for x in vs], [x._form[1] for x in ws]
    if any(a * dw[i] * dw[j] != b * dv[i] * dv[j]
           for i, (row_v, row_w) in enumerate(zip(nv, nw))
           for j, (a, b) in enumerate(zip(row_v, row_w))):
        raise GramMismatch("the two lists have different Gram matrices")
    # N_B is invertible exactly when Span(vs) is non-degenerate; then N_w has
    # rank len(basis_idx), the dimension a non-degenerate Span(ws) must have
    basis_idx = _greedy_basis_indices([x._form for x in vs])
    solved = _inverse_nums([[nv[i][j] for j in basis_idx] for i in basis_idx])
    if solved is None or len(basis_idx) != span_dim(ws):
        raise DegenerateSpan("both spans must be non-degenerate")
    inverse, q = solved
    # G_B^-1 = den D N_B^-1 D; the coordinates of x are G_B^-1 <x, v> with
    # <x, v_a> = P_a / (den d_x d_a), so D N_B^-1 over q gives them from P
    rows = [[dv[i] * a for a in row] for i, row in zip(basis_idx, inverse)]
    iso = SpanIsometry(tuple(vs[i] for i in basis_idx), tuple(ws[i] for i in basis_idx),
                       (rows, q))
    for x, w in zip(vs, ws):
        if iso.apply(x)._form != w._form:
            raise GramMismatch("the span isometry does not map each v_i to w_i")
    return iso


# -- JSON encoding ------------------------------------------------------------


def mukai_vector_to_json(v: MukaiVector) -> dict:
    space = "k3" if v.space == k3_lattice() else {
        "gram": [[_exact_text(x) for x in row] for row in v.space.gram]
    }
    return {
        "rank": _exact_text(v.rank),
        "c1": [_exact_text(x) for x in v.c1],
        "v2": _exact_text(v.v2),
        "space": space,
    }


def mukai_vector_from_json(obj: dict) -> MukaiVector:
    if not isinstance(obj, dict) or not isinstance(obj.get("c1"), list):
        raise ValueError("a Mukai vector must be a JSON object with a list c1")
    for key in ("rank", "v2", "space"):
        if key not in obj:
            raise ValueError(f"a Mukai vector is missing the key {key!r}")
    space_spec = obj["space"]
    if space_spec == "k3":
        space = k3_lattice()
    else:
        gram = space_spec.get("gram") if isinstance(space_spec, dict) else None
        if not isinstance(gram, list) or not all(isinstance(row, list) for row in gram):
            raise ValueError('space must be "k3" or an object whose gram is a list of lists')
        space = QuadraticSpace([[_json_number(x, "gram entry") for x in row] for row in gram])
    return MukaiVector(
        space,
        _json_number(obj["rank"], "rank"),
        tuple(_json_number(x, "c1 entry") for x in obj["c1"]),
        _json_number(obj["v2"], "v2"),
    )
