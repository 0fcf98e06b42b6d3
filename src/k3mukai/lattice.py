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
distinction that floating point would corrupt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .series import _frac, _integer_coeffs, _json_number

Matrix = tuple[tuple[Fraction, ...], ...]


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

    def dot(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
        """The inner product a.G.b."""
        return _pairings(self, _forms([(0, *a, 0)]), _forms([(0, *b, 0)]))[0][0]


def hyperbolic_plane() -> QuadraticSpace:
    return QuadraticSpace(((0, 1), (1, 0)))


def e8_gram(sign: int = -1) -> Matrix:
    """The E8 Gram matrix (Cartan matrix of the E8 root system), scaled by sign."""
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
            row.append(sign * entry)
        rows.append(row)
    return _matrix(rows)


@lru_cache(maxsize=1)
def k3_lattice() -> QuadraticSpace:
    """H^2 of a K3 surface: U + U + U + E8(-1) + E8(-1), dimension 22."""
    blocks = [_matrix(((0, 1), (1, 0)))] * 3 + [e8_gram(-1)] * 2
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
        return _pairings(self.space, [self._form], [other._form])[0][0]

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


def mukai_vector_from_chern(
    space: QuadraticSpace, rank, c1: Sequence, c2
) -> MukaiVector:
    """The vector of a sheaf with Chern data (rank, c1, c2).

    On a K3 surface the square root of the Todd class is 1 + p, so the
    degree-four component is rank + c1^2/2 - c2.
    """
    c1 = tuple(_frac(x) for x in c1)
    rank = _frac(rank)
    v2 = rank + space.dot(c1, c1) / 2 - _frac(c2)
    return MukaiVector(space, rank, c1, v2)


def _forms(rows) -> list[tuple[list[int], int]]:
    """Each coordinate row as integer numerators over its least denominator."""
    return [_integer_coeffs(row) for row in rows]


def _duals(space: QuadraticSpace, forms) -> list[tuple]:
    """(rank, G.c1, v2, denominator) per form; G = G^T, so G.c1 sums rows of c1's support."""
    rows, _ = space._sparse
    duals = []
    for nums, d in forms:
        g_c1 = [0] * space.dim
        for j, c in enumerate(nums[1:-1]):
            for i, g in rows[j] if c else ():
                g_c1[i] += g * c
        duals.append((nums[0], g_c1, nums[-1], d))
    return duals


def _pair_forms(space: QuadraticSpace, forms, duals) -> list[list[Fraction]]:
    """Pairings as integer dot products over each form's support, one Fraction each."""
    _, den = space._sparse
    table = []
    for nums, d in forms:
        r, n = nums[0], nums[-1]
        support = [(i, a) for i, a in enumerate(nums[1:-1]) if a]
        table.append([
            Fraction(sum(a * gy[i] for i, a in support) - den * (r * yn + yr * n), den * d * yd)
            for yr, gy, yn, yd in duals
        ])
    return table


def _pairings(space: QuadraticSpace, x_forms, y_forms) -> list[list[Fraction]]:
    """The pairings <x, y> of integer forms."""
    return _pair_forms(space, x_forms, _duals(space, y_forms))


def gram_matrix(xs: Sequence[MukaiVector]) -> Matrix:
    """The symmetric matrix of pairwise pairings; () for an empty list."""
    if not xs:
        return ()
    if any(x.space != xs[0].space for x in xs):
        raise SpaceMismatch("cannot pair vectors from different quadratic spaces")
    forms = [x._form for x in xs]
    return tuple(map(tuple, _pairings(xs[0].space, forms, forms)))


def gram_rank(matrix) -> int:
    """Exact rank over the rationals, by fraction-free elimination."""
    return len(_eliminate(_integer_rows(matrix), reduce=False))


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

    @property
    def size(self) -> int:
        return len(self.matrix)


def fingerprint(v: MukaiVector, xs: Sequence[MukaiVector]) -> FingerprintMatrix:
    """The (k+1) x (k+1) matrix of pairings among v, x_1, ..., x_k."""
    return FingerprintMatrix(gram_matrix([v, *xs]))


# -- exact elimination on integers ------------------------------------------


def _integer_rows(rows) -> list[list[int]]:
    """Each row times the lcm of its denominators: the row space is kept."""
    return [_integer_coeffs([_frac(x) for x in row])[0] for row in rows]


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


def _rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns of a rational matrix."""
    m = _integer_rows(rows)
    pivots = _eliminate(m)
    reduced = [[Fraction(x, row[pc]) for x in row] for row, pc in zip(m, pivots)]
    return reduced + [[Fraction(0)] * len(row) for row in m[len(pivots):]], pivots


def _kernel_basis(matrix: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, ordered by free column index."""
    rref, pivots = _rref(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(tuple(vec))
    return basis


def _invert(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]] | None:
    n = len(matrix)
    rref, pivots = _rref([[*row, *(int(i == j) for j in range(n))]
                          for i, row in enumerate(matrix)])
    return [row[n:] for row in rref] if pivots == list(range(n)) else None


def _greedy_basis_indices(forms) -> list[int]:
    """Indices of a maximal independent sublist of the forms, left to right.

    These are the pivot columns of the matrix whose columns are the forms:
    column j is a pivot exactly when it is outside the span of the columns
    before it.  Scaling a column by its denominator keeps the pivots.
    """
    return _eliminate([list(r) for r in zip(*(nums for nums, _ in forms)) if any(r)],
                      reduce=False)


def _combine_form(coeffs: Sequence[Fraction], forms, length: int) -> tuple[list[int], int]:
    """sum_b coeffs[b] * forms[b] as a form: integer numerators over their
    least denominator, which is unique, so equal vectors give equal forms."""
    cn, cd = _integer_coeffs(coeffs)
    den = lcm(*(d for _, d in forms))
    total = [0] * length
    for c, (nums, d) in zip(cn, forms):
        if c:
            scale = c * (den // d)
            total = [t + scale * a for t, a in zip(total, nums)]
    g = gcd(cd * den, *total)
    return [t // g for t in total], cd * den // g


def _combine(coeffs: Sequence[Fraction], forms, length: int) -> list[Fraction]:
    """The coordinates of sum_b coeffs[b] * forms[b]."""
    nums, den = _combine_form(coeffs, forms, length)
    return [Fraction(t, den) for t in nums]


# -- the non-degenerate-span reduction --------------------------------------


def nondegenerate_reduction(
    v: MukaiVector, xs: Sequence[MukaiVector]
) -> list[MukaiVector]:
    """Replace the x_i by y_i with the same fingerprint and non-degenerate span.

    Repeatedly finds a nonzero vector w in the radical of Span(v, x_1..x_k),
    expresses each x_i in a basis whose first vector is w (with v among the
    rest), and subtracts the w-component.  The span dimension drops each
    round, so this terminates; w pairs to zero with everything in the span,
    so no pairing among v and the x_i changes.
    """
    if v.pair(v) < 2:
        raise DegenerateMukaiVector(f"need v.v >= 2, got {v.pair(v)}")
    space = v.space
    ys = list(xs)
    if any(y.space != space for y in ys):
        raise SpaceMismatch("all vectors must live in one quadratic space")
    for _ in range(space.dim + 3):
        forms = [v._form, *(y._form for y in ys)]
        basis = [forms[i] for i in _greedy_basis_indices(forms)]
        kernel = _kernel_basis(_pair_forms(space, basis, _duals(space, basis)))
        if not kernel:
            return ys
        w = _combine(kernel[0], basis, space.dim + 2)
        # one elimination on the columns (w, v, basis, ys): its pivots extend
        # {w, v} to a basis of the span (w != 0, and v.v >= 2 while w.v = 0),
        # and its first row holds the w-coordinate of each y in that basis
        columns = [_integer_coeffs(w), *forms[:1], *basis, *forms[1:]]
        rows = [list(r) for r in zip(*(nums for nums, _ in columns)) if any(r)]
        pivots = _eliminate(rows)
        first_y = 2 + len(basis)
        if pivots[:2] != [0, 1]:
            raise LatticeError("w and v do not start a basis of the span")
        if pivots[-1] >= first_y:
            raise LatticeError("an x_i lies outside the span of the reduction basis")
        top, d_w = rows[0], columns[0][1]
        reduced = []
        for col, y in enumerate(ys, first_y):
            c = Fraction(top[col] * d_w, top[0] * columns[col][1])
            coords = [a - c * b if b else a for a, b in zip(y.coords, w)]
            reduced.append(MukaiVector.from_coords(space, coords) if c else y)
        ys = reduced
    raise AssertionError("span dimension failed to drop; this cannot happen")


# -- isometries between spans ------------------------------------------------


@dataclass(frozen=True)
class SpanIsometry:
    """The unique pairing-preserving map Span(vs) -> Span(ws) with v_i -> w_i."""

    basis: tuple[MukaiVector, ...]
    images: tuple[MukaiVector, ...]
    gram_inverse: Matrix
    # integer forms, built once; derived, so not in ==, hash or repr
    _dual_forms: list = field(init=False, repr=False, compare=False)
    _inverse_forms: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = [b._form for b in self.basis]
        duals = _duals(self.basis[0].space, basis) if basis else []
        object.__setattr__(self, "_dual_forms", duals)
        object.__setattr__(self, "_inverse_forms", _forms(self.gram_inverse))

    def coordinates(self, x: MukaiVector) -> list[Fraction]:
        """Coordinates of x in the source basis, via pairings.

        In a non-degenerate span, x = sum_ab <x, v_a> (G^-1)_ab v_b.
        """
        if any(b.space != x.space for b in self.basis):
            raise SpaceMismatch("cannot pair vectors from different quadratic spaces")
        pairings = _pair_forms(x.space, [x._form], self._dual_forms)[0]
        return _combine(pairings, self._inverse_forms, len(self.basis))

    def apply(self, x: MukaiVector) -> MukaiVector:
        coords = self.coordinates(x)
        length = x.space.dim + 2
        if _combine_form(coords, [b._form for b in self.basis], length) != x._form:
            raise NotInSpan("vector is not in the source span")
        if any(w.space != x.space for w in self.images):
            raise SpaceMismatch("cannot add vectors from different quadratic spaces")
        images = [w._form for w in self.images]
        return MukaiVector.from_coords(x.space, _combine(coords, images, length))


def span_isometry(
    vs: Sequence[MukaiVector], ws: Sequence[MukaiVector]
) -> SpanIsometry:
    """Construct the pairing-preserving map Span(vs) -> Span(ws), v_i -> w_i.

    Requires equal Gram matrices and both spans non-degenerate.  A basis is
    chosen among the vs; the remaining vectors are expressed through inverse-
    Gram coordinates and checked to map correctly.  No extension to an
    isometry of the whole lattice is attempted.
    """
    if len(vs) != len(ws):
        raise GramMismatch("vector lists must have the same length")
    if any(x.space != vs[0].space for x in [*vs, *ws]):
        raise SpaceMismatch("all vectors must live in one quadratic space")
    gv = gram_matrix(vs)
    gw = gram_matrix(ws)
    if gv != gw:
        raise GramMismatch("the two lists have different Gram matrices")
    rank = gram_rank(gv)
    basis_idx = _greedy_basis_indices([x._form for x in vs])
    if rank != len(basis_idx) or rank != span_dim(ws):
        raise DegenerateSpan("both spans must be non-degenerate")
    # rank(gv) = len(basis_idx) makes the basis Gram submatrix invertible
    gram_inv = _invert([[gv[i][j] for j in basis_idx] for i in basis_idx])
    iso = SpanIsometry(
        tuple(vs[i] for i in basis_idx), tuple(ws[i] for i in basis_idx), _matrix(gram_inv)
    )
    for x, w in zip(vs, ws):
        if iso.apply(x) != w:
            raise GramMismatch("the span isometry does not map each v_i to w_i")
    return iso


# -- JSON encoding ------------------------------------------------------------


def mukai_vector_to_json(v: MukaiVector) -> dict:
    space = "k3" if v.space == k3_lattice() else {
        "gram": [[str(x) for x in row] for row in v.space.gram]
    }
    return {
        "rank": str(v.rank),
        "c1": [str(x) for x in v.c1],
        "v2": str(v.v2),
        "space": space,
    }


def mukai_vector_from_json(obj: dict) -> MukaiVector:
    if not isinstance(obj, dict) or not isinstance(obj.get("c1"), list):
        raise ValueError("a Mukai vector must be a JSON object with a list c1")
    space_spec = obj["space"]
    if space_spec == "k3":
        space = k3_lattice()
    else:
        space = QuadraticSpace([[_json_number(x, "gram entry") for x in row]
                                for row in space_spec["gram"]])
    return MukaiVector(
        space,
        _json_number(obj["rank"], "rank"),
        tuple(_json_number(x, "c1 entry") for x in obj["c1"]),
        _json_number(obj["v2"], "v2"),
    )
