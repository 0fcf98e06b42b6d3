"""The Mukai lattice of a K3 surface, with exact linear algebra.

A vector is a triple (rank, D, v2) with D in a quadratic space modelling
H^2 of the surface; the pairing of (r, D, n) with (r', D', n') is

    D.D' - r*n' - r'*n,

so the (H^0, H^4) part contributes a hyperbolic plane with a sign and never
needs its own coordinates.  The distinguished H^2 model is the even
unimodular lattice of signature (3, 19): three hyperbolic planes plus two
copies of the E8 lattice with the form negated.

All rank, kernel and inversion computations are exact over the rationals;
the rank routine is fraction-free (Bareiss) on denominator-cleared rows,
since degenerate versus non-degenerate is a discrete distinction that
floating point would corrupt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from .series import _frac

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

    @property
    def dim(self) -> int:
        return len(self.gram)

    def dot(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
        """The inner product a.G.b, skipping zero entries."""
        total = Fraction(0)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            row = self.gram[i]
            acc = Fraction(0)
            for j, bj in enumerate(b):
                if bj != 0 and row[j] != 0:
                    acc += row[j] * bj
            total += ai * acc
        return total


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
        return (
            self.space.dot(self.c1, other.c1)
            - self.rank * other.v2
            - other.rank * self.v2
        )

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return (self.rank, *self.c1, self.v2)

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


def gram_matrix(xs: Sequence[MukaiVector]) -> Matrix:
    """The symmetric matrix of pairwise pairings; () for an empty list."""
    pairs = [[None] * len(xs) for _ in xs]
    for i, x in enumerate(xs):
        for j in range(i, len(xs)):
            value = x.pair(xs[j])
            pairs[i][j] = value
            pairs[j][i] = value
    return tuple(tuple(row) for row in pairs)


def gram_rank(matrix) -> int:
    """Exact rank over the rationals, by fraction-free elimination.

    Rows are cleared of denominators (a rank-preserving scaling) and then
    reduced by the Bareiss one-step scheme, whose divisions are exact.
    """
    rows = [list(row) for row in matrix]
    if not rows or not rows[0]:
        return 0
    int_rows = []
    for row in rows:
        scale = lcm(*(_frac(x).denominator for x in row))
        int_rows.append([int(_frac(x) * scale) for x in row])
    n_rows, n_cols = len(int_rows), len(int_rows[0])
    m = int_rows
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, n_rows):
            for j in range(col + 1, n_cols):
                m[i][j] = (m[i][j] * m[rank][col] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == n_rows:
            break
    return rank


def span_dim(xs: Sequence[MukaiVector]) -> int:
    """Dimension of the span, from the coordinate matrix."""
    return gram_rank([x.coords for x in xs])


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


# -- exact elimination over the rationals ----------------------------------


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with deterministic first-nonzero pivoting."""
    m = [list(row) for row in rows]
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
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


def _kernel_basis(matrix: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, ordered by free column index."""
    rows = [list(map(_frac, row)) for row in matrix]
    if not rows:
        return []
    n_cols = len(rows[0])
    rref, pivots = _rref(rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(tuple(vec))
    return basis


def _solve_columns(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve sum_j c_j * columns[j] = target, or None if inconsistent."""
    height = len(target)
    aug = [
        [_frac(col[i]) for col in columns] + [_frac(target[i])]
        for i in range(height)
    ]
    rref, pivots = _rref(aug)
    n_cols = len(columns)
    if n_cols in pivots:
        return None
    solution = [Fraction(0)] * n_cols
    for r, pc in enumerate(pivots):
        solution[pc] = rref[r][n_cols]
    return solution


def _invert(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]] | None:
    n = len(matrix)
    aug = [list(map(_frac, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    rref, pivots = _rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rref]


def _greedy_basis_indices(coord_rows: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices of a maximal independent sublist, scanning left to right."""
    picked: list[int] = []
    rref_rows: list[list[Fraction]] = []
    pivots: list[int] = []
    for idx, row in enumerate(coord_rows):
        residue = list(map(_frac, row))
        for rrow, pc in zip(rref_rows, pivots):
            if residue[pc] != 0:
                factor = residue[pc]
                residue = [a - factor * b for a, b in zip(residue, rrow)]
        pivot = next((c for c, x in enumerate(residue) if x != 0), None)
        if pivot is None:
            continue
        inv = 1 / residue[pivot]
        residue = [x * inv for x in residue]
        for i, (rrow, pc) in enumerate(zip(rref_rows, pivots)):
            if rrow[pivot] != 0:
                factor = rrow[pivot]
                rref_rows[i] = [a - factor * b for a, b in zip(rrow, residue)]
        rref_rows.append(residue)
        pivots.append(pivot)
        picked.append(idx)
    return picked


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
    ys = list(xs)
    for y in ys:
        if y.space != v.space:
            raise SpaceMismatch("all vectors must live in one quadratic space")
    for _ in range(v.space.dim + 3):
        vecs = [v, *ys]
        basis_idx = _greedy_basis_indices([w.coords for w in vecs])
        basis = [vecs[i] for i in basis_idx]
        kernel = _kernel_basis(gram_matrix(basis))
        if not kernel:
            return ys
        coeffs = kernel[0]
        w = basis[0] * coeffs[0]
        for c, b in zip(coeffs[1:], basis[1:]):
            w = w + b * c
        # extend {w, v} to a basis of the span; w is nonzero and v is not
        # proportional to it because v.v >= 2 while w pairs to zero with v
        extended = [w, v, *basis]
        ext_idx = _greedy_basis_indices([u.coords for u in extended])
        assert ext_idx[:2] == [0, 1]
        new_basis = [extended[i] for i in ext_idx]
        columns = [u.coords for u in new_basis]
        reduced = []
        for x in ys:
            sol = _solve_columns(columns, x.coords)
            assert sol is not None
            reduced.append(x - sol[0] * w)
        ys = reduced
    raise AssertionError("span dimension failed to drop; this cannot happen")


# -- isometries between spans ------------------------------------------------


@dataclass(frozen=True)
class SpanIsometry:
    """The unique pairing-preserving map Span(vs) -> Span(ws) with v_i -> w_i."""

    basis: tuple[MukaiVector, ...]
    images: tuple[MukaiVector, ...]
    gram_inverse: Matrix

    def coordinates(self, x: MukaiVector) -> list[Fraction]:
        """Coordinates of x in the source basis, via pairings.

        In a non-degenerate span, x = sum_ab <x, v_a> (G^-1)_ab v_b.
        """
        pairings = [x.pair(b) for b in self.basis]
        return [
            sum((pairings[a] * self.gram_inverse[a][b] for a in range(len(self.basis))),
                Fraction(0))
            for b in range(len(self.basis))
        ]

    def apply(self, x: MukaiVector) -> MukaiVector:
        coords = self.coordinates(x)
        rebuilt = x * 0
        image = x * 0
        for c, b, w in zip(coords, self.basis, self.images):
            rebuilt = rebuilt + c * b
            image = image + c * w
        if rebuilt != x:
            raise NotInSpan("vector is not in the source span")
        return image


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
    for x in [*vs, *ws]:
        if vs and x.space != vs[0].space:
            raise SpaceMismatch("all vectors must live in one quadratic space")
    gv = gram_matrix(vs)
    gw = gram_matrix(ws)
    if gv != gw:
        raise GramMismatch("the two lists have different Gram matrices")
    rank = gram_rank(gv)
    if rank != span_dim(vs) or rank != span_dim(ws):
        raise DegenerateSpan("both spans must be non-degenerate")
    basis_idx = _greedy_basis_indices([x.coords for x in vs])
    basis = tuple(vs[i] for i in basis_idx)
    images = tuple(ws[i] for i in basis_idx)
    gram_inv = _invert(gram_matrix(basis)) if basis else []
    assert gram_inv is not None
    iso = SpanIsometry(basis, images, _matrix(gram_inv))
    for x, w in zip(vs, ws):
        assert iso.apply(x) == w
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
    space_spec = obj["space"]
    if space_spec == "k3":
        space = k3_lattice()
    else:
        space = QuadraticSpace(_matrix(
            [[Fraction(x) for x in row] for row in space_spec["gram"]]
        ))
    return MukaiVector(
        space,
        Fraction(obj["rank"]),
        tuple(Fraction(x) for x in obj["c1"]),
        Fraction(obj["v2"]),
    )
