import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fraction_inverse,
    fraction_kernel_basis,
    fraction_pairing,
    fraction_rref,
    gauss_det,
    gauss_rank,
    greedy_by_rank,
    multi_round_reduction,
)
from k3mukai import lattice
from k3mukai.lattice import (
    DegenerateMukaiVector,
    DegenerateSpan,
    FingerprintMatrix,
    GramMismatch,
    MukaiVector,
    NotInSpan,
    QuadraticSpace,
    SpaceMismatch,
    _combine_nums,
    _eliminate,
    _greedy_basis_indices,
    _inverse_nums,
    _kernel_nums,
    e8_gram,
    fingerprint,
    gram_matrix,
    gram_rank,
    hilbert_scheme_vector,
    hyperbolic_plane,
    k3_lattice,
    mukai_pairing,
    mukai_vector_from_chern,
    mukai_vector_from_json,
    mukai_vector_to_json,
    nondegenerate_reduction,
    point_class,
    span_dim,
    span_isometry,
)
from k3mukai.reduction import KClassInvariants, ModuliData, _pairing_vectors, reduce_to_hilbert
from k3mukai.series import _integer_coeffs
from test_lattice_golden import GENERIC

F = Fraction
K3 = k3_lattice()
U = hyperbolic_plane()


def mv(space, rank, c1, v2):
    return MukaiVector(space, rank, c1, v2)


def k3_vec(rank, v2, **coords):
    c1 = [0] * 22
    for key, value in coords.items():
        c1[int(key[1:])] = value
    return mv(K3, rank, c1, v2)


# -- the distinguished space ------------------------------------------------


def test_k3_lattice_shape():
    assert K3.dim == 22
    for i in range(22):
        assert K3.gram[i][i] % 2 == 0
        for j in range(22):
            assert K3.gram[i][j] == K3.gram[j][i]


def test_k3_lattice_unimodular():
    # det(U)^3 * det(E8(-1))^2 = (-1)^3 * 1 = -1
    assert gauss_det(K3.gram) == -1


def test_e8_block_negative_definite():
    g = e8_gram()
    for k in range(1, 9):
        minor = [row[:k] for row in g[:k]]
        assert gauss_det(minor) * (-1) ** k > 0


def test_quadratic_space_rejects_asymmetric():
    with pytest.raises(ValueError):
        QuadraticSpace(((0, 1), (2, 0)))


# -- pairing ------------------------------------------------------------------


def test_pairing_point_against_rank_one():
    assert mukai_pairing(point_class(U), mv(U, 1, (0, 0), 0)) == -1


def test_pairing_point_isotropic():
    p = point_class(K3)
    assert mukai_pairing(p, p) == 0


def test_hilbert_scheme_vector_square():
    for n in range(0, 21):
        v = hilbert_scheme_vector(K3, n)
        assert mukai_pairing(v, v) == 2 * n - 2


def test_pairing_space_mismatch():
    with pytest.raises(SpaceMismatch):
        mukai_pairing(point_class(U), point_class(K3))


small = st.integers(min_value=-5, max_value=5)


def u_vector():
    return st.tuples(small, small, small, small).map(
        lambda t: mv(U, t[0], (t[1], t[2]), t[3])
    )


@given(u_vector(), u_vector(), u_vector(), small, small)
def test_pairing_symmetric_bilinear(x, y, z, a, b):
    assert x.pair(y) == y.pair(x)
    assert (a * x + b * y).pair(z) == a * x.pair(z) + b * y.pair(z)


# -- Mukai vector from Chern data ---------------------------------------------


def test_from_chern_ideal_sheaf():
    for n in range(5):
        v = mukai_vector_from_chern(K3, 1, [0] * 22, n)
        assert v == hilbert_scheme_vector(K3, n)


def test_from_chern_zero():
    v = mukai_vector_from_chern(U, 0, (0, 0), 0)
    assert v.is_zero()


def test_from_chern_rank_two():
    # c1 = e + 2f in a hyperbolic plane has square 4; v2 = 2 + 4/2 - 3 = 1
    v = mukai_vector_from_chern(U, 2, (1, 2), 3)
    assert v.v2 == 1


# -- Gram matrices and ranks ---------------------------------------------------


def test_gram_matrix_single():
    v = hilbert_scheme_vector(K3, 4)
    assert gram_matrix([v]) == ((6,),)


def test_gram_matrix_pair():
    a = mv(U, 1, (0, 0), 0)
    b = point_class(U)
    assert gram_matrix([a, b]) == ((0, -1), (-1, 0))


def test_gram_matrix_empty():
    assert gram_matrix([]) == ()


def test_gram_rank_hyperbolic():
    assert gram_rank([[0, 1], [1, 0]]) == 2


def test_gram_rank_zero():
    assert gram_rank([[0, 0], [0, 0]]) == 0


def test_gram_rank_deficient():
    assert gram_rank([[2, 2], [2, 2]]) == 1


def test_gram_rank_k3():
    assert gram_rank(K3.gram) == 22


fraction_entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(fraction_entries, min_size=n, max_size=n), min_size=1, max_size=6
    )
))
def test_gram_rank_matches_gauss_oracle(rows):
    assert gram_rank(rows) == gauss_rank(rows)


@given(st.lists(u_vector(), max_size=5))
def test_rank_bounded_by_span_dim(xs):
    assert gram_rank(gram_matrix(xs)) <= span_dim(xs)


def test_rank_strictly_below_span_dim_on_degenerate():
    # an isotropic vector orthogonal to everything else in the list spans a
    # radical direction, so the Gram rank drops below the span dimension
    x = isotropic_u_vector(0)
    assert gram_rank(gram_matrix([x])) == 0 < span_dim([x])
    v = hilbert_scheme_vector(K3, 3)
    assert gram_rank(gram_matrix([v, x])) == 1 < span_dim([v, x])


def test_rank_equals_span_dim_on_nondegenerate():
    # spans built from full hyperbolic pairs and E8 basis vectors are
    # non-degenerate by construction
    rng = random.Random(7)
    for _ in range(50):
        xs = []
        if rng.random() < 0.7:
            xs.append(hilbert_scheme_vector(K3, rng.randrange(2, 6)))
            xs.append(point_class(K3) + hilbert_scheme_vector(K3, 0) * 1)
        block = rng.randrange(3)
        e = [0] * 22
        f = [0] * 22
        e[2 * block] = 1
        f[2 * block + 1] = 1
        xs.append(mv(K3, 0, e, 0))
        xs.append(mv(K3, 0, f, 0))
        for idx in rng.sample(range(6, 22), rng.randrange(0, 4)):
            c1 = [0] * 22
            c1[idx] = rng.randrange(1, 3)
            xs.append(mv(K3, 0, c1, 0))
        assert gram_rank(gram_matrix(xs)) == span_dim(xs)


# -- the integer elimination kernel against the Fraction oracle ----------------


@st.composite
def rational_matrices(draw, square=False):
    """Rational matrices of any shape from 0 x 0 to 6 x 6, with zero rows and
    columns planted and, sometimes, a row that repeats a combination of two
    others (so the matrix is singular)."""
    n_rows = draw(st.integers(min_value=0, max_value=6))
    n_cols = n_rows if square else draw(st.integers(min_value=0, max_value=6))
    entry = st.one_of(st.just(F(0)), fraction_entries)
    rows = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    for i in draw(st.sets(st.integers(0, 5), max_size=2)) & set(range(n_rows)):
        rows[i] = [F(0)] * n_cols
    for j in draw(st.sets(st.integers(0, 5), max_size=2)) & set(range(n_cols)):
        for row in rows:
            row[j] = F(0)
    if n_rows >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def integer_rows(rows):
    """Each row times the lcm of its denominators, which keeps the row space
    (so the reduced row echelon form and the kernel)."""
    return [_integer_coeffs(r)[0] for r in rows]


@given(rational_matrices())
def test_integer_kernel_matches_fraction_oracle(rows):
    m = integer_rows(rows)
    pivots = _eliminate(m)
    # row r over its pivot is row r of the reduced row echelon form
    rref = [[F(a, row[pc]) for a in row] for row, pc in zip(m, pivots)]
    rref += [[F(0)] * len(row) for row in m[len(pivots):]]
    assert (rref, pivots) == fraction_rref(rows)
    kernel, scale = _kernel_nums(integer_rows(rows))
    assert [tuple(F(a, scale) for a in vec) for vec in kernel] == fraction_kernel_basis(rows)
    assert gram_rank(rows) == len(fraction_rref(rows)[1])


@given(rational_matrices(square=True))
def test_integer_inverse_matches_fraction_oracle(rows):
    # row i of the integer matrix is s_i times row i of R, so R^-1 = (S R)^-1 S
    scales = [_integer_coeffs(r)[1] for r in rows]
    inverse = _inverse_nums(integer_rows(rows))
    if inverse is None:
        assert fraction_inverse(rows) is None
    else:
        m, q = inverse
        assert q > 0
        assert [[F(a * s, q) for a, s in zip(row, scales)] for row in m] == fraction_inverse(rows)


@given(rational_matrices())
def test_greedy_basis_matches_left_to_right_oracle_scan(rows):
    assert _greedy_basis_indices([_integer_coeffs(r) for r in rows]) == greedy_by_rank(rows)


def test_lattice_checks_survive_python_optimize():
    # Each check is broken on purpose by a patched helper; under -O an
    # assert would vanish, an explicit raise must not.
    script = textwrap.dedent("""
        import sys
        from k3mukai import lattice as L
        assert not __debug__ and sys.flags.optimize
        K3 = L.k3_lattice()
        v = L.hilbert_scheme_vector(K3, 3)
        f = L.MukaiVector(K3, 0, [0, 0, 1] + [0] * 19, 0)  # radical class
        x = L.MukaiVector(K3, 0, [0] * 6 + [1] + [0] * 15, 0)
        raised = []
        def attempt(call):
            try:
                call()
            except L.LatticeError as exc:
                raised.append(str(exc))
            else:
                raised.append(None)
        greedy, combine = L._greedy_basis_indices, L._combine_nums
        L._combine_nums = lambda cn, cd, forms, length: ([0] * length, 1)  # w = 0
        attempt(lambda: L.nondegenerate_reduction(v, [f, x]))
        L._combine_nums = combine
        L._greedy_basis_indices = lambda forms: greedy(forms)[:-1]  # basis misses x
        attempt(lambda: L.nondegenerate_reduction(v, [f, x]))
        L._greedy_basis_indices = greedy
        L.SpanIsometry.apply = lambda self, y: y + y  # maps v_i wrongly
        attempt(lambda: L.span_isometry([v], [v]))
        print(raised)
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out.strip() == str([
        "w and v do not start a basis of the span",
        "an x_i lies outside the span of the reduction basis",
        "the span isometry does not map each v_i to w_i",
    ])


def test_multi_radical_pivot_check_survives_python_optimize():
    # at d = 2 a patched kernel repeats its first vector, so w_1..w_d and v
    # are dependent; under -O an assert would vanish, an explicit raise must not
    script = textwrap.dedent("""
        import sys
        from k3mukai import lattice as L
        assert not __debug__ and sys.flags.optimize
        K3 = L.k3_lattice()
        v = L.hilbert_scheme_vector(K3, 3)
        f, g = (L.MukaiVector(K3, 0, [int(i == j) for i in range(22)], 0) for j in (0, 2))
        x = L.MukaiVector(K3, 0, [0] * 6 + [1] + [0] * 15, 0)
        kernel_nums, sizes = L._kernel_nums, []
        def repeat_first(rows):
            kernel, scale = kernel_nums(rows)
            sizes.append(len(kernel))
            return [kernel[0], kernel[0], *kernel[2:]], scale
        L._kernel_nums = repeat_first
        try:
            L.nondegenerate_reduction(v, [f, x, g])
        except L.LatticeError as exc:
            print([sizes, str(exc)])
        else:
            print([sizes, None])
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out.strip() == str([[2], "w and v do not start a basis of the span"])


# -- fingerprint ---------------------------------------------------------------


def test_fingerprint_hilbert_vs_point():
    n = 5
    v = hilbert_scheme_vector(K3, n)
    fp = fingerprint(v, [point_class(K3)])
    assert fp.matrix == ((2 * n - 2, -1), (-1, 0))


def test_fingerprint_no_classes():
    v = hilbert_scheme_vector(K3, 3)
    assert fingerprint(v, []).matrix == ((4,),)


def test_fingerprint_repeated_v():
    v = hilbert_scheme_vector(K3, 3)
    assert fingerprint(v, [v]).matrix == ((4, 4), (4, 4))


# -- non-degenerate reduction ---------------------------------------------------


def isotropic_u_vector(block):
    c1 = [0] * 22
    c1[2 * block] = 1
    return mv(K3, 0, c1, 0)


def test_reduction_kills_isotropic_orthogonal_class():
    v = hilbert_scheme_vector(K3, 3)
    x = isotropic_u_vector(1)
    assert gram_matrix([v, x]) == ((4, 0), (0, 0))
    ys = nondegenerate_reduction(v, [x])
    assert len(ys) == 1 and ys[0].is_zero()


def test_reduction_empty_list():
    v = hilbert_scheme_vector(K3, 2)
    assert nondegenerate_reduction(v, []) == []


def test_reduction_requires_positive_square():
    with pytest.raises(DegenerateMukaiVector):
        nondegenerate_reduction(point_class(K3), [])


def random_k3_vector(rng, max_entry=3):
    c1 = [0] * 22
    for idx in rng.sample(range(22), rng.randrange(0, 4)):
        c1[idx] = rng.randint(-max_entry, max_entry)
    return mv(K3, rng.randint(-max_entry, max_entry), c1, rng.randint(-max_entry, max_entry))


def test_reduction_preserves_fingerprint_and_fixes_rank():
    rng = random.Random(20240)
    for _ in range(40):
        v = hilbert_scheme_vector(K3, rng.randrange(2, 6))
        xs = [random_k3_vector(rng) for _ in range(rng.randrange(1, 4))]
        # salt with radical-prone vectors: isotropic, orthogonal to the rest
        xs.append(isotropic_u_vector(rng.randrange(1, 3)))
        ys = nondegenerate_reduction(v, xs)
        assert fingerprint(v, ys) == fingerprint(v, xs)
        full = [v, *ys]
        assert gram_rank(gram_matrix(full)) == span_dim(full)


# per space: the coordinates of the first vectors e_j of its hyperbolic
# planes (each e_j isotropic, pairing only with its partner at the next
# coordinate), and the coordinates that v's c1 is drawn on
PLANTING = {"k3": (K3, (1, 3, 5), range(7, 23)), "generic": (GENERIC, (3, 5), (1, 2))}


def planted_radical_case(rng, name, d):
    """(v, xs) in the named space: xs mix the isotropic classes e_j of the
    first d hyperbolic planes into sparse vectors with denominators 1, 2 and
    3 that vanish at the partners of those e_j, so each e_j pairs to zero
    with the whole span; one x is repeated."""
    space, firsts, v_support = PLANTING[name]
    size = space.dim + 2
    partners = {first + 1 for first in firsts[:d]}

    def sparse(support):
        c = [F(0)] * size
        for i in rng.sample(sorted(support), min(3, len(support))):
            c[i] = F(rng.randint(-2, 2), rng.choice((1, 2, 3)))
        return c

    def coefficient():
        return F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))

    v = sparse(v_support)
    v[0] = F(1)
    # v2 <= (D.D - 2) / 2 makes v.v = D.D - 2 v2 >= 2
    v[-1] = F((fraction_pairing(space.gram, v, v) - 2) // 2 - rng.randint(0, 2))
    free = [sparse(set(range(size)) - partners) for _ in range(rng.randint(2, 4))]
    xs = [*free]
    for first in firsts[:d]:
        mix = [(coefficient(), [F(int(i == first)) for i in range(size)])]
        mix += [(coefficient(), x) for x in rng.sample(free, rng.randint(1, len(free)))]
        xs.append([sum((c * x[i] for c, x in mix), F(0)) for i in range(size)])
    xs.append(rng.choice(xs))
    rng.shuffle(xs)
    return (MukaiVector.from_coords(space, v),
            [MukaiVector.from_coords(space, x) for x in xs])


@pytest.mark.parametrize("name", ["k3", "generic"])
def test_reduction_matches_the_multi_round_oracle(name):
    rng = random.Random(f"one-elimination-{name}")
    dims = len(PLANTING[name][1]) + 1
    for case in range(60):
        v, xs = planted_radical_case(rng, name, case % dims)
        got = [[str(c) for c in y.coords] for y in nondegenerate_reduction(v, xs)]
        assert got == [[str(c) for c in y] for y in multi_round_reduction(v, xs)]


def test_reduction_eliminates_three_times_at_any_radical_dimension(monkeypatch):
    # greedy basis, kernel and one column elimination; no kernel, no third
    rng = random.Random(2718)
    eliminate, calls, seen = lattice._eliminate, [], set()

    def counting(rows, reduce=True):
        calls.append(reduce)
        return eliminate(rows, reduce)

    for case in range(24):
        v, xs = planted_radical_case(rng, "k3", case % 4)
        full = [v, *xs]
        radical = span_dim(full) - gram_rank(gram_matrix(full))
        seen.add(radical)
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "_eliminate", counting)
            calls.clear()
            nondegenerate_reduction(v, xs)
        assert len(calls) == (3 if radical else 2)
    assert seen >= {0, 1, 2, 3}


@pytest.mark.parametrize("name", ["k3", "generic"])
def test_public_values_are_fractions_zeros_included(name):
    rng = random.Random(f"fraction-types-{name}")
    dims = len(PLANTING[name][1]) + 1
    for case in range(12):
        v, xs = planted_radical_case(rng, name, case % dims)
        full = [v, *xs]
        gram = gram_matrix(full)
        assert gram == tuple(tuple(x.pair(y) for y in full) for x in full)
        ys = nondegenerate_reduction(v, xs)
        reduced = [v, *ys]
        iso = span_isometry(reduced, [-x for x in reduced])
        values = [*(g for row in gram for g in row),
                  *(g for row in fingerprint(v, xs).matrix for g in row),
                  *(g for row in iso.gram_inverse for g in row),
                  *(c for y in ys for c in y.coords),
                  *(c for y in reduced for c in iso.apply(y).coords)]
        assert F(0) in values
        assert all(type(x) is F for x in values)


# -- span isometries -------------------------------------------------------------


def swap_u_blocks(x: MukaiVector) -> MukaiVector:
    """The ambient isometry exchanging the first two hyperbolic planes."""
    c1 = list(x.c1)
    c1[0], c1[1], c1[2], c1[3] = c1[2], c1[3], c1[0], c1[1]
    return mv(K3, x.rank, c1, x.v2)


def test_isometry_identity():
    vs = [hilbert_scheme_vector(K3, 3), point_class(K3)]
    # the span of (1,0,1-n) and p is non-degenerate (its Gram has rank 2)
    iso = span_isometry(vs, vs)
    for x in vs:
        assert iso.apply(x) == x


def test_isometry_sign_flip():
    e = k3_vec(0, 0, c0=1, c1=1)  # e + f in the first U block, square 2
    assert e.pair(e) == 2
    iso = span_isometry([e], [-1 * e])
    assert iso.apply(e) == -1 * e


def test_isometry_from_ambient_map():
    rng = random.Random(99)
    for _ in range(25):
        vs = [random_k3_vector(rng) for _ in range(rng.randrange(1, 5))]
        ws = [swap_u_blocks(x) for x in vs]
        assert gram_matrix(vs) == gram_matrix(ws)
        try:
            iso = span_isometry(vs, ws)
        except DegenerateSpan:
            assert gram_rank(gram_matrix(vs)) != span_dim(vs)
            continue
        for a in vs:
            for b in vs:
                assert iso.apply(a).pair(iso.apply(b)) == a.pair(b)
        for x, w in zip(vs, ws):
            assert iso.apply(x) == w


def test_isometry_gram_mismatch():
    e = k3_vec(0, 0, c0=1, c1=1)
    with pytest.raises(GramMismatch):
        span_isometry([e], [2 * e])


def test_isometry_degenerate_span():
    x = isotropic_u_vector(0)
    with pytest.raises(DegenerateSpan):
        span_isometry([x], [x])


def test_isometry_refuses_a_degenerate_span_on_either_side():
    # equal Gram matrices (every entry 2), but e + f adds an isotropic class
    # orthogonal to e, so the span of [e, e + f] is degenerate of dimension 2
    e, f = k3_vec(0, 0, c0=1, c1=1), isotropic_u_vector(1)
    for vs, ws in (([e, e], [e, e + f]), ([e, e + f], [e, e])):
        assert gram_matrix(vs) == gram_matrix(ws)
        with pytest.raises(DegenerateSpan):
            span_isometry(vs, ws)


def test_isometry_rejects_vector_outside_span():
    v = hilbert_scheme_vector(K3, 3)
    iso = span_isometry([v], [v])
    with pytest.raises(NotInSpan):
        iso.apply(point_class(K3))


def test_isometry_on_rational_vectors_and_rejects_off_span_terms():
    # membership in the span is decided by comparing canonical integer forms,
    # so it must hold exactly through denominators on both sides
    v = k3_vec(F(1, 2), F(-3, 4), c0=F(2, 3), c1=1, c6=F(1, 5))
    p = k3_vec(0, F(1, 3), c0=1, c8=F(-1, 2))
    assert gram_rank(gram_matrix([v, p])) == span_dim([v, p]) == 2
    iso = span_isometry([v, p], [swap_u_blocks(v), swap_u_blocks(p)])
    x = F(1, 3) * v + F(1, 2) * p
    assert iso.apply(x) == swap_u_blocks(x)
    # off the span: a new coordinate, one in p's support, and v2 alone
    for term in (k3_vec(0, 0, c10=F(1, 7)), k3_vec(0, 0, c8=F(1, 35)), k3_vec(0, F(1, 35))):
        with pytest.raises(NotInSpan):
            iso.apply(x + term)


def test_isometry_compares_grams_across_denominators():
    # Gram numerators N with <x_i, x_j> = N_ij / (d_i d_j): e and e/2 share
    # their numerators but not their Grams, while e + f and (e + 4f)/2 share
    # their Grams (both square 2) but not their numerators
    e, f = mv(U, 0, (1, 0), 0), mv(U, 0, (0, 1), 0)
    with pytest.raises(GramMismatch):
        span_isometry([e + f], [F(1, 2) * (e + f)])
    with pytest.raises(GramMismatch):
        span_isometry([F(1, 2) * (e + f)], [e + f])
    with pytest.raises(GramMismatch):
        span_isometry([e + f, e], [e + f, F(1, 2) * e])
    a, b = e + f, F(1, 2) * (e + 4 * f)
    assert a._form[1] == 1 and b._form[1] == 2 and gram_matrix([a]) == gram_matrix([b])
    assert span_isometry([a], [b]).apply(a) == b
    assert span_isometry([b], [a]).apply(b) == a


def test_the_reduction_to_the_hilbert_scheme_is_a_span_isometry():
    # the moduli-side vectors (v, alpha, point/rho, L) and the Hilbert-side
    # ones (v_n, beta, point, L) of the pairing lists live in one plane and
    # have one Gram matrix; their span is degenerate exactly when the plane
    # is, and then the isometry exists after removing the radical (v.v >= 2
    # needs n >= 2)
    rng = random.Random(2329)
    direct = reduced = 0
    for _ in range(300):
        alpha = KClassInvariants(rank=rng.randint(-10, 10), c1sq=2 * rng.randint(-2, 2),
                                 c1L=rng.randint(-3, 3), v2=rng.randint(-10, 10))
        m = ModuliData(rho=rng.randint(1, 5), n=rng.randint(1, 6), alpha=alpha,
                       Lsq=rng.randint(-4, 4), u=rng.randint(-10, 10))
        t = reduce_to_hilbert(m)
        moduli = _pairing_vectors(m.rho, m.n, m.alpha, m.Lsq)
        hilbert = _pairing_vectors(1, t.n, t.beta, t.Lsq)
        assert {x.space for x in [*moduli, *hilbert]} == {moduli[0].space}
        gram = gram_matrix(moduli)
        assert gram_matrix(hilbert) == gram
        if gram_rank(gram) == span_dim(moduli):
            iso = span_isometry(moduli, hilbert)
            direct += 1
        else:
            with pytest.raises(DegenerateSpan):
                span_isometry(moduli, hilbert)
            if m.n < 2:
                continue
            (v, *xs), (w, *ys) = moduli, hilbert
            iso = span_isometry([v, *nondegenerate_reduction(v, xs)],
                                [w, *nondegenerate_reduction(w, ys)])
            reduced += 1
        assert iso.apply(moduli[0]) == hilbert[0]
    assert direct > 250 and reduced > 10


fraction_entries_5 = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def rational_spans(draw):
    """(v, xs) in a random symmetric rational space with v.v >= 2; the space
    sometimes has a zero Gram row, whose basis vector is then in every radical."""
    dim = draw(st.integers(min_value=1, max_value=4))
    upper = {(i, j): draw(fraction_entries_5) for i in range(dim) for j in range(i, dim)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)]
    null = draw(st.one_of(st.none(), st.integers(0, dim - 1)))
    if null is not None:
        gram = [[F(0) if null in (i, j) else g for j, g in enumerate(row)]
                for i, row in enumerate(gram)]
    space = QuadraticSpace(gram)
    d = draw(st.lists(fraction_entries_5, min_size=dim, max_size=dim))
    c = draw(st.fractions(min_value=2, max_value=8, max_denominator=5))
    dd = mv(space, 0, d, 0).pair(mv(space, 0, d, 0))
    v = mv(space, 1, d, (dd - c) / 2)  # v.v = c
    coords = st.lists(fraction_entries_5, min_size=dim + 2, max_size=dim + 2)
    xs = [MukaiVector.from_coords(space, x) for x in draw(st.lists(coords, max_size=4))]
    if null is not None:
        e = [int(i == null + 1) for i in range(dim + 2)]
        xs += [MukaiVector.from_coords(space, e) * draw(fraction_entries_5)
               for _ in range(draw(st.integers(0, 2)))]
    return v, draw(st.permutations(xs))


@given(rational_spans())
def test_integer_path_forms_and_gram_inverse_in_rational_spaces(span):
    # a vector built from an integer form carries it as its cached form; a
    # wrongly seeded form would break == of forms without any error
    v, xs = span
    ys = nondegenerate_reduction(v, xs)
    assert fingerprint(v, ys) == fingerprint(v, xs)
    for y in ys:
        assert y._form == _integer_coeffs(y.coords)
    full = [v, *ys]
    iso = span_isometry(full, [-x for x in full])
    basis = list(iso.basis)
    assert [list(row) for row in iso.gram_inverse] == fraction_inverse(gram_matrix(basis))
    mixed = sum((F(k + 1, 2) * x for k, x in enumerate(full)), full[0] * 0)
    for x in [*full, mixed]:
        image = iso.apply(x)
        assert image == -x
        assert image._form == _integer_coeffs(image.coords)


# -- the cached integer form ------------------------------------------------------


@st.composite
def rational_vectors(draw):
    """A vector with rational coordinates in a random symmetric rational space."""
    dim = draw(st.integers(min_value=1, max_value=4))
    upper = {(i, j): draw(fraction_entries) for i in range(dim) for j in range(i, dim)}
    space = QuadraticSpace([[upper[min(i, j), max(i, j)] for j in range(dim)]
                            for i in range(dim)])
    coords = draw(st.lists(fraction_entries, min_size=dim + 2, max_size=dim + 2))
    return MukaiVector.from_coords(space, coords)


@given(rational_vectors())
def test_cached_form_is_the_integer_form_of_the_coordinates(x):
    assert x._form == _integer_coeffs(x.coords)
    nums, den = x._form
    assert [F(a, den) for a in nums] == list(x.coords)


def test_cached_form_stays_out_of_eq_hash_and_repr():
    x = k3_vec(F(1, 2), F(-5, 3), c4=1, c7=F(2, 7))
    y = k3_vec(F(1, 2), F(-5, 3), c4=1, c7=F(2, 7))
    before = (repr(x), hash(x))
    assert x._form == ([21, 0, 0, 0, 0, 42, 0, 0, 12] + [0] * 14 + [-70], 42)
    assert "_form" in vars(x) and "_form" not in vars(y)
    assert (repr(x), hash(x)) == before == (repr(y), hash(y))
    assert x == y and y == x


@given(st.integers(min_value=1, max_value=4).flatmap(lambda k: st.tuples(
    st.lists(fraction_entries, min_size=k, max_size=k),
    st.lists(st.lists(fraction_entries, min_size=5, max_size=5), min_size=k, max_size=k),
)))
def test_combine_form_gives_the_fraction_combination(data):
    coeffs, rows = data
    expected = [sum((c * row[i] for c, row in zip(coeffs, rows)), F(0)) for i in range(5)]
    forms = [_integer_coeffs(r) for r in rows]
    assert _combine_nums(*_integer_coeffs(coeffs), forms, 5) == _integer_coeffs(expected)


# -- JSON ------------------------------------------------------------------------


def test_json_round_trip_k3():
    v = k3_vec(2, F(-5, 3), c4=1, c7=-2)
    encoded = mukai_vector_to_json(v)
    assert encoded["space"] == "k3"
    assert encoded["rank"] == "2"
    assert encoded["v2"] == "-5/3"
    assert mukai_vector_from_json(encoded) == v


def test_json_round_trip_generic_space():
    v = mv(U, F(1, 2), (3, F(-2, 7)), 4)
    encoded = mukai_vector_to_json(v)
    assert encoded["space"] == {"gram": [["0", "1"], ["1", "0"]]}
    assert mukai_vector_from_json(encoded) == v


def test_fingerprint_matrix_type():
    fp = FingerprintMatrix(((2, 0), (0, 0)))
    assert fp.matrix[0][0] == 2
