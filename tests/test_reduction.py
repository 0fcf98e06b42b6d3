import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3mukai.lattice import MukaiVector, hyperbolic_plane, mukai_pairing
from k3mukai.reduction import (
    DimensionMismatch,
    KClassInvariants,
    ModuliData,
    ReductionTarget,
    c2_from_v2,
    dependence_pairings,
    dim2_evaluate,
    hilbert_pairings,
    moduli_data_from_json,
    reduce_to_hilbert,
    reduction_target_to_json,
    segre_cross_check,
)
from helpers import lagrange_buermann, segre_maps_at_rank, segre_table
from k3mukai.segre_verlinde import SegreParams, _merged, segre_number

F = Fraction


def alpha_of(rank, c1sq, c1L, v2):
    return KClassInvariants(rank, c1sq, c1L, v2)


# -- the reduction map -------------------------------------------------------


def test_reduce_worked_example():
    m = ModuliData(rho=2, n=3, alpha=alpha_of(2, 4, 5, 3), Lsq=6, u=1)
    t = reduce_to_hilbert(m)
    assert t.beta == alpha_of(1, 4, 5, 6)
    assert t.u_prime == 2
    assert t.n == 3
    assert t.Lsq == 6
    assert t.warnings == ()


def test_reduce_identity_at_rho_one():
    m = ModuliData(rho=1, n=4, alpha=alpha_of(3, -2, 1, 7), Lsq=F(1, 2), u=F(2, 3))
    t = reduce_to_hilbert(m)
    assert t.beta == m.alpha
    assert t.u_prime == m.u
    # reducing again through rho = 1 changes nothing
    m2 = ModuliData(rho=1, n=t.n, alpha=t.beta, Lsq=t.Lsq, u=t.u_prime)
    assert reduce_to_hilbert(m2).beta == t.beta


def test_reduce_non_integral_rank_warns():
    m = ModuliData(rho=3, n=2, alpha=alpha_of(2, 0, 0, 1), Lsq=0, u=0)
    t = reduce_to_hilbert(m)
    assert t.beta.rank == F(2, 3)
    assert any("not an integer" in w for w in t.warnings)


def test_reduce_odd_c1sq_warns():
    m = ModuliData(rho=2, n=2, alpha=alpha_of(2, 3, 0, 1), Lsq=0, u=0)
    t = reduce_to_hilbert(m)
    assert any("even" in w for w in t.warnings)


def test_moduli_data_rejects_rho_zero():
    with pytest.raises(ValueError):
        ModuliData(rho=0, n=1, alpha=alpha_of(1, 0, 0, 0), Lsq=0, u=0)


# -- pairing lists -------------------------------------------------------------


def test_dependence_pairings_worked_example():
    m = ModuliData(rho=2, n=3, alpha=alpha_of(2, 4, 5, 3), Lsq=6, u=1)
    p = dependence_pairings(m)
    assert p.alpha_v == -4
    assert p.alpha_p == -1
    assert p.alpha_alpha == -8
    assert p.L_pairs == (0, -5, 6)
    assert p.u_pairs == (-2, -2, 0)


def test_dependence_pairings_ideal_sheaf_consistency():
    for n in range(1, 6):
        m = ModuliData(rho=1, n=n, alpha=alpha_of(1, 0, 0, 1 - n), Lsq=0, u=0)
        assert dependence_pairings(m).alpha_v == 2 * n - 2


def test_dependence_pairings_zero_class():
    m = ModuliData(rho=2, n=2, alpha=alpha_of(0, 0, 0, 0), Lsq=7, u=0)
    p = dependence_pairings(m)
    assert p.alpha_v == p.alpha_p == p.alpha_alpha == 0
    assert p.L_pairs == (0, 0, 7)


def test_hilbert_pairings_examples():
    t = ReductionTarget(n=1, beta=alpha_of(1, 0, 0, 0), Lsq=0, u_prime=0)
    p = hilbert_pairings(t)
    assert p.alpha_v == 0
    assert p.alpha_p == -1
    assert p.alpha_alpha == 0

    zero = ReductionTarget(n=3, beta=alpha_of(0, 0, 0, 0), Lsq=0, u_prime=0)
    pz = hilbert_pairings(zero)
    assert pz.alpha_v == pz.alpha_p == pz.alpha_alpha == 0


def test_pairings_match_through_reduction_worked_example():
    m = ModuliData(rho=2, n=3, alpha=alpha_of(2, 4, 5, 3), Lsq=6, u=1)
    assert dependence_pairings(m) == hilbert_pairings(reduce_to_hilbert(m))


small_int = st.integers(min_value=-10, max_value=10)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
    small_int,
    st.integers(min_value=-5, max_value=5).map(lambda k: 2 * k),
    small_int,
    small_int,
    small_int,
    small_int,
)
def test_pairings_match_through_reduction(rho, n, rank, c1sq, c1L, v2, lsq, u):
    m = ModuliData(rho=rho, n=n, alpha=alpha_of(rank, c1sq, c1L, v2), Lsq=lsq, u=u)
    assert dependence_pairings(m) == hilbert_pairings(reduce_to_hilbert(m))


def test_alpha_alpha_matches_explicit_mukai_vector():
    # c1^2 - 2 rank v2 is the self-pairing of an explicit vector with the
    # same invariants; a hyperbolic-plane class (k, 1) has square 2k
    U = hyperbolic_plane()
    for rank in range(-2, 3):
        for k in range(-3, 4):
            for v2 in range(-2, 3):
                vec = MukaiVector(U, rank, (k, 1), v2)
                alpha = alpha_of(rank, 2 * k, 0, v2)
                m = ModuliData(rho=1, n=2, alpha=alpha, Lsq=0, u=0)
                assert dependence_pairings(m).alpha_alpha == mukai_pairing(vec, vec)


# -- the closed-form dimension-2 evaluation ---------------------------------------


def test_dim2_rank_term():
    m = ModuliData(rho=2, n=1, alpha=alpha_of(2, 0, 0, 0), Lsq=0, u=0)
    assert dim2_evaluate(m) == 1


def test_dim2_point_term():
    for rho in (1, 2, 5):
        m = ModuliData(rho=rho, n=1, alpha=alpha_of(0, 0, 0, 0), Lsq=0, u=1)
        assert dim2_evaluate(m) == rho


def test_dim2_formula_arithmetic():
    for v2 in range(-3, 4):
        m = ModuliData(rho=1, n=1, alpha=alpha_of(1, 2, 0, v2), Lsq=0, u=0)
        assert dim2_evaluate(m) == 2 - v2


def test_dim2_linear_in_u_with_slope_rho():
    alpha = alpha_of(2, 4, 1, -3)
    for rho in (1, 2, 3):
        values = [
            dim2_evaluate(ModuliData(rho=rho, n=1, alpha=alpha, Lsq=5, u=u))
            for u in (0, 1, 2)
        ]
        assert values[1] - values[0] == rho
        assert values[2] - values[1] == rho


def test_dim2_linear_in_lsq_with_slope_half():
    alpha = alpha_of(2, 4, 1, -3)
    values = [
        dim2_evaluate(ModuliData(rho=2, n=1, alpha=alpha, Lsq=lsq, u=1))
        for lsq in (0, 2, 4)
    ]
    assert values[1] - values[0] == 1
    assert values[2] - values[1] == 1


def test_dim2_rejects_higher_dimension():
    m = ModuliData(rho=1, n=2, alpha=alpha_of(1, 0, 0, 0), Lsq=0, u=0)
    with pytest.raises(DimensionMismatch):
        dim2_evaluate(m)


@pytest.mark.parametrize("call", [
    lambda: dim2_evaluate(ModuliData(rho=2.5, n=1, alpha=alpha_of(2, 0, 0, 2), Lsq=0, u=0)),
    lambda: dim2_evaluate(ModuliData(rho=True, n=1, alpha=alpha_of(2, 0, 0, 2), Lsq=0, u=0)),
    lambda: segre_cross_check(2, 1.5, 0, 0),
    lambda: segre_cross_check(2, "1e999999999", 0, 0),
], ids=["float-rho", "bool-rho", "float-s", "str-s"])
def test_moduli_inputs_refuse_inexact_values(call):
    with pytest.raises(TypeError, match="must be an integer|expected an int") as info:
        call()
    assert "\n" not in str(info.value)


# -- series vs closed form ----------------------------------------------------------


def test_cross_check_known_points():
    assert segre_cross_check(1, 1, 5, 0)
    assert segre_cross_check(2, 2, 0, 0)
    assert segre_cross_check(3, 1, 1, 2)


def test_cross_check_random_points():
    rng = random.Random(5)
    for _ in range(25):
        assert segre_cross_check(
            rng.randint(1, 4), rng.randint(1, 4), rng.randint(-5, 5), 2 * rng.randint(-5, 5)
        )


def test_segre_number_n1_agrees_with_closed_form_value():
    # rho=2, s=2, c2=0, c1sq=0: closed form gives 2/2 - 2*2 + 0 = -3
    assert dim2_evaluate(
        ModuliData(rho=2, n=1, alpha=alpha_of(2, 0, 0, 2), Lsq=0, u=0)
    ) == -3
    assert segre_number(SegreParams(2, 2, 0, 0, 1)) == -3
    # c1sq = 2: v2 = 2 + 1 - 0 = 3, so rank 1, v2' = 6 and c2' = 1 + 1 - 6 = -4
    assert dim2_evaluate(
        ModuliData(rho=2, n=1, alpha=alpha_of(2, 2, 0, 3), Lsq=0, u=0)
    ) == -4
    assert segre_number(SegreParams(2, 2, 0, 2, 1)) == -4


def test_segre_number_n1_equals_c2_at_rho_one():
    for s in range(1, 5):
        for c2 in range(-3, 4):
            assert segre_number(SegreParams(1, s, c2, 2, 1)) == c2


def _hilbert_point(rho, s, c2, c1sq):
    """(1, rk(beta), c2(beta), c1sq): the Hilbert-scheme point that
    reduce_to_hilbert assigns to the class of rank s with these exponents."""
    alpha = alpha_of(s, c1sq, 0, c2_from_v2(F(s), F(c1sq), F(c2)))
    beta = reduce_to_hilbert(ModuliData(rho=rho, n=1, alpha=alpha, Lsq=0, u=0)).beta
    return 1, beta.rank, c2_from_v2(beta.rank, beta.c1sq, beta.v2), c1sq


def _segre_integrand(maps, c2, c1sq):
    v, w, x, change = maps
    return [(c2, v), (c1sq, w), (2, x)], change


def test_reduction_preserves_the_segre_integrand_at_every_n():
    # the rank-rho table of the paper's form (tests/helpers.py), merged,
    # equals production's rank-one integrand at reduce_to_hilbert's point, so
    # the two give the same number at every n; segre_number, which finds
    # that point through the same _rank_one and c2_from_v2, must give that
    # number too
    thirds = [F(k, 3) for k in range(-9, 10)]
    for point in itertools.product(range(1, 6), thirds, range(-2, 3), range(-4, 5, 2)):
        rho, s, c2, c1sq = point
        _, s_beta, c2_beta, _ = _hilbert_point(*point)
        at_rank, change = _segre_integrand(segre_maps_at_rank(rho, s), c2, c1sq)
        at_one, change_one = _segre_integrand(segre_table(s_beta), c2_beta, c1sq)
        assert (_merged(at_one), change_one) == (_merged(at_rank), change), point
        expected = lagrange_buermann(at_rank, change, 2)
        assert segre_number(SegreParams(rho, s, c2, c1sq, 2)) == expected, point


@pytest.mark.parametrize("point", [
    (2, F(-8, 3), 1, 2), (2, F(-2, 3), 1, -2), (2, -2, -1, -2), (3, 3, -1, 4), (2, 4, 2, 2),
])
def test_reduction_preserves_segre_numbers_spot_check(point):
    rho, s, c2, c1sq = point
    one, s_beta, c2_beta, _ = _hilbert_point(*point)
    assert c2_beta.denominator == 1
    for n in range(2, 5):
        assert segre_number(SegreParams(one, s_beta, int(c2_beta), c1sq, n)) == segre_number(
            SegreParams(rho, s, c2, c1sq, n)
        )


# -- JSON -----------------------------------------------------------------------------


def test_moduli_data_json_round_trip():
    # a document as `reduce --input` and `dim2 --input` read it
    obj = {"rho": 2, "n": 3, "alpha": {"rank": "2", "c1sq": 4, "c1L": "5", "v2": "1/3"},
           "Lsq": "6", "u": "-2/7"}
    m = ModuliData(rho=2, n=3, alpha=alpha_of(2, 4, 5, F(1, 3)), Lsq=6, u=F(-2, 7))
    assert moduli_data_from_json(obj) == m


def test_reduction_target_json_round_trip():
    m = ModuliData(rho=3, n=2, alpha=alpha_of(2, 4, 5, 3), Lsq=6, u=1)
    t = reduce_to_hilbert(m)
    obj = reduction_target_to_json(t)
    assert obj["u_prime"] == "3"
    assert obj["warnings"]
