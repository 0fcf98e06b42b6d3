import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_golden
from helpers import (
    binomial_convolution,
    correspondence_by_composition,
    correspondence_sides,
    fg_by_powers,
    lagrange_buermann,
    lagrange_coefficient,
    segre_by_reversion,
    segre_table,
    segre_z_of_t,
    verlinde_by_reversion,
    vwx_by_powers,
)
from k3mukai import segre_verlinde
from k3mukai.lattice import MukaiVector, k3_lattice, mukai_pairing
from k3mukai.series import OrderExceeded, TruncatedSeries, constant, identity
from k3mukai.segre_verlinde import (
    CorrespondenceReport,
    SegreParams,
    VerlindeParams,
    _binomials,
    _first_mismatch,
    _merged,
    _series,
    build_fg,
    build_vwx,
    check_correspondence,
    segre_number,
    segre_variable_change,
    verlinde_number,
)

F = Fraction


# -- the Segre factor series ------------------------------------------------


def test_vwx_rho1_s1():
    v, w, x = build_vwx(1, 1, 6)
    assert v == TruncatedSeries([1, 1, 0, 0, 0, 0, 0])
    assert w == constant(1, 6)
    assert x == constant(1, 6)


def test_vwx_rho1_s0_x_collapses():
    _, _, x = build_vwx(1, 0, 8)
    assert x == constant(1, 8)


def test_vwx_rho2_s2():
    v, w, x = build_vwx(2, 2, 5)
    assert v == TruncatedSeries([1, 2, 1, 0, 0, 0])
    assert v.coeff(1) == 2


@pytest.mark.parametrize("rho", [1, 2, 3])
@pytest.mark.parametrize("s", [-1, 0, 1, 2, F(1, 2)])
def test_vwx_unit_constant_terms(rho, s):
    for series in build_vwx(rho, s, 4):
        assert series.constant == 1


def test_vwx_degree_one_coefficient_of_v_is_rho():
    # V = 1 + rho*t + ..., uniformly in s
    for rho in range(1, 5):
        for s in range(-2, 5):
            v, _, _ = build_vwx(rho, s, 3)
            assert v.coeff(1) == rho


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_builders_equal_paper_form_where_bases_coincide(rho):
    # s = 0 merges ab with b, s = rho drops a = 0, s = 2 rho drops b = ab = 0;
    # r = 0 drops q = 0 and r = +-rho merges the bases 1 and q
    order = 7
    for s in (0, rho, 2 * rho, F(5, 3)):
        assert build_vwx(rho, s, order) == vwx_by_powers(rho, s, order), s
        assert segre_variable_change(rho, s, order) == segre_z_of_t(rho, s, order).revert()
    for r in (0, rho, -rho, 1):
        assert build_fg(rho, r, order) == fg_by_powers(rho, r, order), r


# -- the Segre variable change -----------------------------------------------


def test_variable_change_rho1_s1_is_identity():
    assert segre_variable_change(1, 1, 6) == identity(6)


def test_variable_change_rho1_s2_geometric():
    # z = t/(1-t), so t = z/(1+z)
    t_of_z = segre_variable_change(1, 2, 6)
    assert t_of_z == identity(6) / TruncatedSeries([1, 1, 0, 0, 0, 0, 0])


def test_variable_change_round_trip_generic():
    rho, s, order = 2, 3, 10
    z_of_t = segre_z_of_t(rho, s, order)
    t_of_z = segre_variable_change(rho, s, order)
    assert z_of_t.compose(t_of_z) == identity(order)
    assert t_of_z.compose(z_of_t) == identity(order)


# -- Segre numbers -------------------------------------------------------------


def test_segre_number_binomial_case():
    # rho=1, s=1: the product is (1+t)^c2 and z = t
    assert segre_number(SegreParams(1, 1, 3, 0, 2)) == 3
    for c2 in range(-3, 7):
        for n in range(0, 5):
            assert segre_number(SegreParams(1, 1, c2, 0, n)) == comb_any(c2, n)


def comb_any(a, n):
    # binomial coefficient with possibly negative upper index
    out = F(1)
    for k in range(n):
        out *= F(a - k, k + 1)
    return out


def test_segre_number_trivial_class_vanishes():
    for rho in (1, 2, 3):
        for n in range(1, 6):
            assert segre_number(SegreParams(rho, 0, 0, 0, n)) == 0


def test_segre_number_rho1_s2_frozen():
    # product composes to (1+z)^c2, so the answer is C(c2, n)
    assert segre_number(SegreParams(1, 2, 5, 7, 3)) == comb(5, 3)


def test_segre_number_n0_is_one():
    assert segre_number(SegreParams(3, 2, 4, 2, 0)) == 1


def test_segre_number_rational_s():
    value = segre_number(SegreParams(2, F(1, 2), 1, 0, 1))
    assert isinstance(value, Fraction)


def test_segre_oracle_working_order_independent():
    # the reversion oracle needs order >= n and then gives one value at
    # every working order, the value segre_number computes with none
    params = SegreParams(3, F(5, 3), 3, -1, 6)
    with pytest.raises(OrderExceeded):
        segre_by_reversion(params, order=5)
    expected = segre_number(params)
    for order in (6, 7, 10, 15):
        assert segre_by_reversion(params, order) == expected


@pytest.mark.parametrize("rho,s", [(1, 1), (2, 2), (2, 4), (3, 3), (3, 1), (2, F(1, 2))])
def test_segre_number_x_square_two_substitution_paths(rho, s):
    # with c2 = c1sq = 0 the integrand is X^2; production must agree with
    # the revert/compose route at order n and n + 4, and with the
    # derivative form of the Lagrange coefficient formula
    order = 8
    z_of_t = segre_z_of_t(rho, s, order)
    _, _, x = vwx_by_powers(rho, s, order)
    x_sq = x.pow_rational(2)
    for n in range(1, order + 1):
        params = SegreParams(rho, s, 0, 0, n)
        value = segre_number(params)
        assert value == segre_by_reversion(params, n)
        assert value == segre_by_reversion(params, n + 4)
        assert value == lagrange_coefficient(x_sq, z_of_t, n)


# -- Verlinde series -------------------------------------------------------------


def test_fg_rho1_r0():
    f, g, w = build_fg(1, 0, 6)
    assert f == constant(1, 6)
    assert g == identity(6) + 1
    assert w == identity(6) / TruncatedSeries([1, 1] + [0] * 5)


def test_fg_rho_equals_r():
    for rho in (1, 2, 3):
        f, _, w = build_fg(rho, rho, 5)
        assert f == constant(1, 5)
        assert w == identity(5)


@pytest.mark.parametrize("rho,r", [(1, 0), (2, 1), (3, -2), (4, 3)])
def test_fg_unit_normalisations(rho, r):
    f, g, w = build_fg(rho, r, 5)
    assert f.constant == 1
    assert g.constant == 1
    assert w.coeff(0) == 0 and w.coeff(1) == 1


def test_verlinde_number_geometric_case():
    # rho=1, r=0: G^c F in w is (1-w)^(-c)
    assert verlinde_number(VerlindeParams(1, 0, 3, 2)) == 6
    for c in range(0, 6):
        for n in range(0, 4):
            assert verlinde_number(VerlindeParams(1, 0, c, n)) == comb_any(c + n - 1, n)


def test_verlinde_number_binomial_case():
    # rho = r: F = 1 and w = nu, so the answer is C(chiL, n)
    assert verlinde_number(VerlindeParams(2, 2, 4, 2)) == 6
    assert verlinde_number(VerlindeParams(3, 3, 5, 4)) == comb(5, 4)


def test_verlinde_number_constant_term():
    for rho in (1, 2, 3):
        for r in (-2, 0, 1):
            assert verlinde_number(VerlindeParams(rho, r, 4, 0)) == 1


def test_verlinde_number_even_in_r():
    for rho in (2, 3):
        for r in (1, 2):
            for n in (1, 2, 3):
                assert verlinde_number(VerlindeParams(rho, r, 3, n)) == verlinde_number(
                    VerlindeParams(rho, -r, 3, n)
                )


def test_verlinde_oracle_working_order_independent():
    params = VerlindeParams(3, -2, 4, 5)
    with pytest.raises(OrderExceeded):
        verlinde_by_reversion(params, order=4)
    expected = verlinde_number(params)
    for order in (5, 6, 9, 14):
        assert verlinde_by_reversion(params, order) == expected


@pytest.mark.parametrize("rho,r,chiL", [(2, 1, 3), (3, -2, -1), (4, 3, 0), (2, 2, 5), (3, 0, 2)])
def test_verlinde_number_against_lagrange_route(rho, r, chiL):
    # production must agree with reverting w(nu) at order n and n + 4, and
    # with the derivative form of the Lagrange formula on G^chiL * F
    order = 8
    f, g, w_of_nu = fg_by_powers(rho, r, order)
    series_in_nu = g.pow_rational(chiL) * f
    for n in range(1, order + 1):
        params = VerlindeParams(rho, r, chiL, n)
        value = verlinde_number(params)
        assert value == verlinde_by_reversion(params, n)
        assert value == verlinde_by_reversion(params, n + 4)
        assert value == lagrange_coefficient(series_in_nu, w_of_nu, n)


@st.composite
def _edge_case_point(draw):
    rho = draw(st.integers(min_value=1, max_value=6))
    s = draw(st.one_of(
        st.fractions(min_value=-6, max_value=12, max_denominator=4),
        st.sampled_from([F(rho), F(2 * rho)]),  # a = 0 and a = -1
    ))
    r = draw(st.one_of(st.integers(-9, 9), st.sampled_from([0, rho, -rho])))  # q = 0, 1
    n = draw(st.integers(min_value=0, max_value=9))
    return rho, s, r, n


@given(
    _edge_case_point(),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(0, 4),
)
@settings(max_examples=40)
def test_numbers_match_reversion_oracle_property(point, e1, e2, guard):
    rho, s, r, n = point
    segre = SegreParams(rho, s, e1, e2, n)
    assert segre_number(segre) == segre_by_reversion(segre, n + guard)
    verlinde = VerlindeParams(rho, r, e1, n)
    assert verlinde_number(verlinde) == verlinde_by_reversion(verlinde, n + guard)


# -- the binomial sums and their inputs -----------------------------------------------

_rationals = st.one_of(
    st.sampled_from([0, -1, -2, -5]),
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


@given(_rationals, _rationals, st.integers(min_value=0, max_value=10))
@settings(max_examples=60)
def test_binomials_match_the_engines_rational_power(c, e, n):
    # exp(e log(1 + ct)) is a route independent of the ratio loop
    expected = TruncatedSeries(([1, c] + [0] * n)[: n + 1]).pow_rational(e)
    assert _binomials(c, e, n) == list(expected.coeffs)


_bases = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
# non-negative integer exponents below n make the tail of a binomial vanish
_exponents = st.one_of(_rationals, st.integers(0, 60))


@given(
    st.integers(0, 60), _bases, _exponents, _bases, _exponents,
    st.booleans(), _bases, _rationals,
)
@settings(max_examples=150)
def test_lagrange_buermann_matches_the_binomial_convolution(n, a, e_a, b, e_b, same, c, e):
    # a zero base or exponent leaves one base or none, and same=True merges
    # the two into one; the change's factor (1+ct)^(-en-1) (1+c(1+e)t) is
    # cancelled in the integrand, so [z^n] is [t^n] of the two bases
    if same:
        b = a
    cancel = [(c, e * n + 1), (c * (1 + e), -1)]
    value = lagrange_buermann([(1, [(a, e_a), (b, e_b)]), (1, cancel)], (c, e), n)
    assert value == binomial_convolution(a, e_a, b, e_b, n)


def test_numbers_at_large_n_keep_their_time_budget():
    # on a 2-core x86 box with Python 3.11 the pair took 8-15 ms by the
    # integer recurrence and 0.24-0.32 s by a convolution of Fraction terms;
    # the best of three runs damps a loaded host
    def seconds():
        start = time.perf_counter()
        segre_number(SegreParams(2, 3, 2, 4, 2000))
        verlinde_number(VerlindeParams(3, 2, 5, 2000))
        return time.perf_counter() - start

    best = min(seconds() for _ in range(3))
    assert best < 0.12, f"segre and verlinde at n = 2000 took {best:.3f}s, budget 0.12s"


def test_lagrange_buermann_refuses_a_third_base():
    # the recurrence would drop the third base and give a wrong number
    with pytest.raises(ValueError, match="3 bases"):
        lagrange_buermann([(1, [(2, F(1, 2)), (3, -1)])], (1, 1), 4)


@pytest.mark.parametrize("call", [
    lambda: segre_number(SegreParams(rho=2.5, s=1, c2=1, c1sq=0, n=2)),
    lambda: segre_number(SegreParams(rho=2, s=1, c2=1.5, c1sq=0, n=2)),
    lambda: verlinde_number(VerlindeParams(rho=2, r=1, chiL=0.5, n=2)),
    lambda: segre_number(SegreParams(rho=True, s=1, c2=1, c1sq=0, n=2)),
    lambda: segre_number(SegreParams(rho=2, s="1e999999999", c2=1, c1sq=0, n=2)),
    lambda: check_correspondence(True, 1, 8),
    lambda: check_correspondence(2, 1, 8.0),
    lambda: check_correspondence(2, 1, True),
    lambda: check_correspondence(2, True, 8),
    lambda: check_correspondence(2.0, 1, 8),
    lambda: check_correspondence(2, 1.5, 8),
], ids=["float-rho", "float-c2", "float-chiL", "bool-rho", "str-s", "check-sv-bool-rho",
        "check-sv-float-order", "check-sv-bool-order", "check-sv-bool-r", "check-sv-float-rho",
        "check-sv-float-r"])
def test_numbers_refuse_inexact_input(call):
    with pytest.raises(TypeError, match="must be an integer|expected an int") as info:
        call()
    assert "\n" not in str(info.value)


# -- the correspondence -----------------------------------------------------------


def test_correspondence_rho1_r0():
    report = check_correspondence(1, 0, 10)
    assert report.g_identity_holds and report.f_identity_holds
    assert report.first_discrepant_order is None


def test_correspondence_rho2_r1():
    report = check_correspondence(2, 1, 12)
    assert report.g_identity_holds and report.f_identity_holds


@pytest.mark.parametrize("rho,r", [(3, 2), (4, -3), (2, -2), (1, -3)])
def test_correspondence_spot_checks(rho, r):
    report = check_correspondence(rho, r, 9)
    assert report.g_identity_holds and report.f_identity_holds


def test_correspondence_negative_control():
    report = check_correspondence(2, 1, 12, f_exponent_offset=1)
    assert report.g_identity_holds
    assert not report.f_identity_holds
    assert report.first_discrepant_order == 1


def test_correspondence_deeper_order_spot_check():
    for rho, r, order in ((3, 2, 24), (4, -3, 24), (3, 2, 200), (4, -3, 200), (3, 2, 10**6)):
        report = check_correspondence(rho, r, order)
        assert report.g_identity_holds and report.f_identity_holds
    for order in (200, 10**6):
        control = check_correspondence(3, 2, order, f_exponent_offset=F(1, 7))
        assert control == CorrespondenceReport(3, 2, order, True, False, 1)
    # every quotient has at most three bases, so order 3 decides every order
    for rho in range(1, 9):
        for r in range(-12, 13):
            for offset in (0, F(1, 7), 1, F(-3, 2)):
                report = check_correspondence(rho, r, 3, f_exponent_offset=offset)
                deep = check_correspondence(rho, r, 10**6, f_exponent_offset=offset)
                assert replace(report, order=10**6) == deep, (rho, r, offset)


def _planted_maps(rho, r, rng):
    """Weighted maps on the bases a, b, ab of the check at (rho, r): random
    ones, and, where the three bases are distinct and nonzero, maps whose
    power sums vanish at k = 1 and at k = 1, 2, each split over several
    weighted factors with a zero base so that the merge is exercised too."""
    a = F(-r, rho)
    b = 1 + a
    ab = a * b

    def exponent():
        return F(rng.randint(-9, 9), rng.randint(1, 6))

    maps = [[], [(1, [(0, exponent())])]]
    for _ in range(6):
        maps.append([(1, [(c, exponent()) for c in (a, b, ab)])])
    if len({0, a, b, ab}) == 4:
        e_b, e_ab = exponent() or 1, exponent() or 1
        maps.append([(1, [(a, -(e_b * b + e_ab * ab) / a), (b, e_b)]), (1, [(ab, e_ab)])])
        # solve e_a a^k + e_b b^k = -e_ab ab^k for k = 1, 2 by Cramer's rule
        det = a * b * (b - a)
        e_a = -e_ab * ab * b * (b - ab) / det
        e_b = -e_ab * a * ab * (ab - a) / det
        maps.append([(2, [(a, e_a / 2), (0, 3)]), (-1, [(b, -e_b), (ab, -e_ab / 2)]),
                     (F(1, 2), [(ab, e_ab)])])
    return maps


@pytest.mark.parametrize("rho,r", [(1, 2), (2, 1), (3, -2), (4, 3), (5, -7), (2, 0), (2, 2),
                                   (2, -2), (7, 12)])
def test_first_mismatch_reads_power_sums_past_the_first(rho, r):
    # the power sums against the first nonzero t^k, k >= 1, of the expansion
    # of the same map, at orders below and above the first mismatch
    rng = random.Random(1000 * rho + r)
    firsts = []
    for weighted in _planted_maps(rho, r, rng):
        expansion = _series(weighted, 9).coeffs
        first = next((k for k in range(1, 10) if expansion[k]), None)
        firsts.append(first)
        for order in range(1, 10):
            expected = first if first is not None and first <= order else None
            assert _first_mismatch(weighted, order) == expected, (weighted, order)
    assert firsts[:2] == [None, None]
    if r not in (0, rho, -rho):
        assert firsts[-2:] == [2, 3]


def test_verlinde_numbers_are_segre_numbers_at_rank_one():
    # at s = 1 + r the map identities make the two Lagrange-Buermann
    # integrands equal: [w^n] G^chi F is the Segre number at
    # c2 = chi + (r-1)(1-n) and c1sq = 2 chi - 4 - 2r
    for r, chi, n in itertools.product(range(-8, 9), range(-6, 9), range(13)):
        segre = SegreParams(1, 1 + r, chi + (r - 1) * (1 - n), 2 * chi - 4 - 2 * r, n)
        assert verlinde_number(VerlindeParams(1, r, chi, n)) == segre_number(segre), (r, chi, n)


@pytest.mark.parametrize("rho", [1, 2, 3, 4, 5])
def test_verlinde_numbers_are_segre_numbers_at_r_over_rho(rho):
    # at rank rho the same map holds at r' = r/rho, where c2 and c1sq are
    # rational, so the Segre side is the rank-one integrand itself
    for r, chi, n in itertools.product(range(-4, 5), range(-6, 9), range(11)):
        r_one = F(r, rho)
        v, w, x, change = segre_table(1 + r_one)
        c2, c1sq = chi + (r_one - 1) * (1 - n), 2 * chi - 4 - 2 * r_one
        segre = lagrange_buermann([(c2, v), (c1sq, w), (2, x)], change, n)
        assert verlinde_number(VerlindeParams(rho, r, chi, n)) == segre, (r, chi, n)


@settings(max_examples=300)
@given(st.integers(1, 6), st.integers(-20, 20), st.integers(-30, 30), st.integers(40, 150))
def test_verlinde_numbers_at_large_n_through_the_mukai_lattice(rho, r, chi, n):
    """The Riemann-Roch form of K3^[n]-type (Ellingsrud-Goettsche-Lehn),
    chi = binom(q/2 + n + 1, n), with q read as the Mukai pairing on v^perp:
    v = (rho, 0, (1-n)/rho) and w = (0, L, 0) + r (1, 0, (n-1)/rho^2), with L
    = (1, chi - 2) in the first hyperbolic plane, so L^2 = 2 chi - 4.  The
    same number is the Segre number at s' = 1 + r/rho, c2 = chi + (r'-1)(1-n)
    and c1sq = 2 chi - 4 - 2r'."""
    K3 = k3_lattice()
    L = (1, chi - 2) + (0,) * 20
    v = MukaiVector(K3, rho, (0,) * 22, F(1 - n, rho))
    w = MukaiVector(K3, 0, L, 0) + r * MukaiVector(K3, 1, (0,) * 22, F(n - 1, rho**2))
    assert mukai_pairing(v, w) == 0
    verlinde = verlinde_number(VerlindeParams(rho, r, chi, n))
    assert verlinde == comb_any(mukai_pairing(w, w) / 2 + n + 1, n)
    r_one = F(r, rho)
    sv, sw, sx, change = segre_table(1 + r_one)
    c2, c1sq = chi + (r_one - 1) * (1 - n), 2 * chi - 4 - 2 * r_one
    assert verlinde == lagrange_buermann([(c2, sv), (c1sq, sw), (2, sx)], change, n)


@pytest.mark.parametrize("rho", [1, 2, 3, 4])
def test_correspondence_matches_composition_oracle(rho):
    # the quotient of exponent maps against composition and rational powers
    for r in range(-4, 5):
        for order in (1, 12):
            for offset in (0, F(1, 7), 1):
                g, f = correspondence_by_composition(rho, r, order, offset)
                first = min((m for m in (g, f) if m is not None), default=None)
                expected = CorrespondenceReport(rho, r, order, g is None, f is None, first)
                assert check_correspondence(rho, r, order, f_exponent_offset=offset) == expected


def test_f_exponent_offset_enters_with_its_weight_rho(monkeypatch):
    # every nonzero offset fails first at order 1, so the report cannot tell
    # one weight of the offset from another; the first power sum
    # p_1 = sum e c of each merged quotient is [t^1] of LHS - RHS (as
    # RHS(0) = 1), which the composition route computes on its own
    p_1 = []
    real = segre_verlinde._first_mismatch

    def recording(quotient, order):
        # on the table's integers: bases over q^2 and exponents over 2 q^2,
        # r/rho = p/q, and the weights over the first one, that of F or G
        scale = 2 * quotient[0][0] * F(r, rho).denominator ** 4
        p_1.append(F(sum(e * c for c, e in segre_verlinde._merged(quotient).items()), scale))
        return real(quotient, order)

    monkeypatch.setattr(segre_verlinde, "_first_mismatch", recording)
    for rho in range(1, 5):
        for r in (-2, -1, 1, 2):
            for offset in (F(1, 7), F(-2, 3)):
                p_1.clear()
                check_correspondence(rho, r, 3, f_exponent_offset=offset)
                sides = correspondence_sides(rho, r, 1, offset)
                assert p_1 == [lhs.coeff(1) - rhs.coeff(1) for lhs, rhs in sides], (rho, r)


def test_correspondence_rejects_bad_rho():
    with pytest.raises(ValueError):
        check_correspondence(0, 1, 5)


@pytest.mark.parametrize("call", [
    lambda: build_vwx(0, 1, 3), lambda: build_vwx(1, 1, -1),
    lambda: build_fg(0, 1, 3), lambda: build_fg(1, 1, 0),
    lambda: segre_variable_change(0, 1, 3), lambda: segre_variable_change(1, 2, 0),
    lambda: check_correspondence(1, 1, 0),
])
def test_builders_reject_bad_rho_and_order(call):
    with pytest.raises(ValueError, match="rho must|order must"):
        call()


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=3, max_value=8),
)
@settings(max_examples=25)
def test_correspondence_property(rho, r, order):
    report = check_correspondence(rho, r, order)
    assert report.g_identity_holds and report.f_identity_holds


def test_numbers_and_check_need_no_rational_powers_or_reversion(monkeypatch):
    # the production paths expand exponent maps; the engine is only the oracle
    def refuse(*args, **kwargs):
        raise AssertionError("the series engine was used on a production path")

    for name in ("pow_rational", "exp", "log", "revert", "compose", "__mul__", "__truediv__",
                 "__init__"):
        monkeypatch.setattr(TruncatedSeries, name, refuse)
    for (rho, s, c2, c1sq), row in test_golden.SEGRE.items():
        if rho == 3:
            for n, expected in zip(test_golden.NS, row):
                assert str(segre_number(SegreParams(rho, F(s), c2, c1sq, n))) == expected
    for (rho, r, chiL), row in test_golden.VERLINDE.items():
        if rho == 3:
            for n, expected in zip(test_golden.NS, row):
                assert str(verlinde_number(VerlindeParams(rho, r, chiL, n))) == expected
    assert check_correspondence(3, 2, 12) == CorrespondenceReport(3, 2, 12, True, True, None)
    control = check_correspondence(3, 2, 12, f_exponent_offset=F(1, 7))
    assert control == CorrespondenceReport(3, 2, 12, True, False, 1)


# -- the integer table ---------------------------------------------------------------
# numbers and checks run on the table's numerators over q^2 and 2 q^2, s' = p/q;
# these compare them with the series engine and with Fraction power sums where
# bases vanish (s' = 1: a = 0; s' = 2: b = 0) or merge (s' = 0: ab = b), at
# denominators 2 and 3, and at a large q (rho = 97)

_TABLE_RANKS = [*range(1, 8), 97]


def _table_points(rho):
    """Ranks s with s' = s/rho in {0, 1, 2}, with denominators 2 and 3, and generic."""
    return sorted({0, rho, 2 * rho, F(1, 2), F(-3, 2), F(7, 3), F(-2, 3), 5, -3})


@pytest.mark.parametrize("rho", _TABLE_RANKS)
def test_integer_table_numbers_match_the_series_engine(rho):
    # one reversion and composition per integrand gives every [z^n], n <= 5
    order = 5
    t_of_z = {}
    for s in _table_points(rho):
        t_of_z[s] = segre_z_of_t(rho, s, order).revert()
        v, w, x = vwx_by_powers(rho, s, order)
        for c2, c1sq in ((2, 4), (-3, -2), (0, 1)):
            product = v.pow_rational(c2) * w.pow_rational(c1sq) * x.pow_rational(2)
            expected = product.compose(t_of_z[s])
            for n in range(order + 1):
                value = segre_number(SegreParams(rho, s, c2, c1sq, n))
                assert value == expected.coeff(n), (rho, s, c2, c1sq, n)
    # r' = 0 and r'^2 = 1 leave one base of F; rho = 2, 3, 97 give q = 2, 3, 97
    for r in sorted({0, 1, -1, rho, -rho, 2 * rho + 1, 5}):
        f, g, w_of_nu = fg_by_powers(rho, r, order)
        nu_of_w = w_of_nu.revert()
        for chiL in (-2, 0, 3):
            expected = (g.pow_rational(chiL) * f).compose(nu_of_w)
            for n in range(order + 1):
                value = verlinde_number(VerlindeParams(rho, r, chiL, n))
                assert value == expected.coeff(n), (rho, r, chiL, n)


def _fraction_quotients(rho, r, offset):
    """The (G, F) quotients of the check as Fraction maps, written out from
    the module docstring's formulas at s = 1 + r', not from the integer table."""
    r_one = F(r, rho)
    a = -r_one
    b = 1 + a
    v = [(a, -r_one), (b, 1 + r_one)]
    w = [(a, (r_one - 1) / 2), (b, -r_one / 2)]
    x = [(a, (r_one * r_one - 1) / 2), (b, -r_one * (r_one + 2) / 2), (a * b, F(-1, 2))]
    k = r_one * r_one
    f, g = [(1, k), (k, -1)], [(1, 1)]
    f_t, g_t = ([p for c, e in m for p in ((a + c, e), (a, -e))] for m in (f, g))
    return ([(1, g_t), (-1, v), (-2, w)],
            [(1, f_t), (-rho * offset, v), (4 * (1 + r_one), w), (-2, x)])


@pytest.mark.parametrize("rho", _TABLE_RANKS)
def test_integer_check_matches_fraction_power_sums_and_the_engine(rho, monkeypatch):
    # the merged integer quotients, divided by their scales, are the Fraction
    # ones (the weight of W shows only in p_2, which no report reads), and
    # the Fraction power sums and the engine report the same first orders
    seen = []
    real = segre_verlinde._first_mismatch
    monkeypatch.setattr(segre_verlinde, "_first_mismatch",
                        lambda quotient, order: seen.append(quotient) or real(quotient, order))
    rng = random.Random(rho)
    for r in sorted({0, 1, -1, 2, -3, rho, -rho, 2 * rho, rho + 1}):
        scale = F(r, rho).denominator ** 2
        offsets = [0, F(1, 7), 1, F(rng.randint(-9, 9), rng.randint(1, 12)),
                   F(rng.randint(-99, 99), rng.randint(1, 99))]
        for offset in offsets:
            quotients = _fraction_quotients(rho, r, offset)
            for order in (1, 2, 3, 5):
                seen.clear()
                report = check_correspondence(rho, r, order, f_exponent_offset=offset)
                for ints, fractions in zip(seen, quotients, strict=True):
                    weight = 2 * scale * ints[0][0]
                    divided = {F(c, scale): F(e, weight) for c, e in _merged(ints).items()}
                    assert divided == _merged(fractions), (rho, r, offset)
                g, f = (real(quotient, order) for quotient in quotients)
                first = min((m for m in (g, f) if m is not None), default=None)
                expected = CorrespondenceReport(rho, r, order, g is None, f is None, first)
                assert report == expected, (rho, r, offset, order)
            assert (g, f) == correspondence_by_composition(rho, r, 5, offset), (rho, r, offset)


def test_rank_one_segre_numbers_of_realizable_data_are_integers():
    # integer s and c2 and even c1^2, as the even K3 lattice realizes them,
    # integrate c(alpha^[n]) of an integral class: 5670 points, no oracle
    points = list(itertools.product(range(-4, 6), range(-4, 5), range(-6, 7, 2), range(9)))
    assert len(points) == 5670
    for s, c2, c1sq, n in points:
        value = segre_number(SegreParams(1, s, c2, c1sq, n))
        assert value.denominator == 1, (s, c2, c1sq, n)
    # odd c1^2 is not realizable, and the numbers stop being integers
    odd = itertools.product(range(-4, 6), range(-4, 5), range(-5, 6, 2), range(9))
    assert any(segre_number(SegreParams(1, *point)).denominator != 1 for point in odd)
