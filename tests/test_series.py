from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lagrange_coefficient, naive_compose
from k3mukai.series import (
    BasePointNotOne,
    ConstantTermNotZero,
    DivisionByNonUnit,
    InnerSeriesNotNilpotent,
    NotReversible,
    OrderExceeded,
    TruncatedSeries,
    constant,
    identity,
)

F = Fraction


def S(*coeffs):
    return TruncatedSeries(coeffs)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series_strategy(order, constant_term=None):
    tail = st.lists(small_fractions, min_size=order, max_size=order)
    if constant_term is None:
        return st.tuples(small_fractions, tail).map(
            lambda p: TruncatedSeries([p[0], *p[1]])
        )
    return tail.map(lambda cs: TruncatedSeries([constant_term, *cs]))


# -- add / mul / div -----------------------------------------------------


def test_add_cancellation():
    assert S(1, 1) + S(1, -1) == S(2, 0)


def test_add_identity():
    f = S(3, -2, F(1, 5))
    assert constant(0, 2) + f == f


def test_add_simple():
    assert S(1, 1) + S(0, 1) == S(1, 2)


def test_add_scalar():
    assert S(1, 2) + 5 == S(6, 2)
    assert 5 + S(1, 2) == S(6, 2)


def test_mul_difference_of_squares():
    assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)


def test_mul_one_is_identity():
    f = S(2, -3, F(7, 2), 1)
    assert f * constant(1, 3) == f


def test_mul_square():
    assert S(1, 1, 0, 0) * S(1, 1, 0, 0) == S(1, 2, 1, 0)


@given(series_strategy(6), st.integers(min_value=3, max_value=8).flatmap(series_strategy))
def test_mul_matches_fraction_convolution(f, g):
    # the plain Fraction double loop is the reference for the integer product
    n = min(f.order, g.order)
    expected = [
        sum((f.coeffs[i] * g.coeffs[k - i] for i in range(k + 1)), F(0)) for k in range(n + 1)
    ]
    product = f * g
    assert list(product.coeffs) == expected
    assert all(type(c) is Fraction for c in product.coeffs)


def test_min_order_semantics():
    f = S(1, 2, 3, 4)
    g = S(1, 1)
    assert (f + g).order == 1
    assert (f * g).order == 1
    assert (f / g).order == 1


def test_div_geometric():
    assert identity(3) / S(1, -1, 0, 0) == S(0, 1, 1, 1)


def test_div_self():
    f = S(3, 1, -2)
    assert f / f == constant(1, 2)


def test_div_frozen_example():
    # 1/(1+2t) = 1 - 2t + 4t^2 - ...; checked by multiplying back
    h = constant(1, 2) / S(1, 2, 0)
    assert h == S(1, -2, 4)
    assert h * S(1, 2, 0) == constant(1, 2)


def test_div_by_nonunit_raises():
    with pytest.raises(DivisionByNonUnit):
        S(1, 0) / S(0, 1)


@given(series_strategy(5), series_strategy(5, constant_term=F(1)))
def test_div_is_exact_inverse_of_mul(f, g):
    assert (f / g) * g == f


# -- pow / exp / log -----------------------------------------------------


def test_pow_zero_exponent():
    assert S(1, 1).pow_rational(0) == S(1, 0)


def test_pow_half_frozen():
    # (1+t)^(1/2) = 1 + t/2 - t^2/8; squaring gives back 1 + t
    r = S(1, 1, 0).pow_rational(F(1, 2))
    assert r == S(1, F(1, 2), F(-1, 8))
    assert r * r == S(1, 1, 0)


def test_pow_exponent_law_example():
    f = S(1, 2, 0, 0)
    assert f.pow_rational(F(-1, 2)) * f.pow_rational(F(1, 2)) == constant(1, 3)


def test_pow_base_not_one_raises():
    with pytest.raises(BasePointNotOne):
        S(2, 1).pow_rational(F(1, 2))


def test_integer_pow_matches_rational_path():
    f = S(1, 3, -1, F(2, 7), 0, 0)
    assert f**3 == f.pow_rational(3)
    assert f**-2 == f.pow_rational(-2)


def test_exp_zero():
    assert constant(0, 4).exp() == constant(1, 4)


def test_log_one():
    assert constant(1, 4).log() == constant(0, 4)


def test_exp_log_round_trip():
    f = S(1, 1, 0, 0, 0, 0)
    assert f.log().exp() == f


def test_exp_rejects_nonzero_constant():
    with pytest.raises(ConstantTermNotZero):
        S(1, 1).exp()


def test_log_rejects_non_one_constant():
    with pytest.raises(BasePointNotOne):
        S(0, 1).log()


@given(
    series_strategy(6, constant_term=F(1)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
@settings(max_examples=60)
def test_pow_exponent_laws(f, a, b):
    assert f.pow_rational(a) * f.pow_rational(b) == f.pow_rational(a + b)
    assert f.pow_rational(a).pow_rational(b) == f.pow_rational(a * b)


# -- compose -------------------------------------------------------------


def test_compose_identity_substitution():
    f = S(2, -1, F(1, 3), 5)
    assert f.compose(identity(3)) == f


def test_compose_square_substitution():
    assert S(1, 1, 0, 0, 0).compose(S(0, 0, 1, 0, 0)) == S(1, 0, 1, 0, 0)


def test_compose_frozen_double_expansion():
    # 1/(1-t) composed with t/(1-t) is (1-t)/(1-2t) = 1 + t + 2t^2 + 4t^3
    f = constant(1, 3) / S(1, -1, 0, 0)
    g = identity(3) / S(1, -1, 0, 0)
    assert f.compose(g) == S(1, 1, 2, 4)


def test_compose_rejects_unit_inner():
    with pytest.raises(InnerSeriesNotNilpotent):
        S(1, 1).compose(S(1, 1))


@given(series_strategy(6), series_strategy(6, constant_term=F(0)))
@settings(max_examples=60)
def test_compose_matches_naive_expansion(f, g):
    assert f.compose(g) == naive_compose(f, g)


# -- revert --------------------------------------------------------------


def test_revert_identity():
    assert identity(5).revert() == identity(5)


def test_revert_geometric():
    # inverse of t/(1-t) is t/(1+t) = t - t^2 + t^3 - ...
    g = identity(5) / S(1, -1, 0, 0, 0, 0)
    assert g.revert() == S(0, 1, -1, 1, -1, 1)


def test_revert_frozen_cubic():
    # inverse of t(1+t) is t - t^2 + 2t^3 + ...
    h = S(0, 1, 1, 0).revert()
    assert h == S(0, 1, -1, 2)
    assert S(0, 1, 1, 0).compose(h) == identity(3)


def test_revert_preconditions():
    with pytest.raises(NotReversible):
        S(1, 1).revert()
    with pytest.raises(NotReversible):
        S(0, 0, 1).revert()
    with pytest.raises(NotReversible):
        S(0).revert()


def test_revert_nonmonic_leading_coefficient():
    g = S(0, 2, 1, 0, 0)
    h = g.revert()
    assert g.compose(h) == identity(4)
    assert h.compose(g) == identity(4)


@given(series_strategy(7, constant_term=F(0)).filter(lambda g: g.coeffs[1] != 0))
@settings(max_examples=50)
def test_revert_round_trip(g):
    h = g.revert()
    assert g.compose(h) == identity(g.order)
    assert h.compose(g) == identity(g.order)


@given(
    st.lists(small_fractions, min_size=6, max_size=6),
    series_strategy(7),
    st.integers(min_value=1, max_value=7),
)
@settings(max_examples=50)
def test_lagrange_buermann_cross_check(tail, h, n):
    z = TruncatedSeries([0, 1, *tail])
    via_newton = h.compose(z.revert()).coeff(n)
    assert via_newton == lagrange_coefficient(h, z, n)


# -- coeff / equality / misc ----------------------------------------------


def test_coeff_examples():
    f = S(1, 1)
    assert f.coeff(0) == 1
    assert f.coeff(1) == 1


def test_coeff_binomial():
    # (1-w)^(-3): coefficient of w^2 is C(4, 2) = 6
    f = S(1, -1, 0, 0).pow_rational(-3)
    assert f.coeff(2) == 6


def test_coeff_order_exceeded():
    with pytest.raises(OrderExceeded):
        S(1, 1).coeff(2)
    with pytest.raises(ValueError):
        S(1, 1).coeff(-1)


def test_equality_up_to_common_order():
    assert S(1, 2, 3) == S(1, 2)
    assert S(1, 2, 3) != S(1, 1)


def test_truncate_never_extends():
    f = S(1, 2, 3)
    assert f.truncate(1) == S(1, 2)
    with pytest.raises(OrderExceeded):
        f.truncate(5)


def test_derivative_and_integral():
    f = S(5, 1, 3)
    assert f.derivative() == S(1, 6)
    assert f.integral() == S(0, 5, F(1, 2), 1)
