"""Exact truncated formal power series in one variable over the rationals.

A series is stored as its coefficients c_0, ..., c_N together with the
truncation order N, meaning the series is known modulo t^(N+1).  All
coefficients are `fractions.Fraction` and every operation is exact: there
is no rounding anywhere.  Operations on two series truncate the result to
the smaller of the two orders and never extend a series silently, so the
order always tells you exactly how many coefficients are trustworthy.

Compositional inversion is done by Newton iteration on composition.  The
Segre and Verlinde numbers and the correspondence check bypass this engine
(see segre_verlinde); in the tests, its reversion and composition routes
are their independent oracle.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Iterable


class SeriesError(ValueError):
    """A series operation was called outside its domain."""


class DivisionByNonUnit(SeriesError):
    """Division by a series whose constant term is zero."""


class BasePointNotOne(SeriesError):
    """log / rational powers need a series with constant term one."""


class ConstantTermNotZero(SeriesError):
    """exp needs a series with constant term zero."""


class InnerSeriesNotNilpotent(SeriesError):
    """Composition needs an inner series with constant term zero."""


class NotReversible(SeriesError):
    """Reversion needs g(0) = 0 and g'(0) != 0 at order >= 1."""


class OrderExceeded(SeriesError):
    """A coefficient beyond the truncation order was requested."""


def _frac(x) -> Fraction:
    """x as a Fraction; only a Fraction or an int (not a bool) is exact input."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an int or a Fraction, got {x!r}")
    return Fraction(x)


def _check_ints(**values) -> None:
    """Raise unless each named value is an int (not a bool)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an integer, got {value!r}")


# no exponent forms: Fraction("1e999999999") would build a billion-digit integer
_RATIONAL_TEXT = re.compile(r"\s*[-+]?(\d+(/\d+)?|\d*\.\d+)\s*")


def _parse_rational(text: str) -> Fraction:
    """An exact number from text such as "3", "-3/4" or "0.25"."""
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"not a rational number: {text!r}")
    return Fraction(text)


def _json_number(value, name: str, integer: bool = False) -> Fraction:
    """An exact number from JSON: an int (not a bool) or a rational string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{name} must be an integer or a rational string, got {value!r}")
    x = _parse_rational(value) if isinstance(value, str) else Fraction(value)
    if integer and x.denominator != 1:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return x


def _exact_text(x) -> str:
    """str(x) for an exact output value of any size.  Python caps the decimal
    digits of an int conversion (4300 by default) to guard parsing; the cap
    stays on every input and is lifted for this one conversion only."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(cap)


def _integer_coeffs(coeffs) -> tuple[list[int], int]:
    """Numerators over the least common denominator of `coeffs`."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


class TruncatedSeries:
    """An immutable truncated power series over the rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(_frac(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant term")
        self._coeffs = cs

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def constant(self) -> Fraction:
        return self._coeffs[0]

    def coeff(self, n: int) -> Fraction:
        """Coefficient of t^n; raises OrderExceeded past the truncation order."""
        if n < 0:
            raise ValueError(f"coefficient index must be non-negative, got {n}")
        if n > self.order:
            raise OrderExceeded(f"coefficient {n} requested from a series of order {self.order}")
        return self._coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients beyond `order`; extending is not allowed."""
        if order < 0:
            raise ValueError("order must be non-negative")
        if order > self.order:
            raise OrderExceeded(f"cannot extend a series of order {self.order} to order {order}")
        if order == self.order:
            return self
        return TruncatedSeries(self._coeffs[: order + 1])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return TruncatedSeries(
                [self._coeffs[k] + other._coeffs[k] for k in range(n + 1)]
            )
        if isinstance(other, (int, Fraction)):
            cs = list(self._coeffs)
            cs[0] += other
            return TruncatedSeries(cs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self._coeffs])

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return TruncatedSeries(
                [self._coeffs[k] - other._coeffs[k] for k in range(n + 1)]
            )
        if isinstance(other, (int, Fraction)):
            cs = list(self._coeffs)
            cs[0] -= other
            return TruncatedSeries(cs)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            # convolve integer numerators; normalise once per coefficient
            n = min(self.order, other.order)
            f, df = _integer_coeffs(self._coeffs[: n + 1])
            g, dg = _integer_coeffs(other._coeffs[: n + 1])
            out = [0] * (n + 1)
            for i, fi in enumerate(f):
                if fi:
                    for j in range(n + 1 - i):
                        out[i + j] += fi * g[j]
            d = df * dg
            return TruncatedSeries([Fraction(c, d) for c in out])
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            return TruncatedSeries([c / other for c in self._coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other.constant == 0:
            raise DivisionByNonUnit("cannot divide by a series with constant term zero")
        n = min(self.order, other.order)
        f, g = self._coeffs, other._coeffs
        g0 = g[0]
        out: list[Fraction] = []
        for m in range(n + 1):
            acc = f[m]
            for k in range(1, m + 1):
                gk = g[k]
                if gk != 0:
                    acc -= gk * out[m - k]
            out.append(acc / g0)
        return TruncatedSeries(out)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return constant(other, self.order) / self
        return NotImplemented

    def __pow__(self, exponent):
        """Integer powers of any series; rational exponents via pow_rational."""
        if isinstance(exponent, Fraction) and exponent.denominator == 1:
            exponent = int(exponent)
        if isinstance(exponent, int):
            if exponent < 0:
                return (constant(1, self.order) / self) ** (-exponent)
            result = constant(1, self.order)
            base = self
            e = exponent
            while e:
                if e & 1:
                    result = result * base
                e >>= 1
                if e:
                    base = base * base
            return result
        if isinstance(exponent, Fraction):
            return self.pow_rational(exponent)
        return NotImplemented

    # -- transcendental-style operations ------------------------------------

    def exp(self) -> "TruncatedSeries":
        """Formal exponential; requires constant term zero.

        Uses the recurrence n*y_n = sum_k k*f_k*y_(n-k) coming from y' = f'y.
        """
        if self.constant != 0:
            raise ConstantTermNotZero("exp needs a series with constant term zero")
        f = self._coeffs
        n = self.order
        out = [Fraction(1)] + [Fraction(0)] * n
        for m in range(1, n + 1):
            acc = Fraction(0)
            for k in range(1, m + 1):
                fk = f[k]
                if fk != 0:
                    acc += k * fk * out[m - k]
            out[m] = acc / m
        return TruncatedSeries(out)

    def log(self) -> "TruncatedSeries":
        """Formal logarithm; requires constant term one."""
        if self.constant != 1:
            raise BasePointNotOne("log needs a series with constant term one")
        return (self.derivative() / self).integral().truncate(self.order)

    def pow_rational(self, q) -> "TruncatedSeries":
        """f^q for rational q, computed as exp(q * log f); requires f(0) = 1."""
        if self.constant != 1:
            raise BasePointNotOne("rational powers need a series with constant term one")
        q = _frac(q)
        if q == 0:
            return constant(1, self.order)
        return (self.log() * q).exp()

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative; the order drops by one."""
        if self.order == 0:
            return TruncatedSeries([0])
        return TruncatedSeries(
            [k * self._coeffs[k] for k in range(1, self.order + 1)]
        )

    def integral(self) -> "TruncatedSeries":
        """Termwise antiderivative with zero constant; the order rises by one."""
        return TruncatedSeries(
            [Fraction(0)] + [self._coeffs[k] / (k + 1) for k in range(self.order + 1)]
        )

    # -- composition and reversion -------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute `inner` (which must have constant term zero) into self."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries")
        if inner.constant != 0:
            raise InnerSeriesNotNilpotent(
                "composition needs an inner series with constant term zero"
            )
        n = min(self.order, inner.order)
        g = inner.truncate(n)
        # Horner evaluation: coefficients of self beyond order n cannot
        # contribute below t^(n+1) because inner has positive valuation.
        acc = constant(self._coeffs[n], n)
        for k in range(n - 1, -1, -1):
            acc = acc * g + self._coeffs[k]
        return acc

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse by Newton iteration on composition.

        Requires g(0) = 0 and g'(0) != 0.  Doubles the trusted order each
        step: if h is correct modulo z^(p+1), then
        h - (g(h) - z)/g'(h) is correct modulo z^(2p+2).
        """
        if self.order < 1 or self.constant != 0:
            raise NotReversible("reversion needs g(0) = 0 at order >= 1")
        g1 = self._coeffs[1]
        if g1 == 0:
            raise NotReversible("reversion needs g'(0) != 0")
        n = self.order
        dg = self.derivative()
        h = TruncatedSeries([0, 1 / g1])
        prec = 1
        while prec < n:
            new_prec = min(2 * prec + 1, n)
            h = h._padded(new_prec)
            num = self.compose(h) - identity(new_prec)
            # h was correct mod z^(prec+1), so num has valuation > prec;
            # strip the known-zero head so the division below stays within
            # coefficients determined by the input.
            head, tail = num._coeffs[: prec + 1], num._coeffs[prec + 1 :]
            assert all(c == 0 for c in head)
            den = dg.compose(h.truncate(len(tail) - 1))
            quot = TruncatedSeries(tail) / den
            h = h - quot._shifted_up(prec + 1)
            prec = new_prec
        return h

    def _padded(self, order: int) -> "TruncatedSeries":
        if order <= self.order:
            return self.truncate(order)
        return TruncatedSeries(
            self._coeffs + (Fraction(0),) * (order - self.order)
        )

    def _shifted_up(self, k: int) -> "TruncatedSeries":
        return TruncatedSeries((Fraction(0),) * k + self._coeffs)

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other):
        """Coefficient-wise equality up to the common order."""
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return self._coeffs[: n + 1] == other._coeffs[: n + 1]
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"TruncatedSeries({list(self._coeffs)!r})"


def constant(value, order: int) -> TruncatedSeries:
    """The constant series `value` at the given truncation order."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return TruncatedSeries([_frac(value)] + [Fraction(0)] * order)


def identity(order: int) -> TruncatedSeries:
    """The series t at the given truncation order (order >= 1)."""
    if order < 1:
        raise ValueError("the identity series needs order >= 1")
    return TruncatedSeries([0, 1] + [0] * (order - 1))
