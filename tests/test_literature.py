"""Closed forms from the literature, checked at every n on a grid.

Every other check of the numbers shares one transcription of the V, W, X,
F and G formulas.  These right-hand sides come from published theorems
instead, and are computed here by their own binomial loop, with nothing
imported from `segre_verlinde` but the public entry points under test.
"""

from fractions import Fraction

import pytest

from k3mukai import SegreParams, VerlindeParams, segre_number, verlinde_number


def binom(x, k: int) -> Fraction:
    """The generalised binomial coefficient x (x-1) ... (x-k+1) / k!."""
    out = Fraction(1)
    for i in range(k):
        out = out * (x - i) / (i + 1)
    return out


@pytest.mark.parametrize("h2", range(-20, 21, 2))
def test_lehn_formula_for_k3(h2):
    """Lehn's formula on a K3 surface, proved by Marian, Oprea and
    Pandharipande ("Segre classes and Hilbert schemes of points", Ann. Sci.
    ENS 2017): int_{S^[n]} s_2n(H^[n]) = 2^n binom(chi(H) - 2n, n) with
    chi(H) = H^2/2 + 2.  The class -H has rank -1 and c1^2 = c2 = H^2, so
    the left-hand side is segre_number(1, -1, H^2, H^2, n)."""
    chi = Fraction(h2, 2) + 2
    for n in range(10):
        assert segre_number(SegreParams(1, -1, h2, h2, n)) == 2**n * binom(chi - 2 * n, n)


@pytest.mark.parametrize("r", range(-4, 5))
def test_ellingsrud_goettsche_lehn_verlinde_formula(r):
    """Ellingsrud, Goettsche and Lehn ("On the cobordism class of the
    Hilbert scheme of a surface", J. Algebraic Geom. 2001), for a K3
    surface: chi(S^[n], L_n (x) E^r) = binom(chi(L) - (r^2 - 1)(n - 1), n),
    which is verlinde_number(1, r, chi(L), n)."""
    for chi_l in range(-5, 6):
        for n in range(8):
            expected = binom(chi_l - (r * r - 1) * (n - 1), n)
            assert verlinde_number(VerlindeParams(1, r, chi_l, n)) == expected


@pytest.mark.parametrize("rho", range(1, 7))
def test_lehn_formula_pulled_back_to_rank_rho(rho):
    """Lehn's formula (as above) at higher rank, through the reduction to the
    Hilbert scheme that the source paper proves (after Markman's monodromy
    results): a class alpha of rank -rho with c1(alpha)^2 = H^2 and
    v2(alpha) = v2(-H)/rho = (-1 - H^2/2)/rho has the Segre numbers of -H
    on S^[n], so segre_number(rho, -rho, c2(alpha), H^2, n) is again
    2^n binom(chi(H) - 2n, n), with c2 = rank + c1^2/2 - v2.  The grid
    keeps the points where c2(alpha) is an integer."""
    for h2 in range(-20, 21, 2):
        c2 = -rho + Fraction(h2, 2) - (-1 - Fraction(h2, 2)) / rho
        if c2.denominator != 1:
            continue
        chi = Fraction(h2, 2) + 2
        for n in range(11):
            expected = 2**n * binom(chi - 2 * n, n)
            assert segre_number(SegreParams(rho, -rho, int(c2), h2, n)) == expected


@pytest.mark.parametrize("n", [100, 111, 120])
def test_literature_formulas_at_large_n(n):
    """Lehn's and Ellingsrud-Goettsche-Lehn's formulas, as above, far past
    the grids there: a wrong term of the numbers' recurrence that cancels at
    small n would show here."""
    for h2 in (-18, 0, 6, 22):
        chi = Fraction(h2, 2) + 2
        assert segre_number(SegreParams(1, -1, h2, h2, n)) == 2**n * binom(chi - 2 * n, n)
    for r in (0, 1, 3):
        for chi_l in (-7, 2, 150):
            expected = binom(chi_l - (r * r - 1) * (n - 1), n)
            assert verlinde_number(VerlindeParams(1, r, chi_l, n)) == expected
