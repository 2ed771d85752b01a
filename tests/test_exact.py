"""Combinatorial helpers, including the double-factorial edge conventions."""

import math
import random
from fractions import Fraction

import pytest

from cliffex.exact import binomial, double_factorial, factorial, pochhammer


def test_factorial_small_values():
    assert [factorial(m) for m in range(6)] == [1, 1, 2, 6, 24, 120]


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_double_factorial_conventions():
    # both 0!! and (-1)!! must be 1 for the coefficient formulas to close
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1


def test_double_factorial_values():
    assert double_factorial(6) == 48
    assert double_factorial(7) == 105
    assert double_factorial(9) == 945


def test_double_factorial_matches_the_stepped_product():
    for m in range(-1, 80):
        expected = 1
        for factor in range(m, 0, -2):
            expected *= factor
        assert double_factorial(m) == expected
        assert type(double_factorial(m)) is int


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_double_factorial_splits_factorial():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randrange(1, 40)
        assert double_factorial(m) * double_factorial(m - 1) == factorial(m)


def test_binomial_matches_math_comb_and_clamps():
    assert binomial(5, 2) == math.comb(5, 2)
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0
    with pytest.raises(ValueError):
        binomial(-2, 1)


def test_pochhammer_integer_base_is_factorial_ratio():
    assert pochhammer(Fraction(1), 5) == factorial(5)
    assert pochhammer(Fraction(3), 4) == 3 * 4 * 5 * 6


def test_pochhammer_rational_base():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert pochhammer(Fraction(2, 3), 0) == 1


def test_pochhammer_matches_the_stepped_fraction_product():
    # integer bases (b = 1), negative bases and products through zero
    for a in range(-7, 8):
        for b in range(1, 6):
            q = Fraction(a, b)
            expected = Fraction(1)
            for l in range(41):
                assert pochhammer(q, l) == expected, (q, l)
                expected *= q + l
    assert pochhammer(Fraction(5, 3), 0) == Fraction(1)
    assert type(pochhammer(Fraction(5, 3), 0)) is Fraction
    assert type(pochhammer(3, 2)) is Fraction


def test_pochhammer_rejects_negative_length():
    with pytest.raises(ValueError):
        pochhammer(Fraction(1), -1)
