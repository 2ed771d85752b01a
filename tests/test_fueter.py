"""The monomial split, the beta closed form, and the transform itself."""

import random
from fractions import Fraction

import pytest

from cliffex.appell import appell_polynomial
from cliffex.axial import (
    AxialPolynomial,
    BivariatePoly,
    apply_radial_powers,
    evaluate,
    text_form,
    vekua_residual,
)
from cliffex.clifford import Multivector, Paravector, paravector_power
from cliffex.exact import binomial, double_factorial
from cliffex.fueter import (
    alpha_monomial,
    beta,
    fueter_sce_monomial,
    fueter_sce_series,
    monomial_split,
)
from cliffex.series import get_series, monomial

F = Fraction


def constant(value, n):
    return AxialPolynomial(BivariatePoly({(0, 0): value}), BivariatePoly.zero(), n)


def test_monomial_split_small_degrees():
    zero = monomial_split(0)
    assert zero.u == BivariatePoly({(0, 0): 1})
    assert zero.v.is_zero
    two = monomial_split(2)
    assert two.u == BivariatePoly({(2, 0): 1, (0, 2): -1})
    assert two.v == BivariatePoly({(1, 1): 2})
    three = monomial_split(3)
    assert three.u == BivariatePoly({(3, 0): 1, (1, 2): -3})
    assert three.v == BivariatePoly({(2, 1): 3, (0, 3): -1})


def test_monomial_split_reassembles_the_binomial_expansion():
    # coefficient of w^(k-s) y^s in u + iv must be C(k,s) i^s
    for k in range(12):
        split = monomial_split(k)
        for s in range(k + 1):
            p, odd = divmod(s, 2)
            expected = binomial(k, s) * (-1) ** p
            actual = (split.v if odd else split.u).coefficient(k - s, s)
            assert actual == expected
        assert split.u.is_even_in_r()
        assert split.v.is_odd_in_r()


def test_beta_examples():
    b = beta(3, 2)
    assert (b.coefficient, b.r_exponent, b.is_zero) == (2, 0, False)
    assert beta(3, 1).is_zero
    b55 = beta(5, 5)
    assert (b55.coefficient, b55.r_exponent) == (8, 1)


def test_beta_at_zero_is_kronecker_times_double_factorial():
    for n in (3, 5, 7):
        for j in range(0, 41, 2):
            value = beta(n, j).value_at_zero()
            assert value == (double_factorial(n - 1) if j == n - 1 else 0)
        for j in range(1, 41, 2):
            assert beta(n, j).value_at_zero() == 0


def test_beta_matches_radial_operator_on_pure_powers():
    # the closed form against the operators it summarizes, j <= 40
    for n in (3, 5, 7):
        for j in range(41):
            if j % 2 == 0:
                image = apply_radial_powers((BivariatePoly({(0, j): 1}), BivariatePoly.zero()), n)
                part = image.A
            else:
                image = apply_radial_powers((BivariatePoly.zero(), BivariatePoly({(0, j): 1})), n)
                part = image.B
            term = beta(n, j)
            if term.is_zero:
                assert part.is_zero, (n, j)
            else:
                assert part == BivariatePoly({(0, term.r_exponent): term.coefficient}), (n, j)


def test_alpha_values():
    assert alpha_monomial(3, 2) == F(-1, 2)
    assert alpha_monomial(3, 3) == F(-1, 6)
    assert alpha_monomial(5, 4) == F(1, 8)


def test_alpha_below_threshold_raises():
    with pytest.raises(ValueError):
        alpha_monomial(3, 1)
    with pytest.raises(ValueError):
        alpha_monomial(4, 5)


def test_transform_vanishes_below_threshold():
    for n in (3, 5, 7):
        for k in range(n - 1):
            assert fueter_sce_monomial(n, k).is_zero
            assert fueter_sce_monomial(n, k, normalized=False).is_zero


def test_transform_first_surviving_degree_is_constant_one():
    for n in (3, 5, 7):
        assert fueter_sce_monomial(n, n - 1) == constant(F(1), n)


def test_transform_reproduces_appell_family():
    assert fueter_sce_monomial(3, 3) == appell_polynomial(3, 1)
    assert text_form(fueter_sce_monomial(3, 3)) == "x0 + 1/3 r w"
    for n in (3, 5, 7):
        for k in range(12):
            assert fueter_sce_monomial(n, k + n - 1) == appell_polynomial(n, k), (n, k)


def test_raw_transform_values():
    assert fueter_sce_monomial(5, 4, normalized=False) == constant(8, 5)
    raw = fueter_sce_monomial(3, 3, normalized=False)
    assert raw == AxialPolynomial(
        BivariatePoly({(1, 0): -6}), BivariatePoly({(0, 1): -2}), 3
    )


def test_transform_normalization_and_monogenicity():
    for n in (3, 5):
        one = Paravector(F(1), (F(0),) * n)
        for k in range(n - 1, n + 10):
            tau = fueter_sce_monomial(n, k)
            assert evaluate(tau, one) == Multivector.scalar(n, F(1))
            first, second = vekua_residual(tau)
            assert first.is_zero and second.is_zero


def test_vector_restriction_double_factorial_multiples():
    # raw tau_n[z^l] on pure vectors: the x0 = 0 slice of the split
    # keeps a single term, and each of the (n-1)/2 lowering rounds
    # multiplies it by the current power minus zero or one, so
    #   even l: (-1)^((n-1)/2) l!! / (l-n+1)!!  x^(l-n+1)
    #   odd l:  (-1)^((n-1)/2) (l-1)!! / (l-n)!! x^(l-n+1)
    rng = random.Random(43)
    for n in (3, 5, 7):
        sign = -1 if ((n - 1) // 2) % 2 else 1
        for l in range(n - 1, 31):
            if l % 2 == 0:
                constant = F(sign * double_factorial(l), double_factorial(l - n + 1))
            else:
                constant = F(sign * double_factorial(l - 1), double_factorial(l - n))
            raw = fueter_sce_monomial(n, l, normalized=False)
            x = Paravector(F(0), tuple(F(rng.randrange(-2, 3)) for _ in range(n)))
            left = evaluate(raw, x)
            right = paravector_power(x, l - n + 1) * constant
            assert left == right, (n, l)


def test_series_transform_single_monomial():
    coeffs = fueter_sce_series(3, monomial(2), F(-1, 2), 5)
    assert coeffs[0] == (0, F(1))
    assert all(c == 0 for k, c in coeffs[1:])


def test_series_transform_of_exp_gives_factorials():
    coeffs = fueter_sce_series(3, get_series("exp"), F(-1), 10)
    from cliffex.exact import factorial

    for k, value in coeffs:
        assert value == F(1, factorial(k))


def test_series_transform_kills_low_degrees():
    coeffs = fueter_sce_series(5, monomial(0), F(1), 6)
    assert all(c == 0 for _, c in coeffs)


def test_series_transform_rejects_zero_alpha():
    with pytest.raises(ValueError):
        fueter_sce_series(3, get_series("exp"), F(0), 5)
