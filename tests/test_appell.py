"""The coefficients c_n^k and the Appell polynomials built from them."""

import random
from fractions import Fraction

import pytest

from cliffex import verify
from cliffex.appell import (
    appell_combination,
    appell_polynomial,
    appell_property_check,
    appell_sequence,
    c_coeff,
    c_table,
)
from cliffex.axial import AxialPolynomial, BivariatePoly, evaluate, vekua_residual
from cliffex.clifford import Multivector, Paravector, paravector_power
from cliffex.exact import binomial

F = Fraction


def constant(value, n):
    return AxialPolynomial(BivariatePoly({(0, 0): value}), BivariatePoly.zero(), n)


def test_c_coeff_examples():
    assert c_coeff(3, 0) == 1
    assert c_coeff(3, 1) == F(1, 3)
    assert c_coeff(3, 3) == F(1, 5)


def test_c_tables_frozen_values():
    # computed independently from the double-factorial formula by hand
    assert c_table(3, 6) == [1, F(1, 3), F(1, 3), F(1, 5), F(1, 5), F(1, 7), F(1, 7)]
    assert c_table(5, 5) == [1, F(1, 5), F(1, 5), F(3, 35), F(3, 35), F(1, 21)]
    assert c_table(7, 4) == [1, F(1, 7), F(1, 7), F(1, 21), F(1, 21)]


def test_c_coeff_pairing_and_range():
    for n in (3, 5, 7):
        table = c_table(n, 30)
        assert table[0] == 1
        assert all(0 < c <= 1 for c in table)
        for m in range(1, 15):
            assert table[2 * m] == table[2 * m - 1]


def test_c_coeff_rejects_even_n_and_negative_k():
    with pytest.raises(ValueError):
        c_coeff(4, 0)
    with pytest.raises(ValueError):
        c_coeff(1, 0)
    with pytest.raises(ValueError):
        c_coeff(3, -1)


def test_an_empty_c_table_still_checks_the_dimension():
    # no c_coeff call happens for K = -1, so c_table checks n itself
    for build in (lambda: c_table(4, -1), lambda: appell_combination(4, [])):
        with pytest.raises(ValueError, match="n must be odd"):
            build()
    assert c_table(3, -1) == []
    assert appell_combination(3, []).is_zero


def test_appell_polynomial_low_degrees():
    assert appell_polynomial(3, 0) == constant(1, 3)
    assert appell_polynomial(3, 1) == AxialPolynomial(
        BivariatePoly({(1, 0): 1}), BivariatePoly({(0, 1): F(1, 3)}), 3
    )
    assert appell_polynomial(3, 2) == AxialPolynomial(
        BivariatePoly({(2, 0): 1, (0, 2): F(-1, 3)}),
        BivariatePoly({(1, 1): F(2, 3)}),
        3,
    )


def test_appell_combination_of_one_term_is_the_appell_polynomial():
    for n in (3, 5, 7):
        for k in range(12):
            unit = [0] * k + [F(-2, 3)]
            got = appell_combination(n, unit)
            want = F(-2, 3) * appell_polynomial(n, k)
            assert got == want
            assert list(got.A.terms()) == list(want.A.terms())
            assert list(got.B.terms()) == list(want.B.terms())
    assert appell_combination(3, [0, 0]) == AxialPolynomial.zero(3)


def test_appell_property_sweep():
    for n in (3, 5):
        report = appell_property_check(n, 10)
        assert report.holds
        assert report.first_failure is None


def test_appell_property_degree_one():
    assert appell_polynomial(3, 1).diff_x0() == appell_polynomial(3, 0)


def test_normalization_at_one():
    for n in (3, 5, 7):
        one = Paravector(F(1), (F(0),) * n)
        for k in range(0, 31, 5):
            value = evaluate(appell_polynomial(n, k), one)
            assert value == Multivector.scalar(n, F(1))


def test_restriction_to_vectors_is_c_times_vector_power():
    # P_k^n(x) = c_n^k x^k on pure vectors; the right side is computed
    # by repeated geometric products, a route the axial code never takes
    rng = random.Random(41)
    for n in (3, 5):
        for _ in range(6):
            x = Paravector(
                F(0), tuple(F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(n))
            )
            for k in range(0, 9):
                left = evaluate(appell_polynomial(n, k), x)
                right = paravector_power(x, k) * c_coeff(n, k)
                assert left == right, (n, k)


def test_monogenicity_spot_checks():
    for n in (3, 5, 7):
        for k in (0, 1, 4, 9):
            first, second = vekua_residual(appell_polynomial(n, k))
            assert first.is_zero and second.is_zero


def test_mutated_coefficient_breaks_the_construction(monkeypatch):
    import cliffex.appell as appell_module

    original = c_coeff

    def flipped(n, k):
        if k == 0:
            return F(2)
        return original(n, k)

    monkeypatch.setattr(appell_module, "c_coeff", flipped)
    one = Paravector(F(1), (F(0), F(0), F(0)))
    for P1 in (
        appell_module.appell_polynomial(3, 1),
        appell_module.appell_sequence(3, 1)[1],
        appell_module.appell_combination(3, [0, 1]),
    ):
        assert evaluate(P1, one) != Multivector.scalar(3, F(1))
        first, _ = vekua_residual(P1)
        assert not first.is_zero


def _binomial_form(n, k):
    """P_k^n term by term from the binomial form, through the validating constructors."""
    a_terms, b_terms = {}, {}
    for s in range(k + 1):
        weight = binomial(k, s) * c_coeff(n, s) * (-1) ** (s // 2)
        (b_terms if s % 2 else a_terms)[(k - s, s)] = weight
    return AxialPolynomial(BivariatePoly(a_terms), BivariatePoly(b_terms), n)


def test_appell_sequence_matches_the_binomial_form_term_for_term():
    for n in (3, 5, 7, 9):
        sequence = appell_sequence(n, 90)
        assert len(sequence) == 91
        for k, got in enumerate(sequence):
            for want in (appell_polynomial(n, k), _binomial_form(n, k)):
                assert got == want, (n, k)
                assert list(got.A.terms()) == list(want.A.terms())
                assert list(got.B.terms()) == list(want.B.terms())
                assert got.n == n


def test_appell_combination_matches_the_binomial_form_term_for_term():
    rng = random.Random(8)
    for n in (3, 5, 9):
        for K in (0, 1, 7, 23, 40):
            coeffs = [
                rng.choice((0, 0, rng.randrange(-9, 10), F(rng.randrange(-9, 10), rng.randrange(1, 13))))
                for _ in range(K + 1)
            ]
            want = AxialPolynomial.zero(n)
            for k, a in enumerate(coeffs):
                want = want + a * _binomial_form(n, k)
            got = appell_combination(n, coeffs)
            assert got == want, (n, K)
            assert list(got.A.terms()) == list(want.A.terms())
            assert list(got.B.terms()) == list(want.B.terms())


def test_appell_combination_takes_int_or_fraction_coefficients_only():
    for bad in ([F(1, 2), 0.5, 1], [1, "2"], [0.0]):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            appell_combination(3, bad)
    G = appell_combination(3, [True, 0, F(0), -2, F(3, 4), False])
    assert G == appell_polynomial(3, 0) - 2 * appell_polynomial(3, 3) + F(3, 4) * appell_polynomial(3, 4)
    first, second = vekua_residual(G)
    assert first.is_zero and second.is_zero


def test_appell_sequence_sizes():
    for n in (3, 5, 7, 9):
        assert appell_sequence(n, 0) == [constant(1, n)]
    for bad in (-1, -5):
        with pytest.raises(ValueError, match="K must be nonnegative"):
            appell_sequence(3, bad)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        appell_polynomial(3, -1)
    for even in (2, 4, 8):
        with pytest.raises(ValueError, match="n must be odd"):
            appell_sequence(even, 3)
        with pytest.raises(ValueError, match="n must be odd"):
            appell_sequence(even, 0)
    with pytest.raises(ValueError, match="K must be at least 1"):
        appell_property_check(3, 0)


SUITES = (verify.verify_theorem1, verify.verify_monogenic, verify.verify_appell_property)


def test_identity_suites_reject_a_negative_size():
    for suite in SUITES:
        with pytest.raises(ValueError, match="must be nonnegative, got -1"):
            suite(3, -1)
    with pytest.raises(ValueError, match="kmax must be nonnegative"):
        verify.verify_monogenic(3, -1, oracle_kmax=0)
    for n in (3, 7):  # the oracle runs at n <= 5 only, the argument is checked always
        with pytest.raises(ValueError, match="oracle_kmax must be nonnegative"):
            verify.verify_monogenic(n, 5, oracle_kmax=-1)
    report = verify.verify_monogenic(3, 0, oracle_kmax=0)
    assert report.passed and report.lines[0].endswith("for k = 0..0")


def test_mutated_coefficient_shows_in_the_sequence_and_every_suite(monkeypatch):
    import cliffex.appell as appell_module

    original = c_coeff
    monkeypatch.setattr(
        appell_module, "c_coeff", lambda n, k: F(2) if k == 0 else original(n, k)
    )
    for n in (3, 5):
        sequence = appell_module.appell_sequence(n, 40)
        assert sequence[0] == constant(2, n)
        assert all(P.A.coefficient(k, 0) == 2 for k, P in enumerate(sequence))
        for suite in SUITES:
            assert not suite(n, 40).passed, (suite.__name__, n)
    # a fault deep in the table shows at its own degree
    monkeypatch.setattr(
        appell_module, "c_coeff", lambda n, k: F(1, 3) if k == 33 else original(n, k)
    )
    report = verify.verify_theorem1(5, 40)
    assert not report.passed
    assert report.lines[0].endswith("(first mismatch at k=33)")
    report = verify.verify_monogenic(5, 40)
    assert not report.passed
    assert "nonzero at k=[33, " in report.lines[0]


def test_each_identity_suite_reads_the_c_table_once(monkeypatch):
    # a count, not a timing: rebuilding P_k one at a time reads the
    # table O(kmax^2) times (1891 / 1936 / 3782 calls here)
    import cliffex.appell as appell_module

    original = c_coeff
    calls = []

    def counting(n, k):
        calls.append(k)
        return original(n, k)

    monkeypatch.setattr(appell_module, "c_coeff", counting)
    kmax, oracle_kmax = 60, 8
    for suite in SUITES:
        calls.clear()
        assert suite(5, kmax).passed
        assert len(calls) <= max(kmax, oracle_kmax) + 1, (suite.__name__, len(calls))


def test_monogenic_builds_oracle_degrees_only_where_the_oracle_runs(monkeypatch):
    import cliffex.appell as appell_module

    original = c_coeff
    calls = []

    def counting(n, k):
        calls.append(k)
        return original(n, k)

    monkeypatch.setattr(appell_module, "c_coeff", counting)
    for n, reads in ((7, 3), (9, 3), (5, 9), (3, 9)):
        calls.clear()
        report = verify.verify_monogenic(n, 2)
        assert len(calls) == reads, (n, len(calls))
        assert report.passed
        assert report.lines[0] == "ok   vekua_residual(P_k^%d) = (0, 0) for k = 0..2" % n
        assert len(report.lines) == (2 if n <= 5 else 1)
