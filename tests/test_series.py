"""Recurrence characterization, closed forms, and extension comparison."""

import math
import random
from fractions import Fraction

import pytest

import cliffex.appell as appell_module
from cliffex.appell import appell_polynomial
from cliffex.axial import AxialPolynomial, evaluate
from cliffex.clifford import Multivector, Paravector
from cliffex.exact import factorial
from cliffex.fueter import alpha_monomial, fueter_sce_monomial
from cliffex.series import (
    BUILTIN_SERIES,
    ClassParameters,
    ConvergenceError,
    SeriesSpec,
    appell_extension,
    closed_form_coefficient,
    closed_form_eval,
    compare_extensions,
    default_alpha,
    exp_decomposition_check,
    exp_params,
    from_coefficients,
    get_series,
    hypergeometric_1f,
    iterate_recurrence,
    monomial,
    recurrence_check,
    solve_recurrence,
    solve_recurrence_shifted,
)

F = Fraction


def random_params(rng):
    n = rng.choice((3, 5, 7))
    gamma = F(rng.randrange(-9, 10), rng.randrange(1, 10))
    initial = tuple(
        F(rng.randrange(-6, 7), rng.randrange(1, 6)) for _ in range(n - 1)
    )
    return ClassParameters(n, gamma, initial)


def test_builtin_series_coefficients():
    assert get_series("exp").coeff(4) == F(1, 24)
    assert get_series("sinh").coeff(3) == F(1, 6)
    assert get_series("sinh").coeff(4) == 0
    assert get_series("cosh").coeff(4) == F(1, 24)
    assert get_series("cosh").coeff(5) == 0
    assert get_series("geometric").coeff(17) == 1
    assert get_series("z^3").coeff(3) == 1
    assert get_series("z^3").coeff(2) == 0


def test_get_series_unknown_name():
    with pytest.raises(ValueError):
        get_series("airy")


def test_from_coefficients_pads_with_zeros():
    spec = from_coefficients("probe", [1, F(1, 2)])
    assert spec.coeff(0) == 1
    assert spec.coeff(1) == F(1, 2)
    assert spec.coeff(5) == 0


def test_sinh_cosh_split_exp():
    for k in range(12):
        assert (
            get_series("sinh").coeff(k) + get_series("cosh").coeff(k)
            == get_series("exp").coeff(k)
        )


def test_appell_extension_examples():
    ext = appell_extension(3, monomial(1), 3)
    assert ext.polynomial == appell_polynomial(3, 1)
    assert appell_extension(5, monomial(0), 2).polynomial == appell_polynomial(5, 0)
    exp4 = appell_extension(3, get_series("exp"), 4)
    total = appell_polynomial(3, 0)
    for k in range(1, 5):
        total = total + F(1, factorial(k)) * appell_polynomial(3, k)
    assert exp4.polynomial == total
    assert exp4.coefficients[3] == (3, F(1, 6))


def summed_extension(n, f, K):
    """sum a_k P_k^n one polynomial at a time, through the public +."""
    total = AxialPolynomial.zero(n)
    for k in range(K + 1):
        a = f.coeff(k)
        if a:
            total = total + a * appell_polynomial(n, k)
    return total


def test_appell_extension_matches_the_summed_appell_polynomials():
    rng = random.Random(23)
    rational = from_coefficients(
        "rational", [F(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(41)]
    )
    specs = [get_series(name) for name in ("exp", "sinh", "cosh", "geometric")] + [rational]
    for f in specs:
        for n in (3, 5, 7, 9):
            for K in (0, 1, 7, 40):
                got = appell_extension(n, f, K).polynomial
                want = summed_extension(n, f, K)
                assert got == want
                assert list(got.A.terms()) == list(want.A.terms())
                assert list(got.B.terms()) == list(want.B.terms())
                x = Paravector(F(-7, 4), tuple(F(rng.randrange(-12, 13), 4) for _ in range(n)))
                assert evaluate(got, x, mode="float") == evaluate(want, x, mode="float")


def test_appell_extension_sees_a_patched_c_coeff(monkeypatch):
    one = Paravector(F(1), (F(0),) * 3)
    exp = get_series("exp")
    before = evaluate(appell_extension(3, exp, 6).polynomial, one)
    original = appell_module.c_coeff
    monkeypatch.setattr(
        appell_module, "c_coeff", lambda n, k: F(2) if k == 0 else original(n, k)
    )
    after = evaluate(appell_extension(3, exp, 6).polynomial, one)
    assert after != before
    assert before == Multivector.scalar(3, sum(exp.coeff(k) for k in range(7)))


def test_recurrence_holds_for_exp_sinh_cosh():
    for name in ("exp", "sinh", "cosh"):
        for n in (3, 5, 7):
            report = recurrence_check(n, get_series(name), 40)
            assert report.holds, (name, n)
            assert report.gamma == 1, (name, n)
            assert report.first_violation is None


def test_recurrence_fails_for_geometric():
    report = recurrence_check(3, get_series("geometric"), 10)
    assert not report.holds
    # gamma anchors at k=0 (a_2 = 1 forces gamma = 2), the pair at k=1 breaks
    assert report.gamma == 2
    k, lhs, rhs = report.first_violation
    assert (k, lhs, rhs) == (1, 1, F(1, 3))


def test_recurrence_zero_prefix_violation():
    spec = from_coefficients("late", [0, 0, 5])
    report = recurrence_check(3, spec, 6)
    assert not report.holds
    assert report.first_violation == (0, 5, 0)


def test_recurrence_all_zero_is_vacuous():
    report = recurrence_check(3, from_coefficients("zero", []), 8)
    assert report.holds
    assert report.gamma is None
    assert report.gamma_unconstrained


def test_recurrence_requires_enough_coefficients():
    with pytest.raises(ValueError):
        recurrence_check(5, get_series("exp"), 3)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_recurrence_check_verdicts_across_dimensions(n):
    step = n - 1
    exp = recurrence_check(n, get_series("exp"), 120)
    assert (exp.holds, exp.gamma, exp.first_violation) == (True, 1, None)
    # geometric: gamma anchors at (n-1)!, the pair at k=1 demands 1/n
    geo = recurrence_check(n, get_series("geometric"), 120)
    assert (geo.holds, geo.gamma) == (False, factorial(step))
    assert geo.first_violation == (1, 1, F(1, n))
    # zero prefix: only a_(n-2) is a nonzero initial coefficient
    params = ClassParameters(n, F(-3, 7), (0,) * (step - 1) + (F(5, 2),))
    member = solve_recurrence(params, 120)
    report = recurrence_check(n, from_coefficients("late", member), 120)
    assert (report.holds, report.gamma, report.first_violation) == (True, F(-3, 7), None)
    k = 3 * step + step - 1
    broken = list(member)
    broken[k + step] += 1
    report = recurrence_check(n, from_coefficients("late-broken", broken), 120)
    assert not report.holds
    assert report.first_violation == (k, member[k + step] + 1, member[k + step])
    # a nonzero coefficient above a zero one breaks before gamma is known
    report = recurrence_check(n, from_coefficients("late", [0] * step + [2]), 40)
    assert (report.holds, report.gamma, report.first_violation) == (False, None, (0, 2, 0))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
@pytest.mark.parametrize("gamma", [F(1), F(-3, 7), F(0), F(5, 2)])
def test_three_closed_form_routes_agree_at_m_240(n, gamma):
    initial = tuple(F((-1) ** r * (2 + r), 3 + r) for r in range(n - 1))
    params = ClassParameters(n, gamma, initial)
    iterated = iterate_recurrence(params, 240)
    assert solve_recurrence(params, 240) == iterated
    assert [closed_form_coefficient(params, m) for m in range(241)] == iterated


def test_solve_recurrence_reproduces_exp():
    params = ClassParameters(3, F(1), (F(1), F(1)))
    assert solve_recurrence(params, 6) == [F(1, factorial(k)) for k in range(7)]


def test_solve_recurrence_gamma_zero_kills_the_tail():
    params = ClassParameters(3, F(0), (F(1), F(5)))
    assert solve_recurrence(params, 6) == [1, 5, 0, 0, 0, 0, 0]


def test_solve_recurrence_sparse_initials():
    params = ClassParameters(5, F(1), (F(1), F(0), F(0), F(0)))
    coeffs = solve_recurrence(params, 8)
    assert coeffs[4] == F(1, 24)
    assert coeffs[8] == F(1, factorial(8))
    assert coeffs[1] == coeffs[2] == coeffs[3] == 0


def test_solve_matches_iteration_on_random_parameters():
    rng = random.Random(47)
    for _ in range(30):
        params = random_params(rng)
        assert solve_recurrence(params, 60) == iterate_recurrence(params, 60)


def test_shifted_variant_keeps_initials_but_breaks_at_l_equals_one():
    params = ClassParameters(3, F(1), (F(1), F(1)))
    shifted = solve_recurrence_shifted(params, 6)
    oracle = iterate_recurrence(params, 6)
    assert shifted[:2] == oracle[:2]
    # first generated family l = 1 lives at indices 2 and 3
    assert shifted[2] != oracle[2]
    assert shifted[3] != oracle[3]


def test_hypergeometric_at_zero_is_one():
    assert hypergeometric_1f(F(1), [F(1, 2), F(1)], 0) == 1.0
    assert hypergeometric_1f(F(1), [F(3, 2)], F(0), terms=5) == 1


def test_hypergeometric_cosh_identity():
    for z in (0.5, 1.0, 2.0):
        value = hypergeometric_1f(F(1), [F(1, 2), F(1)], z * z / 4.0)
        assert abs(value - math.cosh(z)) < 1e-12


def test_hypergeometric_sinh_identity():
    for z in (0.5, 1.0, 2.0):
        value = z * hypergeometric_1f(F(1), [F(1), F(3, 2)], z * z / 4.0)
        assert abs(value - math.sinh(z)) < 1e-12


def test_hypergeometric_exact_partial_sum():
    # 1F1(1; 1; x) truncated is the factorial series
    total = hypergeometric_1f(F(1), [F(1)], F(1, 2), terms=4)
    assert total == sum(F(1, 2) ** l / factorial(l) for l in range(5))


def test_hypergeometric_rejects_nonpositive_integer_lower():
    with pytest.raises(ValueError):
        hypergeometric_1f(F(1), [F(0)], 0.5)
    with pytest.raises(ValueError):
        hypergeometric_1f(F(1), [F(-3)], 0.5)


def test_hypergeometric_convergence_cap(monkeypatch):
    with pytest.raises(ConvergenceError):
        hypergeometric_1f(F(1), [F(1)], 10.0, l_max=3)
    monkeypatch.setenv("CLIFFEX_LMAX", "2")
    with pytest.raises(ConvergenceError):
        hypergeometric_1f(F(1), [F(1)], 10.0)
    monkeypatch.setenv("CLIFFEX_LMAX", "four")
    with pytest.raises(ValueError):
        hypergeometric_1f(F(1), [F(1)], 10.0)


def test_hypergeometric_rejects_a_negative_cap(monkeypatch):
    with pytest.raises(ValueError, match="l_max must be nonnegative"):
        hypergeometric_1f(F(1), [F(1)], 0.5, l_max=-1)
    monkeypatch.setenv("CLIFFEX_LMAX", "-3")
    with pytest.raises(ValueError, match="CLIFFEX_LMAX must be nonnegative"):
        hypergeometric_1f(F(1), [F(1)], 0.5)
    with pytest.raises(ValueError, match="CLIFFEX_LMAX"):
        closed_form_eval(exp_params(3), 1)
    monkeypatch.setenv("CLIFFEX_LMAX", "0")
    assert hypergeometric_1f(F(1), [F(1)], 0.0) == 1.0


def test_closed_form_coefficients_match_solution_orderwise():
    rng = random.Random(53)
    for _ in range(8):
        params = random_params(rng)
        solved = solve_recurrence(params, 40)
        hyper = [closed_form_coefficient(params, m) for m in range(41)]
        assert hyper == solved


def test_closed_form_eval_exp_values():
    params = exp_params(3)
    assert closed_form_eval(params, 0) == 1
    assert abs(closed_form_eval(params, 1) - math.e) < 1e-12
    assert abs(closed_form_eval(params, F(-1, 2)) - math.exp(-0.5)) < 1e-12


def test_closed_form_eval_even_series_is_cosh():
    params = ClassParameters(3, F(1), (F(1), F(0)))
    assert abs(closed_form_eval(params, 1) - math.cosh(1)) < 1e-12
    odd = ClassParameters(3, F(1), (F(0), F(1)))
    assert abs(closed_form_eval(odd, 1) - math.sinh(1)) < 1e-12


def test_exp_decomposition_reports():
    for n in (3, 5):
        for z in (F(-1), F(-1, 2), F(1, 2), F(1), F(2)):
            report = exp_decomposition_check(n, z)
            assert report.passes, (n, z, report.error)
    at_zero = exp_decomposition_check(3, 0)
    assert at_zero.error == 0.0


def test_closed_form_eval_rejects_a_z_beyond_the_float_range():
    # the 1F terms overflow although the argument 2.5e199 is finite
    params = ClassParameters(3, F(1), (F(1), F(1)))
    with pytest.raises(ValueError, match="overflows the float range"):
        closed_form_eval(params, F(10) ** 100)
    with pytest.raises(ValueError, match="overflows the float range"):
        hypergeometric_1f(F(1), [F(1, 2), F(1)], 2.5e199)
    # gamma z^(n-1) itself is inf: rejected before any summing
    huge_gamma = ClassParameters(3, F(10) ** 300, (F(1), F(1)))
    with pytest.raises(ValueError, match="beyond the float range"):
        closed_form_eval(huge_gamma, F(10) ** 10)
    assert abs(closed_form_eval(params, F(10)) / math.exp(10) - 1) < 1e-12


@pytest.mark.parametrize("tolerance", [0, 0.0, -1, float("nan"), float("inf")])
def test_library_tolerance_must_be_finite_and_positive(tolerance):
    match = "tolerance must be a finite number > 0"
    with pytest.raises(ValueError, match=match):
        hypergeometric_1f(F(1), [F(1)], 0.5, tolerance=tolerance)
    for z in (F(1), F(0)):
        with pytest.raises(ValueError, match=match):
            closed_form_eval(exp_params(3), z, tolerance=tolerance)
    with pytest.raises(ValueError, match=match):
        exp_decomposition_check(3, F(1, 2), tolerance)
    # the exact partial sum takes no tolerance
    assert hypergeometric_1f(F(1), [F(1)], F(1, 2), tolerance=tolerance, terms=2) == F(13, 8)


def test_default_alpha_values():
    assert default_alpha(3) == -1
    assert default_alpha(5) == 3
    assert default_alpha(7) == -15


def test_compare_extensions_exp_is_equal():
    for n in (3, 5):
        report = compare_extensions(n, get_series("exp"), 40)
        assert report.equal
        assert report.recurrence.holds
        assert report.alpha == default_alpha(n)
        assert report.first_difference is None


def test_compare_extensions_geometric_reports_difference():
    report = compare_extensions(3, get_series("geometric"), 10)
    assert not report.equal
    assert not report.recurrence.holds
    violation_k = report.recurrence.first_violation[0]
    assert not report.rows[violation_k].equal


def test_compare_equality_tracks_the_recurrence():
    # across the built-ins: equality of the extensions exactly when the
    # recurrence holds with a nonzero gamma (gamma = 0 forces tau to
    # vanish identically, so nothing but the zero series survives it)
    for name, spec in BUILTIN_SERIES.items():
        for n in (3, 5):
            report = compare_extensions(n, spec, 20)
            rec = report.recurrence
            expected = rec.holds and bool(rec.gamma)
            assert report.equal == expected, (name, n)


def test_compare_uses_caller_alpha_when_recurrence_fails():
    report = compare_extensions(3, get_series("geometric"), 5, alpha=F(7))
    assert report.alpha == 7


def test_compare_json_schema():
    report = compare_extensions(3, get_series("exp"), 3)
    data = report.to_json_dict()
    assert set(data) == {"series", "n", "holds", "gamma", "first_violation", "coefficients"}
    assert data["series"] == "exp"
    assert data["gamma"] == "1"
    assert data["first_violation"] is None
    assert data["coefficients"][2] == {"k": 2, "tau": "1/2", "eta": "1/2", "equal": True}
    failing = compare_extensions(3, get_series("geometric"), 10).to_json_dict()
    assert failing["holds"] is False
    assert failing["first_violation"] == {"k": 1, "lhs": "1", "rhs": "1/3"}
    assert [row["k"] for row in failing["coefficients"]] == list(range(11))
    assert not all(row["equal"] for row in failing["coefficients"])


def test_normalized_transform_is_not_additive_across_degrees():
    # tau normalization depends on the monomial degree, so normalizing a
    # two-term sum with any single constant cannot reproduce both Appell
    # polynomials at once
    n = 3
    raw = fueter_sce_monomial(n, 2, normalized=False) + fueter_sce_monomial(
        n, 3, normalized=False
    )
    target = appell_polynomial(n, 0) + appell_polynomial(n, 1)
    for candidate in (alpha_monomial(n, 2), alpha_monomial(n, 3)):
        assert candidate * raw != target
    assert alpha_monomial(n, 2) != alpha_monomial(n, 3)


def test_series_spec_rejects_negative_index():
    with pytest.raises(ValueError):
        get_series("exp").coeff(-1)


def test_class_parameters_validation():
    with pytest.raises(ValueError):
        ClassParameters(3, F(1), (F(1),))
    with pytest.raises(ValueError):
        ClassParameters(4, F(1), (F(1), F(1), F(1)))
    params = ClassParameters(3, 2, (1, "1/2"))
    assert params.gamma == 2
    assert params.initial == (F(1), F(1, 2))
