"""Acceptance sweep: one printed pass/fail line per criterion.

Run with `pytest -s -v tests/test_acceptance.py` to see the lines as
they happen; under plain pytest the asserts alone carry the verdict.
Every identity-level criterion runs in exact rational arithmetic; the
two numeric criteria state their tolerances inline.
"""

import contextlib
import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import cliffex
from cliffex.appell import appell_polynomial, appell_property_check, c_table
from cliffex.axial import AxialPolynomial, BivariatePoly, apply_radial_powers, evaluate, vekua_residual
from cliffex.clifford import Multivector, Paravector
from cliffex.cli import main
from cliffex.exact import double_factorial
from cliffex.fueter import beta, fueter_sce_monomial
from cliffex.polycheck import from_axial, is_monogenic
from cliffex.series import (
    ClassParameters,
    closed_form_eval,
    compare_extensions,
    exp_decomposition_check,
    exp_params,
    get_series,
    iterate_recurrence,
    recurrence_check,
    solve_recurrence,
    solve_recurrence_shifted,
)

F = Fraction
DIMENSIONS = (3, 5, 7)


def report(number: int, ok: bool, detail: str) -> bool:
    print("criterion %2d: %s - %s" % (number, "PASS" if ok else "FAIL", detail))
    return ok


def test_criterion_01_transform_appell_identity():
    started = time.monotonic()
    mismatches = []
    for n in DIMENSIONS:
        for k in range(16):
            if fueter_sce_monomial(n, k + n - 1) != appell_polynomial(n, k):
                mismatches.append((n, k))
    elapsed = time.monotonic() - started
    ok = not mismatches and elapsed < 5.0
    assert report(
        1,
        ok,
        "tau_n[z^(k+n-1)] = P_k^n exactly, n in {3,5,7}, k = 0..15, "
        "zero tolerance (%.2fs)" % elapsed,
    )


def test_criterion_02_pre_threshold_vanishing():
    survivors = [
        (n, k)
        for n in DIMENSIONS
        for k in range(n - 1)
        if not fueter_sce_monomial(n, k).is_zero
    ]
    assert report(
        2,
        not survivors,
        "tau_n[z^k] = 0 exactly for all k < n-1, n in {3,5,7}",
    )


def test_criterion_03_monogenicity():
    started = time.monotonic()
    vekua_bad = []
    for n in DIMENSIONS:
        for k in range(31):
            if any(not part.is_zero for part in vekua_residual(appell_polynomial(n, k))):
                vekua_bad.append((n, k))
    oracle_bad = []
    for n in (3, 5):
        for k in range(9):
            if not is_monogenic(from_axial(appell_polynomial(n, k))):
                oracle_bad.append((n, k))
    elapsed = time.monotonic() - started
    ok = not vekua_bad and not oracle_bad and elapsed < 20.0
    assert report(
        3,
        ok,
        "vekua_residual(P_k^n) = (0,0) for k <= 30 and full operator kernel "
        "for n in {3,5}, k <= 8 (%.2fs)" % elapsed,
    )


def test_criterion_04_appell_property_and_normalization():
    property_bad = [n for n in DIMENSIONS if not appell_property_check(n, 30).holds]
    norm_bad = []
    for n in DIMENSIONS:
        one = Paravector(F(1), (F(0),) * n)
        for k in range(31):
            if evaluate(appell_polynomial(n, k), one) != Multivector.scalar(n, F(1)):
                norm_bad.append((n, k))
    ok = not property_bad and not norm_bad
    assert report(
        4,
        ok,
        "d/dx0 P_k = k P_(k-1) and P_k(1) = 1 exactly, k <= 30, n in {3,5,7}",
    )


def test_criterion_05_recurrence_positive_cases():
    failures = []
    for name in ("exp", "sinh", "cosh"):
        spec = get_series(name)
        for n in DIMENSIONS:
            rec = recurrence_check(n, spec, 40)
            if not (rec.holds and rec.gamma == 1):
                failures.append((name, n, "recurrence"))
            comparison = compare_extensions(n, spec, 40)
            if not comparison.equal:
                failures.append((name, n, "comparison"))
    assert report(
        5,
        not failures,
        "recurrence holds with gamma = 1 and tau = eta coefficientwise "
        "for exp, sinh, cosh; n in {3,5,7}, K = 40",
    )


def test_criterion_06_recurrence_negative_case():
    rec = recurrence_check(3, get_series("geometric"), 10)
    comparison = compare_extensions(3, get_series("geometric"), 10)
    ok = (
        not rec.holds
        and rec.first_violation is not None
        and not comparison.equal
        and not comparison.rows[rec.first_violation[0]].equal
    )
    if rec.first_violation is None:
        detail = "geometric series: no violation found where one was expected"
    else:
        k, lhs, rhs = rec.first_violation
        detail = (
            "geometric series: first violation at k=%d (a_%d = %s, needs %s), "
            "coefficient mismatch reported at that index" % (k, k + 2, lhs, rhs)
        )
    assert report(6, ok, detail)


def test_criterion_07_corollary_oracle_equivalence():
    rng = random.Random(20260817)
    solved_ok = 0
    shifted_checked = 0
    problems = []
    for trial in range(100):
        n = rng.choice(DIMENSIONS)
        gamma = F(rng.randrange(-9, 10), rng.randrange(1, 10))
        initial = tuple(
            F(rng.randrange(-6, 7), rng.randrange(1, 6)) for _ in range(n - 1)
        )
        params = ClassParameters(n, gamma, initial)
        oracle = iterate_recurrence(params, 60)
        if solve_recurrence(params, 60) == oracle:
            solved_ok += 1
        else:
            problems.append(("solve", trial))
        if gamma and any(initial):
            # the printed variant must already miss the first generated
            # family l = 1 (index n-1+r for the first nonzero a_r)
            shifted = solve_recurrence_shifted(params, 60)
            r = next(i for i, a in enumerate(initial) if a)
            if shifted[n - 1 + r] == oracle[n - 1 + r]:
                problems.append(("shifted", trial))
            else:
                shifted_checked += 1
    ok = solved_ok == 100 and shifted_checked > 0 and not problems
    assert report(
        7,
        ok,
        "corrected solution = direct iteration on %d/100 random parameter "
        "sets up to index 60; printed ((l+1)(n-1)+r)! variant disagreed at "
        "l=1 in %d applicable sets" % (solved_ok, shifted_checked),
    )


def test_criterion_08_exp_decomposition():
    failures = []
    for n in (3, 5):
        for z in (F(-1), F(-1, 2), F(1, 2), F(1), F(2)):
            outcome = exp_decomposition_check(n, z, tolerance=1e-12)
            if not outcome.passes:
                failures.append((n, z, outcome.error))
    exact_at_zero = closed_form_eval(exp_params(3), 0) == 1 and closed_form_eval(
        exp_params(5), 0
    ) == 1
    ok = not failures and exact_at_zero
    assert report(
        8,
        ok,
        "closed form matches direct summation of exp within 1e-12 for "
        "n in {3,5}, z in {-1,-1/2,1/2,1,2}; exactly 1 at z = 0",
    )


def test_criterion_09_beta_operator_cross_check():
    mismatches = []
    for n in DIMENSIONS:
        for j in range(41):
            power = BivariatePoly({(0, j): 1})
            if j % 2 == 0:
                image = apply_radial_powers((power, BivariatePoly.zero()), n).A
            else:
                image = apply_radial_powers((BivariatePoly.zero(), power), n).B
            term = beta(n, j)
            expected = (
                BivariatePoly.zero()
                if term.is_zero
                else BivariatePoly({(0, term.r_exponent): term.coefficient})
            )
            if image != expected:
                mismatches.append((n, j))
            if j % 2 == 0:
                kron = double_factorial(n - 1) if j == n - 1 else 0
                if term.value_at_zero() != kron:
                    mismatches.append((n, j, "at zero"))
    assert report(
        9,
        not mismatches,
        "radial operators on r^j reproduce the beta closed form for "
        "j <= 40, n in {3,5,7}, including the Kronecker values at r = 0",
    )


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def test_criterion_10_runtime_and_cli_failure_detection(monkeypatch):
    started = time.monotonic()
    suite_codes = []
    for n in DIMENSIONS:
        suite_codes.append(quiet_main(["verify", "theorem1", "--n", str(n), "--kmax", "15"]))
        suite_codes.append(quiet_main(["verify", "monogenic", "--n", str(n), "--kmax", "30"]))
        suite_codes.append(quiet_main(["verify", "appell-property", "--n", str(n), "--kmax", "30"]))
        for name in ("exp", "sinh", "cosh"):
            suite_codes.append(
                quiet_main(["verify", "recurrence", "--series", name, "--n", str(n), "--K", "40"])
            )
        suite_codes.append(quiet_main(["verify", "closed-form", "--n", str(n), "--M", "40"]))
    elapsed = time.monotonic() - started
    all_green = all(code == 0 for code in suite_codes)

    # the induced-failure side: geometric must fail, and a flipped
    # c_n^0 must knock out the theorem1, monogenic, and appell-property
    # suites through their shared coefficient table
    geometric_code = quiet_main(
        ["verify", "recurrence", "--series", "geometric", "--n", "3", "--K", "10"]
    )
    # the child imports the cliffex under test, wherever the suite runs
    # from, and must print a FAIL verdict: a child that cannot import
    # cliffex also exits nonzero
    src = str(Path(cliffex.__file__).resolve().parents[1])
    child_path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess_probe = subprocess.run(
        [
            sys.executable,
            "-m",
            "cliffex",
            "verify",
            "recurrence",
            "--series",
            "geometric",
            "--n",
            "3",
            "--K",
            "10",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=child_path),
    )
    probe_lines = subprocess_probe.stdout.splitlines()
    import cliffex.appell as appell_module

    original = appell_module.c_coeff
    mutated_codes = []
    with monkeypatch.context() as patch:
        patch.setattr(
            appell_module,
            "c_coeff",
            lambda n, k: F(2) if k == 0 else original(n, k),
        )
        broken1 = fueter_sce_monomial(3, 2) != appell_polynomial(3, 0)
        broken3 = any(not p.is_zero for p in vekua_residual(appell_polynomial(3, 1)))
        one = Paravector(F(1), (F(0), F(0), F(0)))
        broken4 = evaluate(appell_polynomial(3, 1), one) != Multivector.scalar(3, F(1))
        mutated_codes = [
            quiet_main(["verify", "theorem1", "--n", "3", "--kmax", "3"]),
            quiet_main(["verify", "monogenic", "--n", "3", "--kmax", "5"]),
            quiet_main(["verify", "appell-property", "--n", "3", "--kmax", "5"]),
        ]
    restored = appell_module.c_coeff(3, 0) == 1 and quiet_main(
        ["verify", "theorem1", "--n", "3", "--kmax", "3"]
    ) == 0
    ok = (
        all_green
        and elapsed < 60.0
        and geometric_code != 0
        and subprocess_probe.returncode == 1
        and probe_lines[-1:] == ["FAIL"]
        and broken1
        and broken3
        and broken4
        and all(code != 0 for code in mutated_codes)
        and restored
    )
    assert report(
        10,
        ok,
        "full verify suite in %.1fs (< 60s); geometric suite exits "
        "nonzero (in-process and subprocess); flipping c_n^0 breaks "
        "criteria 1, 3, 4 and every affected suite exits nonzero" % elapsed,
    )
