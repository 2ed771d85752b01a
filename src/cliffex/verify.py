"""Named verification suites behind the command-line verify subcommand.

Each suite re-derives one of the headline identities from scratch and
reports a pass/fail line per claim.  Suites return plain report
objects; rendering and exit codes belong to the CLI layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import polycheck, series
from .appell import appell_property_report, appell_sequence
from .axial import evaluate, vekua_residual
from .clifford import Multivector, Paravector
from .exact import require_nonnegative
from .fueter import fueter_sce_monomial


@dataclass
class SuiteReport:
    """Per-claim lines plus the overall verdict for one suite run."""

    suite: str
    passed: bool = True
    lines: list = field(default_factory=list)

    def record(self, ok: bool, text: str) -> None:
        self.lines.append("%s %s" % ("ok  " if ok else "FAIL", text))
        if not ok:
            self.passed = False


def verify_theorem1(n: int, kmax: int = 15) -> SuiteReport:
    """Normalized tau_n[z^(k+n-1)] against P_k^n, plus the vanishing range."""
    report = SuiteReport("theorem1")
    mismatch = None
    for k, P in enumerate(appell_sequence(n, kmax)):
        if fueter_sce_monomial(n, k + n - 1) != P:
            mismatch = k
            break
    report.record(
        mismatch is None,
        "tau_%d[z^(k+%d)] = P_k^%d exactly for k = 0..%d" % (n, n - 1, n, kmax)
        + ("" if mismatch is None else " (first mismatch at k=%d)" % mismatch),
    )
    surviving = [k for k in range(n - 1) if not fueter_sce_monomial(n, k).is_zero]
    report.record(
        not surviving,
        "tau_%d[z^k] = 0 for all k < %d" % (n, n - 1)
        + ("" if not surviving else " (nonzero at k=%s)" % surviving),
    )
    return report


def verify_monogenic(n: int, kmax: int = 30, oracle_kmax: int = 8) -> SuiteReport:
    """Vekua residuals of P_k^n, with the expanded-operator oracle at small n."""
    require_nonnegative("kmax", kmax)
    require_nonnegative("oracle_kmax", oracle_kmax)
    report = SuiteReport("monogenic")
    # the expanded-operator oracle runs at n <= 5 only
    polys = appell_sequence(n, max(kmax, oracle_kmax if n <= 5 else 0))
    bad = [
        k
        for k in range(kmax + 1)
        if any(not part.is_zero for part in vekua_residual(polys[k]))
    ]
    report.record(
        not bad,
        "vekua_residual(P_k^%d) = (0, 0) for k = 0..%d" % (n, kmax)
        + ("" if not bad else " (nonzero at k=%s)" % bad),
    )
    if n <= 5:
        not_monogenic = [
            k
            for k in range(oracle_kmax + 1)
            if not polycheck.is_monogenic(polycheck.from_axial(polys[k]))
        ]
        report.record(
            not not_monogenic,
            "expanded D P_k^%d = 0 (full operator) for k = 0..%d" % (n, oracle_kmax)
            + ("" if not not_monogenic else " (fails at k=%s)" % not_monogenic),
        )
    return report


def verify_appell_property(n: int, kmax: int = 30) -> SuiteReport:
    """Derivative rule and the value 1 at x = 1.

    This suite pins only c_n^0 of the c-table: the derivative rule holds
    for P_k built from any c-table, and P_k(1) reads only c_n^0.  A
    fault deeper in the table (c_n^s, s >= 1) passes here; theorem1 and
    monogenic are the suites that catch it.
    """
    report = SuiteReport("appell-property")
    polys = appell_sequence(n, kmax)
    prop = appell_property_report(polys)
    report.record(
        prop.holds,
        "d/dx0 P_k^%d = k P_(k-1)^%d for k = 1..%d" % (n, n, kmax)
        + ("" if prop.holds else " (fails at k=%d)" % prop.first_failure),
    )
    one = Paravector(Fraction(1), (Fraction(0),) * n)
    unnormalized = [
        k
        for k, P in enumerate(polys)
        if evaluate(P, one) != Multivector.scalar(n, Fraction(1))
    ]
    report.record(
        not unnormalized,
        "P_k^%d(1) = 1 for k = 0..%d" % (n, kmax)
        + ("" if not unnormalized else " (fails at k=%s)" % unnormalized),
    )
    return report


def verify_recurrence(n: int, spec: series.SeriesSpec, K: int = series.DEFAULT_K) -> SuiteReport:
    """Recurrence test for one series plus the extension comparison."""
    report = SuiteReport("recurrence")
    rec = series.recurrence_check(n, spec, K)
    if rec.holds:
        gamma_text = "unconstrained" if rec.gamma_unconstrained else str(rec.gamma)
        report.record(True, "recurrence holds for %s, gamma = %s" % (spec.name, gamma_text))
    else:
        k, lhs, rhs = rec.first_violation
        report.record(
            False,
            "recurrence fails for %s at k=%d: a_%d = %s, relation demands %s"
            % (spec.name, k, k + n - 1, lhs, rhs),
        )
    comparison = series.compare_extensions(n, spec, K)
    if comparison.equal:
        report.record(True, "tau and eta coefficients agree for k = 0..%d" % K)
    else:
        report.record(
            False,
            "tau and eta first differ at k=%d" % comparison.first_difference,
        )
    return report


def verify_closed_form(n: int, M: int = series.DEFAULT_K, tolerance: float = series.DEFAULT_TOLERANCE) -> SuiteReport:
    """Closed-form solution against iteration, and the exp decomposition."""
    report = SuiteReport("closed-form")
    cases = [
        series.exp_params(n),
        series.ClassParameters(
            n, Fraction(-3, 7), tuple(Fraction(2 + r, 3) for r in range(n - 1))
        ),
    ]
    for params in cases:
        iterated = series.iterate_recurrence(params, M)
        solved = series.solve_recurrence(params, M)
        hyper = [series.closed_form_coefficient(params, m) for m in range(M + 1)]
        report.record(
            solved == iterated,
            "closed-form solution matches recurrence iteration (gamma=%s, m <= %d)"
            % (params.gamma, M),
        )
        report.record(
            hyper == iterated,
            "hypergeometric term weights match iteration (gamma=%s, m <= %d)"
            % (params.gamma, M),
        )
    for z in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
        check = series.exp_decomposition_check(n, z, tolerance)
        report.record(
            check.passes,
            "exp decomposition at z = %s: |error| = %.3g" % (z, check.error),
        )
    return report
