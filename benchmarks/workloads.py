"""The four seeded workloads: their operation decks and output checks.

Every workload is a stream of decks.  A deck holds one operation for
each size class of the workload's stated mix, in seeded random order,
with the exact sizes and inputs drawn inside each class.  A run always
measures whole decks, so every run measures the same size mix and the
seed only changes the inputs.  The in-process deck functions take a
``Slot``: the deck's index in the run and its position in [0, 1), where
in each size class the deck's sizes lie.  Successive decks of a run
step by the golden ratio from a seeded start (``slots``), so that every
run covers each class evenly whatever the seed.

In-process operations are ``Op(label, call, check)``: ``call()`` is
timed, ``check(result)`` runs afterwards and returns ``None`` or a
failure message.  CLI operations are ``CliOp``: an argument list, the
exit code it must give and a check of its output.  Values that may be
negative are passed as ``--opt=value`` so argparse cannot read them as
options.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import reference

DIMS = (3, 5, 7, 9)
BUILTINS = ("exp", "sinh", "cosh")


@dataclass
class Op:
    label: str
    call: Callable
    check: Callable


@dataclass
class CliOp:
    label: str
    argv: list
    code: int
    check: Callable  # (stdout, stderr) -> message or None
    pair: Optional[tuple] = None  # (("appell"|"fueter"), n, k): first lines must agree
    files: dict = field(default_factory=dict)  # path -> content, written before the call


def rational(rng: random.Random, top: int = 9) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, top))


def class_member(rng: random.Random, n: int):
    """A random member (gamma, initial) of the recurrence class."""
    gamma = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    return gamma, tuple(rational(rng) for _ in range(n - 1))


def point(rng: random.Random, n: int, radius: int) -> tuple:
    """n+1 rational coordinates on a 1/4 grid with |x| <= radius."""
    bound = int(4 * radius / math.sqrt(n + 1))
    return tuple(Fraction(rng.randint(-bound, bound), 4) for _ in range(n + 1))


def _expect_pass(report) -> Optional[str]:
    if not report.passed or not report.lines:
        return "expected PASS, got %s" % "; ".join(report.lines)
    return None


def _expect_verdict(expected: bool):
    def check(report):
        if report.passed != expected:
            return "expected %s, got %s" % ("PASS" if expected else "FAIL", "; ".join(report.lines))
        return None

    return check


# -- identities ---------------------------------------------------------

IDENTITY_BANDS = ((10, 27), (28, 45), (46, 63), (64, 80))


GOLDEN = (math.sqrt(5) - 1) / 2


class Slot(NamedTuple):
    index: int  # the deck's number in the run
    position: float  # where in each size class the deck's sizes lie, in [0, 1)


def slots(rng: random.Random):
    """The slots of the successive decks of a run: a seeded start, then golden-ratio steps.

    Any run of d decks then has sizes spread over each class about as
    evenly as d points can be, from whichever start, so the latency
    quantiles hardly depend on the seed while the sizes still do.
    """
    position = rng.random()
    for index in itertools.count():
        yield Slot(index, position)
        position = (position + GOLDEN) % 1


def band_draw(lo: int, hi: int, position: float) -> int:
    """The integer at `position` in [0, 1) of lo..hi."""
    return lo + int(position * (hi - lo + 1))


def identities_deck(rng: random.Random, cliffex, slot: Slot) -> list:
    verify = cliffex.verify
    suites = {
        "theorem1": lambda n, k: verify.verify_theorem1(n, k),
        "monogenic": lambda n, k: verify.verify_monogenic(n, k),
        "appell-property": lambda n, k: verify.verify_appell_property(n, k),
    }
    ops = []
    for name, run in suites.items():
        for n in DIMS:
            for lo, hi in IDENTITY_BANDS:
                kmax = band_draw(lo, hi, slot.position)
                ops.append(Op("%s n=%d kmax=%d" % (name, n, kmax), _bind(run, n, kmax), _expect_pass))
    rng.shuffle(ops)
    return ops


def _bind(fn, *args):
    return lambda: fn(*args)


# -- extension ----------------------------------------------------------

# Eight bands with geometric edges over K = 20..160: the cost grows like K^3,
# so equal-ratio bands keep every band's share of the run time bounded.
# The dense kinds (exp, rational) cost about twice the sparse ones (sinh,
# cosh, half of whose coefficients vanish), so the bands alternate sparse
# and dense, with the top band dense: the slowest eighth of the operations,
# where op_p90_ms lies, is then one class.  Each band alternates between
# the two kinds of its class from deck to deck.
SPARSE, DENSE = ("sinh", "cosh"), ("exp", "rational")
EXTENSION_EDGES = tuple(round(20 * 8 ** (i / 8)) for i in range(9))
EXTENSION_RADIUS = 30


def extension_deck(rng: random.Random, cliffex, slot: Slot) -> list:
    series, axial = cliffex.series, cliffex.axial
    ops = []
    for band, (lo, hi) in enumerate(zip(EXTENSION_EDGES, EXTENSION_EDGES[1:])):
        kind = (DENSE if band % 2 else SPARSE)[(band // 2 + slot.index) % 2]
        K = band_draw(lo, hi - 1 if hi < EXTENSION_EDGES[-1] else hi, slot.position)
        n = rng.choice(DIMS)
        if kind == "rational":
            coeffs = [rational(rng) for _ in range(K + 1)]
            spec = series.from_coefficients("rational", coeffs)
        else:
            coeffs = [reference.builtin_coefficient(kind, k) for k in range(K + 1)]
            spec = series.get_series(kind)
        x = point(rng, n, EXTENSION_RADIUS)
        ops.append(Op(
            "extension %s n=%d K=%d x=%s" % (kind, n, K, ",".join(map(str, x))),
            _extension_call(series, axial, cliffex.Paravector, n, spec, K, x),
            _extension_check(cliffex, n, coeffs, x),
        ))
    rng.shuffle(ops)
    return ops


def _extension_call(series, axial, Paravector, n, spec, K, x):
    px = Paravector(x[0], x[1:])

    def call():
        ext = series.appell_extension(n, spec, K)
        return ext, axial.evaluate(ext.polynomial, px), axial.evaluate(ext.polynomial, px, mode="float")

    return call


def _extension_check(cliffex, n, coeffs, x):
    def check(result):
        ext, exact, flt = result
        if [a for _, a in ext.coefficients] != coeffs:
            return "coefficient list differs"
        one = cliffex.Paravector(Fraction(1), (Fraction(0),) * n)
        at_one = cliffex.evaluate(ext.polynomial, one)
        if at_one != cliffex.Multivector.scalar(n, sum(coeffs)):
            return "value at x = 1 is %s, not the coefficient sum" % at_one
        scalar, vector = reference.extension_value(n, coeffs, x[0], x[1:])
        want = [scalar] + [vector * c for c in x[1:]]
        got = [exact.scalar_part()] + list(exact.vector_part())
        if exact.max_grade() > 1 or got != want:
            return "exact value differs from the binomial-form sum"
        values = [flt.scalar_part()] + list(flt.vector_part())
        if not all(isinstance(v, (int, float)) for v in values):
            return "float value has a part that is not a number: %s" % flt
        return _float_check(values, want, extension_float_bounds(n, coeffs, x))

    return check


def extension_float_bounds(n, coeffs, x) -> list:
    """Per-component error bounds of the float evaluation: roundings x EPS x condition."""
    scalar, vector = reference.extension_value(n, coeffs, x[0], x[1:], absolute=True)
    unit = reference.extension_rounding_bound(len(coeffs) - 1) * reference.EPS
    return [unit * scalar] + [unit * vector * abs(c) for c in x[1:]]


def _float_check(values, exact, bounds) -> Optional[str]:
    excess = reference.error_excess(values, exact, bounds)
    if not excess <= 1:
        return "float error is %.3g times its rounding bound" % excess
    return None


# -- closed-form --------------------------------------------------------

CLOSED_FORM_BANDS = tuple((m, m + 19) for m in range(40, 220, 20)) + ((220, 240),)
CLOSED_FORM_RADIUS = 30


def _series_case(rng, series, kind: str, n: int, length: int):
    """(spec, coefficient list) for a built-in name, a class member or random rationals."""
    if kind in series.BUILTIN_SERIES:
        return series.get_series(kind), [reference.builtin_coefficient(kind, k) for k in range(length)]
    if kind == "class":
        gamma, initial = class_member(rng, n)
        coeffs = reference.class_series(n, gamma, initial, length)
    else:
        coeffs = [rational(rng) for _ in range(length)]
    return series.from_coefficients(kind, coeffs), coeffs


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """One integer from each of `count` equal slices of lo..hi, in random order."""
    edges = [lo + (hi + 1 - lo) * i // count for i in range(count + 1)]
    draws = [rng.randint(a, b - 1) for a, b in zip(edges, edges[1:])]
    rng.shuffle(draws)
    return draws


def closed_form_deck(rng: random.Random, cliffex, slot: Slot) -> list:
    series, verify = cliffex.series, cliffex.verify
    ops = []
    offset = rng.randrange(len(DIMS))
    for i, (lo, hi) in enumerate(CLOSED_FORM_BANDS):
        n, M = DIMS[(i + offset) % len(DIMS)], band_draw(lo, hi, slot.position)
        ops.append(Op("closed-form n=%d M=%d" % (n, M),
                      _bind(lambda n, M: verify.verify_closed_form(n, M), n, M), _expect_pass))
    # K and n are stratified too: these cheap operations hold the deck's median latency
    kinds = BUILTINS + ("geometric", "class", "random") + ("compare class", "compare random")
    for i, (kind, K) in enumerate(zip(kinds, stratified(rng, 20, 80, len(kinds)))):
        n = DIMS[(i + offset) % len(DIMS)]
        spec, coeffs = _series_case(rng, series, kind.split()[-1], n, K + n)
        expected = reference.recurrence_holds(n, coeffs, K)
        if kind.startswith("compare"):
            ops.append(Op("%s n=%d K=%d" % (kind, n, K),
                          _bind(lambda n, spec, K: series.compare_extensions(n, spec, K), n, spec, K),
                          _compare_check(coeffs, K, expected)))
        else:
            ops.append(Op("recurrence %s n=%d K=%d" % (kind, n, K),
                          _bind(lambda n, spec, K: verify.verify_recurrence(n, spec, K), n, spec, K),
                          _expect_verdict(expected)))
    for i, z8 in enumerate(stratified(rng, 1, 8 * CLOSED_FORM_RADIUS, 8)):
        n = DIMS[(i + offset) % len(DIMS)]
        gamma, initial = (Fraction(1), None) if i % 2 == 0 else class_member(rng, n)
        params = series.exp_params(n) if initial is None else series.ClassParameters(n, gamma, initial)
        z = Fraction(rng.choice([-1, 1]) * z8, 8)
        ops.append(Op("closed_form_eval n=%d gamma=%s z=%s" % (n, params.gamma, z),
                      _bind(lambda params, z: series.closed_form_eval(params, z), params, z),
                      _closed_form_float_check(params, z, series.iterate_recurrence)))
    rng.shuffle(ops)
    return ops


def _compare_check(coeffs, K, expected):
    def check(report):
        if report.equal != expected or report.recurrence.holds != expected:
            return "expected agreement %s, got equal=%s holds=%s" % (expected, report.equal, report.recurrence.holds)
        if [row.eta for row in report.rows] != coeffs[: K + 1]:
            return "eta coefficients differ from the series"
        return None

    return check


# hypergeometric_1f's default tolerance: it stops once a term is below a tenth of it
HYPER_TOLERANCE = Fraction(1, 10**12)


def closed_form_float_bound(params, z, condition) -> Fraction:
    """Error bound of closed_form_eval: roundings x EPS x condition, plus truncation.

    Each of the n-1 hypergeometric sums stops at an absolute tolerance
    and is then multiplied by a_r z^r, so the truncation allowance is the
    tolerance times sum_r |a_r z^r|.
    """
    outer = sum(abs(params.initial[r] * z**r) for r in range(params.n - 1))
    return reference.closed_form_rounding_bound(params.n) * reference.EPS * condition + HYPER_TOLERANCE * outer


def _closed_form_float_check(params, z, iterate_recurrence):
    def check(value):
        if not isinstance(value, float):
            return "not a float: %r" % (value,)
        exact, condition = reference.closed_form_reference(params, z, iterate_recurrence)
        return _float_check([value], [exact], [closed_form_float_bound(params, z, condition)])

    return check


# -- cli-cold -----------------------------------------------------------

CLI_EVAL_TOLERANCE = Fraction(1, 10**9)


def cli_deck(rng: random.Random, workdir, deck_id: int, cliffex) -> list:
    ops = []
    for n in DIMS:
        k = rng.randint(0, 12)
        ops.append(CliOp("appell n=%d k=%d" % (n, k), ["appell", "--n", str(n), "--k", str(k)], 0,
                         _appell_check(n, k), pair=("appell", n, k)))
        ops.append(CliOp("fueter n=%d k=%d" % (n, k + n - 1), ["fueter", "--n", str(n), "--k", str(k + n - 1)], 0,
                         _fueter_check(n, k + n - 1), pair=("fueter", n, k)))
    for i, kind in enumerate((rng.choice(BUILTINS + ("geometric",)), "class", "random")):
        n, K = rng.choice(DIMS), rng.randint(5, 40)
        if kind in BUILTINS + ("geometric",):
            coeffs = [reference.builtin_coefficient(kind, k) for k in range(K + n)]
            ops.append(CliOp("compare %s n=%d K=%d" % (kind, n, K),
                             ["compare", "--n", str(n), "--series", kind, "--K", str(K)], 0,
                             _cli_compare_check(coeffs, K, reference.recurrence_holds(n, coeffs, K))))
            continue
        if kind == "class":
            gamma, initial = class_member(rng, n)
            coeffs = reference.class_series(n, gamma, initial, K + n)
        else:
            coeffs = [rational(rng) for _ in range(K + n)]
        path = str(workdir / ("coeffs-%d-%d.txt" % (deck_id, i)))
        ops.append(CliOp("compare --coeffs %s n=%d K=%d" % (kind, n, K),
                         ["compare", "--n", str(n), "--coeffs", path, "--K", str(K)], 0,
                         _cli_compare_check(coeffs, K, reference.recurrence_holds(n, coeffs, K)),
                         files={path: "# seeded %s series\n%s\n" % (kind, "\n".join(map(str, coeffs)))}))
    for _ in range(2):
        n = rng.choice(DIMS)
        gamma, initial = class_member(rng, n)
        z = Fraction(rng.choice([-1, 1]) * rng.randint(1, 24), 8)
        params = cliffex.series.ClassParameters(n, gamma, initial)
        ops.append(CliOp("eval closed-form n=%d z=%s" % (n, z),
                         ["eval", "--n", str(n), "--closed-form", "--gamma=%s" % gamma,
                          "--init=" + ",".join(map(str, initial)), "--z=%s" % z], 0,
                         _closed_form_eval_check(params, z, cliffex)))
    n, K, kind = rng.choice(DIMS), rng.randint(4, 16), rng.choice(BUILTINS)
    x = tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(n + 1))
    ops.append(CliOp("eval series %s n=%d K=%d" % (kind, n, K),
                     ["eval", "--n", str(n), "--series", kind, "--point=" + ",".join(map(str, x)), "--K", str(K)], 0,
                     _series_eval_check(n, [reference.builtin_coefficient(kind, k) for k in range(K + 1)], x)))
    for _ in range(3):
        n = rng.choice(DIMS)
        suite = rng.choice(("theorem1", "monogenic", "appell-property", "closed-form", "recurrence"))
        if suite == "closed-form":
            argv = ["verify", suite, "--n", str(n), "--M", str(rng.randint(10, 40))]
        elif suite == "recurrence":
            argv = ["verify", suite, "--n", str(n), "--series", rng.choice(BUILTINS), "--K", str(rng.randint(10, 40))]
        else:
            argv = ["verify", suite, "--n", str(n), "--kmax", str(rng.randint(1, 12))]
        ops.append(CliOp(" ".join(argv), argv, 0, _verdict_check("PASS")))
    n = rng.choice(DIMS)
    argv = ["verify", "recurrence", "--n", str(n), "--series", "geometric", "--K", str(rng.randint(10, 40))]
    ops.append(CliOp(" ".join(argv), argv, 1, _verdict_check("FAIL")))
    n = rng.choice(DIMS)
    argv = rng.choice((
        ["appell", "--n", str(n + 1), "--k", "3"],
        ["eval", "--n", str(n), "--closed-form", "--z", "1"],
        ["eval", "--n", str(n), "--series", "exp", "--point", "1,2"],
        ["compare", "--n", str(n), "--coeffs", str(workdir / "missing.txt")],
    ))
    ops.append(CliOp("user error: " + " ".join(argv), argv, 2, _user_error_check))
    rng.shuffle(ops)
    return ops


def _appell_check(n, k):
    def check(out, err):
        lines = out.splitlines()
        if len(lines) != k + 2:
            return "expected %d lines, got %d" % (k + 2, len(lines))
        for j, line in enumerate(lines[1:]):
            want = "c[%d] = " % j
            if not line.startswith(want) or Fraction(line[len(want):]) != reference.restriction_constant(n, j):
                return "c-table line %r differs from the double-factorial formula" % line
        return None

    return check


def _fueter_check(n, k):
    # alpha = (-1)^((n-1)/2) (n-2)!! (k-n+1)!/k!
    sign = -1 if ((n - 1) // 2) % 2 else 1
    alpha = Fraction(sign * reference.double_factorial(n - 2) * math.factorial(k - n + 1), math.factorial(k))

    def check(out, err):
        lines = out.splitlines()
        if len(lines) != 2 or not lines[1].startswith("alpha = ") or Fraction(lines[1][8:]) != alpha:
            return "alpha line differs from (-1)^((n-1)/2) (n-2)!! (k-n+1)!/k!: %r" % lines[1:]
        return None

    return check


def _cli_compare_check(coeffs, K, expected):
    def check(out, err):
        doc = json.loads(out)
        rows = doc["coefficients"]
        if doc["holds"] != expected or all(row["equal"] for row in rows) != expected:
            return "expected agreement %s, got holds=%s" % (expected, doc["holds"])
        if [Fraction(row["eta"]) for row in rows] != coeffs[: K + 1]:
            return "eta coefficients differ from the series"
        return None

    return check


def _closed_form_eval_check(params, z, cliffex):
    def check(out, err):
        want, _ = reference.closed_form_reference(params, z, cliffex.series.iterate_recurrence)
        error = reference.relative_error([float(out.strip())], [want])
        if error > CLI_EVAL_TOLERANCE:
            return "relative error %.3g against the exact sum" % error
        return None

    return check


def _series_eval_check(n, coeffs, x):
    def check(out, err):
        got = parse_paravector(out.strip(), n)
        scalar, vector = reference.extension_value(n, coeffs, x[0], x[1:])
        error = reference.relative_error(got, [scalar] + [vector * c for c in x[1:]])
        if error > CLI_EVAL_TOLERANCE:
            return "relative error %.3g against the exact sum" % error
        return None

    return check


def parse_paravector(text: str, n: int) -> list:
    """Inverse of the CLI's 'a + b e1 - c e3' float rendering."""
    values = [0.0] * (n + 1)
    parts = re.split(r" ([+-]) ", text)
    sign = 1.0
    for i, part in enumerate(parts):
        if i % 2:
            sign = -1.0 if part == "-" else 1.0
            continue
        number, _, blade = part.partition(" e")
        values[int(blade) if blade else 0] += sign * float(number)
    return values


def _verdict_check(verdict):
    def check(out, err):
        lines = out.splitlines()
        if not lines or lines[-1] != verdict:
            return "expected %s, got %r" % (verdict, lines[-1:] or out)
        return None

    return check


def _user_error_check(out, err):
    if out or "error" not in err:
        return "expected only an error message on stderr"
    return None


WORKLOADS = {
    "cli-cold": cli_deck,
    "identities": identities_deck,
    "extension": extension_deck,
    "closed-form": closed_form_deck,
}


def break_c_coeff(cliffex) -> None:
    """The fault of acceptance criterion 10: c_n^0 becomes 2 instead of 1."""
    original = cliffex.appell.c_coeff
    cliffex.appell.c_coeff = lambda n, k: Fraction(2) if k == 0 else original(n, k)


def break_floats(cliffex) -> None:
    """Float results of closed_form_eval and of float evaluate off by a relative 1e-9."""
    series, bivariate = cliffex.series, cliffex.axial.BivariatePoly
    closed_form_eval, evaluate = series.closed_form_eval, bivariate.evaluate
    series.closed_form_eval = lambda *args, **kwargs: closed_form_eval(*args, **kwargs) * (1 + 1e-9)

    def skewed(self, x0, r):
        value = evaluate(self, x0, r)
        return value * (1 + 1e-9) if isinstance(value, float) else value

    bivariate.evaluate = skewed


# Faults the self-test induces, by name: each breaks the package in place.
FAULTS = {"c_coeff": break_c_coeff, "float": break_floats}
