"""One pass of one workload in a fresh interpreter.

    python3 benchmarks/worker.py '<json config>'

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's
``src``.  The config names the workload, seed, measured seconds and a
mode: ``plain`` (untraced; also computes the accuracy panel), ``traced``
(per-layer tracing installed) or ``replay`` (untraced, same operations
as a traced pass, for the tracing overhead).  The pass warms up on a
separate seed stream, then runs whole decks, one operation at a time:
a plain pass until the summed operation time reaches the budget, a
traced pass for the number of decks the config gives, a replay for the
number of operations it gives.  Outputs are checked between operations,
outside the timed region.  The last line of stdout
is one JSON object with the raw measurements.
"""

from __future__ import annotations

import json
import math
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference
import workloads
from gauge import probe

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MAX_FAILURE_MESSAGES = 5
CLI_TIMEOUT_S = 60


def warm_up_seconds(seconds: float) -> float:
    return min(2.0, 0.1 * seconds)


class Pass:
    """Counters shared by the in-process and the CLI loop."""

    def __init__(self, cfg):
        self.seconds = cfg["seconds"]
        self.max_ops = cfg.get("max_ops")
        self.max_decks = cfg.get("decks")
        self.latencies: list[float] = []
        self.gauges: list[float] = []  # mean of the gauge probes around each operation
        self.decks: list[tuple[int, float]] = []
        self.failed_ops: set[int] = set()
        self.messages: list[str] = []

    def done(self) -> bool:
        if self.max_ops is not None:
            return len(self.latencies) >= self.max_ops
        if self.max_decks is not None:
            return len(self.decks) >= self.max_decks
        return sum(t for _, t in self.decks) >= self.seconds

    def room(self) -> bool:
        return self.max_ops is None or len(self.latencies) < self.max_ops

    def fail(self, index: int, label: str, message: str) -> None:
        self.failed_ops.add(index)
        if len(self.messages) < MAX_FAILURE_MESSAGES:
            self.messages.append("%s: %s" % (label, message))

    def result(self) -> dict:
        return {
            "attempted": len(self.latencies),
            "failed": len(self.failed_ops),
            "failures": self.messages,
            "latencies": self.latencies,
            "gauges": self.gauges,
            "decks": self.decks,
        }


def run_in_process(cfg, deck_fn) -> dict:
    import cliffex
    import cliffex.verify  # noqa: F401  (the package does not import it)

    if cfg.get("fault"):
        workloads.FAULTS[cfg["fault"]](cliffex)
    tracer = None
    if cfg["mode"] == "traced":
        import tracing

        WORK.mkdir(exist_ok=True)
        spans = WORK / ("trace-%s.spans" % cfg["workload"])
        tracer = tracing.Tracer(spans)
        tracer.install()
    seed = cfg["seed"]
    run = Pass(cfg)
    warm_rng = random.Random("warm-up %d" % seed)
    warm = deck_fn(warm_rng, cliffex, next(workloads.slots(warm_rng)))
    stop = perf_counter() + warm_up_seconds(cfg["seconds"])
    for op in warm:
        try:
            op.call()
        except Exception:  # the measured pass records failures; warm-up only warms
            pass
        if perf_counter() > stop:
            break

    rng = random.Random("measure %d" % seed)
    slots = workloads.slots(random.Random("slots %d" % seed))
    while not run.done():
        deck = deck_fn(rng, cliffex, next(slots))
        deck_time = 0.0
        count = 0
        for op in deck:
            if not run.room():
                break
            index = len(run.latencies)
            if tracer is not None:
                tracer.begin_op(index)
            error = None
            before = probe()
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an unexpected exception is a failed operation
                error = "raised %r" % (exc,)
            elapsed = perf_counter() - t0
            run.gauges.append((before + probe()) / 2)
            if tracer is not None:
                tracer.end_op()
            run.latencies.append(elapsed)
            deck_time += elapsed
            count += 1
            if error is None:
                error = _checked(op.check, result)
            result = None
            if error is not None:
                run.fail(index, op.label, error)
        run.decks.append((count, deck_time))
    out = run.result()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.close()
        out["spans_file"] = str(spans.relative_to(ROOT))
        out["layers"] = [tracer.summary()]
    if cfg["mode"] == "plain":
        out["accuracy"] = accuracy_panel(cliffex)
    return out


def _checked(check, *args):
    try:
        return check(*args)
    except Exception as exc:  # a check that cannot parse the output fails the operation
        return "check raised %r" % (exc,)


def run_cli(cfg) -> dict:
    import cliffex

    seed = cfg["seed"]
    mode = cfg["mode"]
    workdir = WORK / ("cli-%s-seed%d" % (mode, seed))
    workdir.mkdir(parents=True, exist_ok=True)
    for path in workdir.iterdir():
        path.unlink()
    shim = mode != "plain" or cfg.get("fault")
    child = Path(__file__).resolve().parent / "cli_child.py"

    def command(op_id: int, argv):
        if not shim:
            return [sys.executable, "-m", "cliffex"] + argv, None
        record = workdir / ("op%d.json" % op_id)
        options = "record=%s" % record
        if mode == "traced" and op_id >= 0:
            options += ",trace=%s" % (workdir / ("op%d.spans" % op_id))
        if cfg.get("fault"):
            options += ",fault=%s" % cfg["fault"]
        return [sys.executable, str(child), options, "--"] + argv, record

    def call(op_id, op):
        for path, content in op.files.items():
            Path(path).write_text(content)
        cmd, record = command(op_id, op.argv)
        before = probe()
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=CLI_TIMEOUT_S)
        elapsed = perf_counter() - t0
        gauge = (before + probe()) / 2
        info = None
        if record is not None and record.exists():
            info = json.loads(record.read_text())
            record.unlink()
        return proc, elapsed, gauge, info

    warm = workloads.cli_deck(random.Random("warm-up %d" % seed), workdir, -1, cliffex)
    stop = perf_counter() + warm_up_seconds(cfg["seconds"])
    for op in warm:
        call(-1, op)
        if perf_counter() > stop:
            break

    rng = random.Random("measure %d" % seed)
    run = Pass(cfg)
    first_lines: dict = {}
    labels: dict = {}
    main_ms, layers = [], []
    deck_id = 0
    while not run.done():
        deck = workloads.cli_deck(rng, workdir, deck_id, cliffex)
        deck_time = 0.0
        count = 0
        for op in deck:
            if not run.room():
                break
            index = len(run.latencies)
            proc, elapsed, gauge, info = call(index, op)
            run.latencies.append(elapsed)
            run.gauges.append(gauge)
            deck_time += elapsed
            count += 1
            if info is not None:
                main_ms.append(info["main_ms"])
                if "layers" in info:
                    layers.append(info["layers"])
            if proc.returncode != op.code:
                run.fail(index, op.label, "exit code %d, expected %d: %s"
                         % (proc.returncode, op.code, proc.stderr.strip()[-200:]))
                continue
            error = _checked(op.check, proc.stdout, proc.stderr)
            if error is not None:
                run.fail(index, op.label, error)
            if op.pair is not None and proc.stdout:
                kind, n, k = op.pair
                first_lines[(kind, deck_id, n, k)] = proc.stdout.splitlines()[0]
                labels[(kind, deck_id, n, k)] = (index, op.label)
        run.decks.append((count, deck_time))
        deck_id += 1
    for (kind, d, n, k), line in first_lines.items():
        if kind == "fueter" and first_lines.get(("appell", d, n, k), line) != line:
            index, label = labels[(kind, d, n, k)]
            run.fail(index, label, "first line %r differs from appell --k %d" % (line, k))
    for path in workdir.iterdir():
        if path.suffix != ".spans":
            path.unlink()
    if not any(workdir.iterdir()):
        workdir.rmdir()
    out = run.result()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["main_ms"] = main_ms
    if layers:
        out["layers"] = layers
        out["spans_file"] = str(workdir.relative_to(ROOT))
    if mode == "plain":
        out["accuracy"] = accuracy_panel(cliffex)
    return out


# The accuracy panel: fixed, seed-independent float evaluations where the
# float routes are hardest (large |z| and |x|), so its value compares like
# with like across seeds and commits.
PANEL_Z = tuple(Fraction(z) for z in (-30, -20, -10, "-1/2", "1/3", 10, 30))
PANEL_EXTENSIONS = (
    (3, "exp", 120, (0, 30, 0, 0)),
    (5, "cosh", 80, (-10, 20, 0, -10, 0, 5)),
    (7, "sinh", 60, ("1/2", -15, 0, 0, 12, 0, 0, "-7/4")),
)


# Errors below two units in the last place of 1.0 are rounding, not inaccuracy.
ERROR_FLOOR = 2.0**-52


def accuracy_panel(cliffex) -> dict:
    """The float routes on the panel, against exact references.

    Returns eval_max_rel_err (largest relative error, floored at
    ERROR_FLOOR), eval_max_cond_err (largest error in units of EPS times
    the sum of the absolute values of the terms, so that one
    ill-conditioned point cannot hide the others) and the failures:
    results whose error exceeds the a-priori rounding bound the
    operation checks use.
    """
    series = cliffex.series
    relative, conditioned, failures = [], [], []

    def record(label, values, exact, conditions, bounds):
        relative.append(reference.relative_error(values, exact))
        conditioned.append(reference.error_excess(values, exact, [reference.EPS * c for c in conditions]))
        if not reference.error_excess(values, exact, bounds) <= 1:
            failures.append("accuracy panel %s: error beyond its rounding bound" % label)

    cases = [(series.exp_params(n), z) for n in (3, 5, 9) for z in PANEL_Z]
    skewed = series.ClassParameters(5, Fraction(-3, 7), tuple(Fraction(2 + r, 3) for r in range(4)))
    cases += [(skewed, Fraction(z)) for z in (-20, 20)]
    for params, z in cases:
        value = series.closed_form_eval(params, z)
        exact, condition = reference.closed_form_reference(params, z, series.iterate_recurrence)
        record("closed_form_eval n=%d z=%s" % (params.n, z), [value], [exact], [condition],
               [workloads.closed_form_float_bound(params, z, condition)])
    for n, name, K, coords in PANEL_EXTENSIONS:
        x = tuple(Fraction(c) for c in coords)
        ext = series.appell_extension(n, series.get_series(name), K)
        flt = cliffex.evaluate(ext.polynomial, cliffex.Paravector(x[0], x[1:]), mode="float")
        coeffs = [reference.builtin_coefficient(name, k) for k in range(K + 1)]
        scalar, vector = reference.extension_value(n, coeffs, x[0], x[1:])
        abs_scalar, abs_vector = reference.extension_value(n, coeffs, x[0], x[1:], absolute=True)
        record("%s n=%d K=%d" % (name, n, K), [flt.scalar_part()] + list(flt.vector_part()),
               [scalar] + [vector * c for c in x[1:]], [abs_scalar] + [abs_vector * abs(c) for c in x[1:]],
               workloads.extension_float_bounds(n, coeffs, x))
    out = {"eval_max_rel_err": max(float(max(relative)), ERROR_FLOOR),
           "eval_max_cond_err": max(conditioned), "failures": failures}
    if not all(math.isfinite(out[key]) for key in ("eval_max_rel_err", "eval_max_cond_err")):
        raise ArithmeticError("accuracy panel error is not finite")
    return out


def main() -> int:
    cfg = json.loads(sys.argv[1])
    if cfg["workload"] == "cli-cold":
        out = run_cli(cfg)
    else:
        out = run_in_process(cfg, workloads.WORKLOADS[cfg["workload"]])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
