"""cliffex benchmark: one seeded workload, measured end to end or traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --all [--seed N] [--seconds S]

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src``.  Workloads: cli-cold, identities, extension,
closed-form (see README.md).  Each run is a closed loop with one client
and one operation in flight.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same operations once traced and once
untraced and prints the per-layer metrics.  Every metric is printed as
``name = value unit``; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  ``--all``
runs every workload untraced and prints each block in turn.  The exit
code is 1 when an operation failed its check, 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from gauge import REFERENCE_S, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "eval_max_rel_err": "ratio",
    "eval_max_cond_err": "ratio",
}
PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio", "polys_built": "count",
                   "terms_out": "count", "max_coeff_bits": "bits", "terms": "count", "interp_ms": "ms",
                   "import_ms": "ms", "main_ms": "ms", "overhead_ratio": "ratio"}

PROBES = 8  # interpreter pairs per setup probe, taken before and again after the measured pass
# Spawn to ready of a bare interpreter on the uncontended reference host (Python 3.11, 2 vCPUs).
REFERENCE_INTERP_S = 0.045
CLI_SAMPLE_OPS = 19  # one cli-cold deck
# Traced plus untraced seconds of one deck on the reference host: a traced
# run traces seconds / TRACED_DECK_S decks, a count fixed by the arguments
# alone, so the per-layer totals do not depend on the host's speed, and
# the traced pass and its replay together take about `seconds`.
TRACED_DECK_S = {"cli-cold": 6.0, "identities": 5.0, "extension": 2.4, "closed-form": 2.6}
WORKER_TIMEOUT_S = 150


class HarnessError(Exception):
    """The benchmark itself could not measure (as opposed to a failed operation)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("CLIFFEX_LMAX", None)
    return env


def run_child(cmd, timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own session; on timeout or interruption kill the session and reap it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError("%s did not finish within %d s" % (" ".join(map(str, cmd[:3])), timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def probe_setup(module: str) -> list:
    """[(bare spawn-to-ready s, spawn-to-`module`-imported s, ms of the import alone)] for fresh interpreters.

    Each pair spawns a bare interpreter and then one that imports
    `module`, back to back, so both see the same host state.  The child
    reports its monotonic clock after the import; on Linux that clock is
    shared by all processes, so spawn-to-ready is measured directly
    rather than including interpreter shutdown.
    """
    out = []
    for i in range(PROBES + 1):
        pair = []
        for name in ("time", module):
            code = ("import time; t0 = time.monotonic(); import %s; t1 = time.monotonic(); print(repr(t0), repr(t1))"
                    % name)
            spawned = time.monotonic()
            proc = run_child([sys.executable, "-c", code], 30)
            if proc.returncode != 0:
                raise HarnessError("import %s failed: %s" % (name, proc.stderr.strip()[-300:]))
            t0, t1 = map(float, proc.stdout.split())
            if not spawned <= t0 <= t1:
                raise HarnessError("child clock is not comparable with the parent's")
            pair.append((t1 - spawned, (t1 - t0) * 1000))
        if i:  # the first pair only warms the file cache and bytecode
            out.append((pair[0][0], pair[1][0], pair[1][1]))
    return out


def setup_seconds(setups) -> float:
    """Spawn-to-import time as on a host where a bare interpreter starts in REFERENCE_INTERP_S.

    The median over pairs of (import spawn / bare spawn) cancels the
    host's speed, which moves both alike; only the import changes it.
    """
    return REFERENCE_INTERP_S * statistics.median(ready / bare for bare, ready, _ in setups)


def run_worker(config: dict) -> dict:
    proc = run_child([sys.executable, str(BENCH / "worker.py"), json.dumps(config)], WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError("worker failed (%s): %s" % (config["mode"], proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_decks(workload: str, seconds: float) -> int:
    return max(1, round(seconds / TRACED_DECK_S[workload]))


def timing_metrics(latencies) -> dict:
    """ops_per_s, op_p50_ms and op_p90_ms from operation times in seconds."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, fault=None):
    """Run one workload, with the named fault of workloads.FAULTS if given.

    Returns (result dict for the JSON line, report lines).
    """
    config = {"workload": workload, "seed": seed, "seconds": seconds, "fault": fault}
    setup_module = "cliffex.cli" if workload == "cli-cold" else "cliffex"
    setups = probe_setup(setup_module)
    lines = ["workload %s  seed %d  seconds %g  trace %d  python %s  cpus %d"
             % (workload, seed, seconds, trace, sys.version.split()[0], os.cpu_count() or 0)]
    if not trace:
        plain = run_worker(dict(config, mode="plain"))
        setups += probe_setup(setup_module)  # so the setup median spans the run's host states
        metrics = timing_metrics(scale(plain["latencies"], plain["gauges"]))
        metrics["setup_s"] = setup_seconds(setups)
        raw = timing_metrics(plain["latencies"])
        metrics["peak_rss_mb"] = plain["peak_rss_kb"] / 1024
        metrics["eval_max_rel_err"] = plain["accuracy"]["eval_max_rel_err"]
        metrics["eval_max_cond_err"] = plain["accuracy"]["eval_max_cond_err"]
        plain["failures"] += plain["accuracy"]["failures"]
        units = END_TO_END
        passes = [plain]
        lines.append("samples: %d operations in %d decks (%.2f s measured); setup from %d interpreter pairs"
                     % (plain["attempted"], len(plain["decks"]), sum(plain["latencies"]), len(setups)))
        lines.append("host gauge: median probe %.3f ms (reference %.3f ms); unscaled: %s, setup_s = %.6g"
                     % (statistics.median(plain["gauges"]) * 1000, REFERENCE_S * 1000,
                        ", ".join("%s = %.6g" % item for item in raw.items()),
                        statistics.median(ready for _, ready, _ in setups)))
    else:
        import tracing

        traced = run_worker(dict(config, mode="traced", decks=traced_decks(workload, seconds)))
        replay = run_worker(dict(config, mode="replay", max_ops=traced["attempted"]))
        metrics = tracing.layer_metrics(tracing.merge(traced.get("layers", [])))
        metrics["cli.interp_ms"] = statistics.median(bare for bare, _, _ in setups) * 1000
        metrics["cli.import_ms"] = statistics.median(ms for _, _, ms in setups)
        if workload != "cli-cold":  # one deck of CLI calls, so the cli layer is measured on every workload
            replay["main_ms"] = run_worker(dict(config, workload="cli-cold", mode="replay",
                                                max_ops=CLI_SAMPLE_OPS))["main_ms"]
        metrics["cli.main_ms"] = statistics.median(replay["main_ms"])
        metrics["trace.overhead_ratio"] = (sum(scale(traced["latencies"], traced["gauges"]))
                                           / sum(scale(replay["latencies"], replay["gauges"])))
        units = {name: PER_LAYER_UNITS[name.rsplit(".", 1)[1]] for name in metrics}
        passes = [traced, replay]
        lines.append("samples: %d operations in %d decks traced (%.2f s), replayed untraced (%.2f s); spans in %s"
                     % (traced["attempted"], len(traced["decks"]), sum(traced["latencies"]),
                        sum(replay["latencies"]), traced.get("spans_file")))
    if not trace:
        lines.append("cli.interp_ms = %.3f ms  (bare interpreter, host drift indicator)"
                     % (statistics.median(bare for bare, _, _ in setups) * 1000))
    attempted = passes[0]["attempted"]
    failed = passes[0]["failed"]
    lines.append("fail_ratio = %.6g  (%d of %d operations failed)" % (failed / attempted, failed, attempted))
    for p in passes:
        lines += ["failure: " + message for message in p["failures"]]
    lines += ["%s = %r %s" % (name, value, units[name]) for name, value in metrics.items()]
    result = {
        "correct": all(p["failed"] == 0 and not p["failures"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_child kills the running child's session first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if (args.workload is None) == (not args.all):
        parser.error("give exactly one of --workload and --all")
    if args.all and args.trace:
        parser.error("--all runs untraced; trace one --workload at a time")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "cliffex" / "__init__.py").is_file():
        print("error: no cliffex sources at %s" % (SRC / "cliffex"), file=sys.stderr)
        return 2
    code = 0
    for workload in WORKLOAD_NAMES if args.all else (args.workload,):
        try:
            result, lines = measure(workload, args.seed, args.seconds, bool(args.trace))
        except HarnessError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
