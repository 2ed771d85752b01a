"""Self-test of the benchmark harness at tiny size (about a minute).

    python3 benchmarks/selftest.py

Checks that
1. every workload, untraced and traced, prints exactly the metrics that
   BENCHMARK.json names, each as a ``name = value unit`` line and in the
   final JSON line, with no failed operation;
2. the fault of acceptance criterion 10 (``appell.c_coeff`` returns 2 at
   k = 0) makes fail_ratio positive on identities and cli-cold, and float
   results off by a relative 1e-9 make it positive on extension and
   closed-form;
3. in a directory holding only BENCHMARK.json and the benchmark's own
   files, the benchmark exits nonzero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = "1"


def check(ok: bool, what: str, failures: list) -> None:
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def metrics_printed(failures: list) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in run.WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", SECONDS, "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT, timeout=170)
            lines = proc.stdout.strip().splitlines()
            what = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0 or not lines:
                check(False, "%s exits 0 (%s)" % (what, proc.stderr.strip()[-300:]), failures)
                continue
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"], what + ": result keys", failures)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  what + ": correct with no failed operation", failures)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted, what + ": JSON metrics and units match BENCHMARK.json", failures)
            text = {line.split(" = ", 1)[0]: line.rsplit(" ", 1)[-1] for line in lines[:-1] if " = " in line}
            check(all(text.get(name) == unit for name, unit in wanted.items()),
                  what + ": every metric printed as 'name = value unit'", failures)


def fault_detected(failures: list) -> None:
    for workload, fault in (("identities", "c_coeff"), ("cli-cold", "c_coeff"),
                            ("extension", "float"), ("closed-form", "float")):
        result, lines = run.measure(workload, 7, float(SECONDS), trace=False, fault=fault)
        ratio = result["failed"] / result["attempted"]
        check(ratio > 0 and not result["correct"],
              "%s: %s fault gives fail_ratio %.3f > 0" % (workload, fault, ratio), failures)


def bare_directory(failures: list) -> None:
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "identities", "--seed", "1",
                           "--seconds", SECONDS, "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=170)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "without the sources: exit %d and no result" % proc.returncode, failures)


def main() -> int:
    failures: list = []
    metrics_printed(failures)
    fault_detected(failures)
    bare_directory(failures)
    print("selftest: %s" % ("PASS" if not failures else "FAIL (%d)" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
