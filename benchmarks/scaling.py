"""Scaling report: per-layer timings along n and k, with cProfile hot spots.

    python3 benchmarks/scaling.py [--repeats 3] [--out benchmarks/results/scaling.json]

An artefact, not a workload: it has no seed and no bound.  For every
n in {3, 5, 7, 9} and size k (or K, M) in {20, 40, 80, 160} it times one
entry point per layer (median of --repeats runs, each in this process)
and profiles one further run, keeping the top five functions by own
time.  The polycheck oracle is desk-scale, so it runs at degree k/20 and
only for n <= 5.  The JSON file holds every point; a Markdown summary
with the medians and the growth exponent between k = 80 and k = 160 is
written next to it.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import os
import platform
import pstats
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cliffex import appell, axial, clifford, fueter, polycheck, series, verify  # noqa: E402

DIMS = (3, 5, 7, 9)
SIZES = (20, 40, 80, 160)


def _point(n):
    return clifford.Paravector(Fraction(1, 2), tuple(Fraction((-1) ** i * (i + 1), 7) for i in range(n)))


def _prepared(build, run):
    """An entry whose input is built outside the timed call."""
    return lambda n, k: (lambda value=build(n, k): run(value))


# (layer, entry point, factory(n, k) -> zero-argument call or None to skip)
ENTRIES = (
    ("exact", "appell.c_table (double factorials)", lambda n, k: lambda: appell.c_table(n, k)),
    ("exact", "series.closed_form_coefficient m<=k (pochhammer)",
     lambda n, k: lambda p=series.exp_params(n): [series.closed_form_coefficient(p, m) for m in range(k + 1)]),
    ("clifford", "clifford.paravector_power", lambda n, k: lambda x=_point(n): clifford.paravector_power(x, k)),
    ("axial", "axial.apply_radial_powers on z^(k+n-1)",
     _prepared(lambda n, k: (fueter.monomial_split(k + n - 1), n),
               lambda v: axial.apply_radial_powers((v[0].u, v[0].v), v[1]))),
    ("axial", "axial.vekua_residual(P_k)",
     _prepared(lambda n, k: appell.appell_polynomial(n, k), axial.vekua_residual)),
    ("axial", "axial.evaluate(P_k, x) exact",
     _prepared(lambda n, k: (appell.appell_polynomial(n, k), _point(n)), lambda v: axial.evaluate(*v))),
    ("appell", "appell.appell_polynomial", lambda n, k: lambda: appell.appell_polynomial(n, k)),
    ("fueter", "fueter.fueter_sce_monomial(k+n-1)", lambda n, k: lambda: fueter.fueter_sce_monomial(n, k + n - 1)),
    ("polycheck", "polycheck.is_monogenic(from_axial(P_(k/20)))",
     lambda n, k: None if n > 5 else _prepared(
         lambda n, k: appell.appell_polynomial(n, k // 20),
         lambda P: polycheck.is_monogenic(polycheck.from_axial(P)))(n, k)),
    ("series", "series.appell_extension(exp, K)", lambda n, k: lambda: series.appell_extension(n, series.EXP, k)),
    ("series", "series.compare_extensions(exp, K)", lambda n, k: lambda: series.compare_extensions(n, series.EXP, k)),
    ("series", "series.hypergeometric_1f exact, terms=K",
     lambda n, k: lambda: series.hypergeometric_1f(
         Fraction(1), [Fraction(r, n - 1) for r in range(1, n)], Fraction(1, 2), terms=k)),
    ("series", "series.closed_form_eval(exp, z=-k/8)",
     lambda n, k: lambda p=series.exp_params(n): series.closed_form_eval(p, Fraction(-k, 8))),
    ("verify", "verify theorem1 kmax=k", lambda n, k: lambda: verify.verify_theorem1(n, k)),
    ("verify", "verify monogenic kmax=k", lambda n, k: lambda: verify.verify_monogenic(n, k)),
    ("verify", "verify appell-property kmax=k", lambda n, k: lambda: verify.verify_appell_property(n, k)),
    ("verify", "verify recurrence exp K=k", lambda n, k: lambda: verify.verify_recurrence(n, series.EXP, k)),
    ("verify", "verify closed-form M=k", lambda n, k: lambda: verify.verify_closed_form(n, k)),
)


def top_functions(call, count: int = 5) -> list:
    profile = cProfile.Profile()
    profile.enable()
    call()
    profile.disable()
    stats = pstats.Stats(profile).stats
    rows = sorted(stats.items(), key=lambda item: -item[1][2])[:count]
    return [{"function": "%s:%d(%s)" % (Path(f).name, line, name), "calls": nc, "tottime_s": round(tt, 6)}
            for (f, line, name), (cc, nc, tt, ct, callers) in rows]


def sweep(repeats: int) -> list:
    points = []
    for layer, entry, factory in ENTRIES:
        for n in DIMS:
            for k in SIZES:
                call = factory(n, k)
                if call is None:
                    continue
                times = []
                for _ in range(repeats):
                    t0 = perf_counter()
                    call()
                    times.append(perf_counter() - t0)
                points.append({"layer": layer, "entry": entry, "n": n, "k": k,
                               "median_s": statistics.median(times), "runs_s": times,
                               "top5": top_functions(call)})
                print("%-10s %-48s n=%d k=%-3d %.4f s" % (layer, entry, n, k, points[-1]["median_s"]), flush=True)
    return points


def markdown(points, header) -> str:
    out = ["# cliffex scaling report", "", header, "",
           "Median seconds per call; `exp` is the growth exponent log2(t(160)/t(80)).", "",
           "| layer | entry point | n | k=20 | k=40 | k=80 | k=160 | exp |", "|---|---|---|---|---|---|---|---|"]
    rows: dict = {}
    for p in points:
        rows.setdefault((p["layer"], p["entry"], p["n"]), {})[p["k"]] = p["median_s"]
    for (layer, entry, n), by_k in rows.items():
        growth = math.log2(by_k[160] / by_k[80]) if by_k.get(80) and by_k.get(160) else float("nan")
        cells = ["%.4g" % by_k[k] if k in by_k else "-" for k in SIZES]
        out.append("| %s | %s | %d | %s | %.2f |" % (layer, entry, n, " | ".join(cells), growth))
    out += ["", "Top functions by own time (cProfile) at k = 160 per layer and n:", ""]
    for p in points:
        if p["k"] == 160:
            out.append("- %s, %s, n=%d: %s" % (p["layer"], p["entry"], p["n"],
                                                 "; ".join("%s %.3fs" % (f["function"], f["tottime_s"])
                                                           for f in p["top5"])))
    return "\n".join(out) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent / "results" / "scaling.json"))
    args = parser.parse_args()
    host = {"python": sys.version.split()[0], "platform": platform.platform(), "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine()}
    points = sweep(args.repeats)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"host": host, "repeats": args.repeats, "points": points}, indent=1) + "\n")
    header = "Host: Python %(python)s on %(platform)s, %(cpus)s CPUs (%(processor)s)." % host
    out.with_suffix(".md").write_text(markdown(points, header))
    return 0


if __name__ == "__main__":
    sys.exit(main())
