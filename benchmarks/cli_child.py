"""One ``cliffex`` command-line call with timing, and optionally tracing or a fault.

    python3 benchmarks/cli_child.py record=PATH[,trace=PATH][,fault=NAME] -- <cliffex arguments>

Behaves like ``python3 -m cliffex <arguments>`` (same output, same exit
code) and writes to the record path a JSON object with ``main_ms``
(argument parsing plus dispatch), plus the layer summary when ``trace``
is given.
"""

import sys
import time

options = dict(item.split("=", 1) for item in sys.argv[1].split(","))
import cliffex.cli  # noqa: E402

if "fault" in options:
    import workloads

    workloads.FAULTS[options["fault"]](cliffex)
tracer = None
if "trace" in options:
    import tracing

    tracer = tracing.Tracer(options["trace"])
    tracer.install()
    tracer.begin_op(0)
t_main = time.perf_counter()
try:
    code = cliffex.cli.main(sys.argv[3:])
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
t_done = time.perf_counter()
sys.stdout.flush()

import json  # noqa: E402

record = {"main_ms": (t_done - t_main) * 1000}
if tracer is not None:
    tracer.end_op()
    tracer.close()
    record["layers"] = tracer.summary()
with open(options["record"], "w") as handle:
    json.dump(record, handle)
sys.exit(code)
