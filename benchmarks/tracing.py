"""Per-layer tracing installed from outside the package.

``Tracer.install`` wraps every public function of the cliffex modules
and every method of ``BivariatePoly``, ``AxialPolynomial`` and
``Multivector``, then rebinds each wrapped function in every cliffex
module that imported it by name (``appell.double_factorial``,
``series.factorial``, ``verify.appell_polynomial``...), so calls made
inside the package go through the wrappers too.

Only calls made inside an operation (between ``begin_op`` and
``end_op``) are recorded, so warm-up and output checks are not.  A
wrapper counts every such call.  It opens a span only when the call
crosses into another layer: the layers are the modules, except that
``series`` is split into the groups named in ``SERIES_GROUPS``.  Spans
are kept in memory as parallel arrays (name, start, end, parent, op id)
while their operation runs.  When it ends (``end_op``), their self times
are added up, a layer's self time being its spans' time minus the time
of their child spans, and they are appended to the spans file, so memory
holds one operation's spans at a time.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from array import array
from time import perf_counter

MODULES = ("exact", "clifford", "axial", "appell", "fueter", "polycheck", "series", "verify", "cli")
REPORTED_MODULES = MODULES[:-1]
CLASSES = {"axial": ("BivariatePoly", "AxialPolynomial"), "clifford": ("Multivector",)}
SERIES_GROUPS = {
    "appell_extension": "series.appell_extension",
    "recurrence_check": "series.recurrence",
    "solve_recurrence": "series.recurrence",
    "solve_recurrence_shifted": "series.recurrence",
    "iterate_recurrence": "series.recurrence",
    "compare_extensions": "series.recurrence",
    "hypergeometric_1f": "series.hyper",
    "closed_form_coefficient": "series.hyper",
    "closed_form_eval": "series.hyper",
}
COUNTED = ("exact.pochhammer", "exact.double_factorial", "appell.c_coeff")
DISTINCT = ("appell.c_coeff", "appell.appell_polynomial")
# Producers whose returned polynomials are measured for axial.terms_out and axial.max_coeff_bits.
PRODUCERS = ("appell.appell_polynomial", "fueter.fueter_sce_monomial", "axial.apply_radial_powers",
             "axial.vekua_residual", "series.appell_extension")
OP = "op"
HOOK = "trace.hook"


def _bits(c) -> int:
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


class Tracer:
    def __init__(self, path):
        self.path = path
        self._file = None
        self.names: list[str] = []
        self.units: list[str] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._fields = (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)
        self._self_s: dict[str, float] = {}
        self._stack = [-1]
        self._unit_stack = [-1]
        self._unit_ids: dict[str, int] = {}
        self.op_id = -1
        self.distinct = {name: set() for name in DISTINCT}
        self.polys_built = 0
        self.terms_out = 0
        self.max_coeff_bits = 0
        self.polycheck_terms = 0
        self._terms = None
        self._op_name_id = self._register(OP, OP)[0]
        self._hook_name_id = self._register(HOOK, HOOK)[0]

    # -- installation -------------------------------------------------

    def _register(self, name: str, unit: str) -> tuple[int, int]:
        self.names.append(name)
        self.units.append(unit)
        self.calls.append(0)
        return len(self.names) - 1, self._unit_ids.setdefault(unit, len(self._unit_ids))

    def _wrap(self, fn, name: str, unit: str, after=None):
        nid, uid = self._register(name, unit)
        calls = self.calls
        stack, unit_stack = self._stack, self._unit_stack
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_op = self.span_parent, self.span_op
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if unit_stack[-1] == uid:
                result = fn(*args, **kwargs)
            else:
                idx = len(s_name)
                s_name.append(nid)
                s_parent.append(stack[-1])
                s_op.append(tracer.op_id)
                s_end.append(0.0)
                stack.append(idx)
                unit_stack.append(uid)
                s_start.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    s_end[idx] = perf_counter()
                    stack.pop()
                    unit_stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _after_hook(self, name: str):
        if name in DISTINCT:
            seen = self.distinct[name]
            record = lambda args, kwargs: seen.add(args + tuple(sorted(kwargs.items())))
        else:
            record = None
        if name in PRODUCERS:
            measure = self._measure
        elif name == "polycheck.from_axial":
            measure = self._count_polycheck
        else:
            measure = None
        if record is None and measure is None:
            return None

        def after(args, kwargs, result):
            if record is not None:
                record(args, kwargs)
            if measure is not None:
                self._outside_layers(measure, result)

        return after

    def _outside_layers(self, measure, result) -> None:
        """Run a measuring hook inside a span of its own, so no layer's self time pays for it."""
        idx = len(self.span_name)
        self.span_name.append(self._hook_name_id)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        measure(result)
        self.span_end[idx] = perf_counter()

    def _measure(self, result) -> None:
        if hasattr(result, "polynomial"):
            result = result.polynomial
        parts = (result.A, result.B) if hasattr(result, "A") else tuple(result)
        for part in parts:
            items = self._terms(part)
            self.terms_out += len(items)
            for _, c in items:
                bits = _bits(c)
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits

    def _count_polycheck(self, result) -> None:
        self.polycheck_terms += sum(1 for _ in result.terms())

    def install(self) -> None:
        """Wrap the package in place.  Call once per process, after importing cliffex."""
        import cliffex

        modules = {name: importlib.import_module("cliffex." + name) for name in MODULES}
        replaced = {}
        for mname, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    qual = "%s.%s" % (mname, name)
                    unit = SERIES_GROUPS.get(name, mname) if mname == "series" else mname
                    replaced[obj] = self._wrap(obj, qual, unit, self._after_hook(qual))
        bivariate = modules["axial"].BivariatePoly
        self._terms = lambda poly, terms=bivariate.terms: list(terms(poly))
        for mname, cnames in CLASSES.items():
            for cname in cnames:
                self._wrap_class(getattr(modules[mname], cname), mname)
        self._count_instances(bivariate)
        for mod in list(modules.values()) + [cliffex]:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    setattr(mod, name, replaced[obj])
        self._file = open(self.path, "wb")
        header = {
            "names": self.names,
            "units": self.units,
            "fields": ["name:int32", "start:float64", "end:float64", "parent:int32", "op:int32"],
            "layout": "after this line one block per operation: an int32 span count n, then n values of "
                      "each field in turn; parent is the index of the parent span in the block, -1 for the root",
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter, seconds",
        }
        self._file.write(json.dumps(header).encode() + b"\n")

    def _wrap_class(self, cls, unit: str) -> None:
        for attr, value in list(vars(cls).items()):
            qual = "%s.%s.%s" % (unit, cls.__name__, attr)
            if isinstance(value, types.FunctionType):
                setattr(cls, attr, self._wrap(value, qual, unit))
            elif isinstance(value, classmethod):
                setattr(cls, attr, classmethod(self._wrap(value.__func__, qual, unit)))
            elif isinstance(value, property):
                setattr(cls, attr, property(self._wrap(value.fget, qual, unit), value.fset, value.fdel, value.__doc__))

    def _count_instances(self, cls) -> None:
        tracer = self

        def counting_new(klass, *args, **kwargs):
            if tracer.op_id >= 0:
                tracer.polys_built += 1
            return object.__new__(klass)

        cls.__new__ = staticmethod(counting_new)

    # -- operations ---------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one benchmark operation."""
        self.op_id = op_id
        nid = self._op_name_id
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(-1)
        self.span_op.append(op_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._unit_stack.append(-2)
        self.span_start.append(perf_counter())

    def end_op(self) -> None:
        """Close the root span, add up the operation's self times and move its spans to the file."""
        idx = self._stack.pop()
        self._unit_stack.pop()
        self.span_end[idx] = perf_counter()
        self.op_id = -1
        count = len(self.span_name)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s, units = self._self_s, self.units
        for i in range(count):
            unit = units[names[i]]
            self_s[unit] = self_s.get(unit, 0.0) + (ends[i] - starts[i]) - child[i]
        array("i", [count]).tofile(self._file)
        for field in self._fields:
            field.tofile(self._file)
            del field[:]

    def close(self) -> None:
        self._file.close()

    # -- results ------------------------------------------------------

    def summary(self) -> dict:
        """Mergeable raw aggregates; see ``merge`` and ``layer_metrics``."""
        calls: dict = {}
        for name, count in zip(self.names, self.calls):
            if count:
                calls[name] = calls.get(name, 0) + count
        return {
            "calls": calls,
            "self_s": dict(self._self_s),
            "distinct": {name: sorted(seen) for name, seen in self.distinct.items()},
            "polys_built": self.polys_built,
            "terms_out": self.terms_out,
            "max_coeff_bits": self.max_coeff_bits,
            "polycheck_terms": self.polycheck_terms,
        }


def merge(summaries) -> dict:
    out = {"calls": {}, "self_s": {}, "distinct": {name: set() for name in DISTINCT},
           "polys_built": 0, "terms_out": 0, "max_coeff_bits": 0, "polycheck_terms": 0}
    for s in summaries:
        for name, count in s["calls"].items():
            out["calls"][name] = out["calls"].get(name, 0) + count
        for unit, sec in s["self_s"].items():
            out["self_s"][unit] = out["self_s"].get(unit, 0.0) + sec
        for name, args in s["distinct"].items():
            out["distinct"][name].update(tuple(_freeze(a) for a in key) for key in args)
        for key in ("polys_built", "terms_out", "polycheck_terms"):
            out[key] += s[key]
        out["max_coeff_bits"] = max(out["max_coeff_bits"], s["max_coeff_bits"])
    out["distinct"] = {name: len(seen) for name, seen in out["distinct"].items()}
    return out


def _freeze(value):
    return tuple(_freeze(v) for v in value) if isinstance(value, list) else value


def layer_metrics(merged: dict) -> dict:
    """The per-layer metric values, named as in BENCHMARK.json (cli.* and trace.* excluded)."""
    calls = merged["calls"]
    self_s = merged["self_s"]
    out = {}
    for module in REPORTED_MODULES:
        out[module + ".calls"] = sum(c for name, c in calls.items() if name.split(".", 1)[0] == module)
        out[module + ".self_s"] = sum(s for unit, s in self_s.items() if unit.split(".", 1)[0] == module)
    for name in COUNTED:
        out[name + ".calls"] = calls.get(name, 0)
    for name in DISTINCT:
        total = calls.get(name, 0)
        out[name + ".distinct_ratio"] = merged["distinct"][name] / total if total else 0.0
    out["axial.polys_built"] = merged["polys_built"]
    out["axial.terms_out"] = merged["terms_out"]
    out["axial.max_coeff_bits"] = merged["max_coeff_bits"]
    out["polycheck.terms"] = merged["polycheck_terms"]
    for group in ("series.appell_extension", "series.recurrence", "series.hyper"):
        out[group + ".self_s"] = self_s.get(group, 0.0)
    return out
