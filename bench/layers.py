"""Per-layer tracing of pirbatch, installed from outside the package.

`Tracer` replaces each traced function by a wrapper that records a span:
its name, start and end (``perf_counter_ns``) and the span that was open
when it started.  A function imported with ``from x import y`` is bound
to several names, so every name in every pirbatch module (and every
class attribute) bound to a traced function is replaced; `missed` lists
the bindings that still reach an original.

`FieldCounter` counts calls of the `gf.Field` operations.  It runs in a
pass of its own, so its wrappers never inflate the self times that the
span pass measures.
"""

from __future__ import annotations

import gzip
import importlib
import json
import pkgutil
import time
from collections import Counter

# (module, attribute) of every traced function; the span is named
# "<module>.<attribute>".
SPANS = (
    ("cli", "main"),
    ("multiplicity", "systematic_view"),
    ("multiplicity", "systematic_encode"),
    ("multiplicity", "line_samples"),
    ("mpoly", "hermite_interpolate"),
    ("mpoly", "homogeneous_interpolate"),
    ("pir", "pir_recovery_plans"),
    ("pir", "recover_symbol"),
    ("batch_mult", "plan_batch"),
    ("array_code", "encode_array"),
    ("array_code", "greedy_slope_set"),
    ("array_code", "plan_array_batch"),
    ("array_code", "plan_five_batch"),
    ("verify", "extract_generator"),
    ("verify", "is_recovering_set"),
    ("verify", "is_recovering_position"),
    ("verify", "GeneratorMatrix.column"),
    ("linalg", "solve_in_span"),
    ("linalg", "row_echelon_with_combos"),
    ("linalg", "solve_in_span_gf2"),
)

# Spans that also record one size per call, read from the arguments.
_SIZES = {
    "linalg.solve_in_span": lambda args: len(args[1]),       # columns
    "verify.extract_generator": lambda args: args[2],         # n
}

GF_OPS = ("add", "sub", "mul", "inv", "pow")

# Self time per session round of the traced pass.
ROUND_SELF_S = {
    "cli.self_s": ("cli.main",),
    "multiplicity.encode_s": ("multiplicity.systematic_encode",),
    "multiplicity.line_samples_s": ("multiplicity.line_samples",),
    "mpoly.interpolate_s": ("mpoly.hermite_interpolate",
                            "mpoly.homogeneous_interpolate"),
    "pir.plans_s": ("pir.pir_recovery_plans",),
    "pir.recover_symbol_s": ("pir.recover_symbol",),
    "batch_mult.plan_s": ("batch_mult.plan_batch",),
    "array_code.encode_s": ("array_code.encode_array",),
    "array_code.plan_greedy_s": ("array_code.plan_array_batch",),
    "array_code.plan_five_s": ("array_code.plan_five_batch",),
    "verify.extract_s": ("verify.extract_generator",),
    "verify.span_check_s": ("verify.is_recovering_set",
                            "verify.is_recovering_position",
                            "verify.GeneratorMatrix.column"),
    "linalg.solve_s": ("linalg.solve_in_span",),
    "linalg.echelon_s": ("linalg.row_echelon_with_combos",),
    "linalg.solve_gf2_s": ("linalg.solve_in_span_gf2",),
}

# Self time in the cold set-up build, the work that `setup_s` pays.
SETUP_SELF_S = {
    "multiplicity.systematic_view_s": ("multiplicity.systematic_view",),
    "array_code.slope_search_s": ("array_code.greedy_slope_set",),
}

# Calls in the count round, which repeats exactly for a given seed.
ROUND_CALLS = {
    "multiplicity.encode_calls": ("multiplicity.systematic_encode",),
    "mpoly.interpolate_calls": ("mpoly.hermite_interpolate",
                                "mpoly.homogeneous_interpolate"),
    "pir.plans_calls": ("pir.pir_recovery_plans",),
    "pir.recover_symbol_calls": ("pir.recover_symbol",),
    "batch_mult.plan_calls": ("batch_mult.plan_batch",),
    "array_code.encode_calls": ("array_code.encode_array",),
    "verify.span_check_calls": ("verify.is_recovering_set",
                                "verify.is_recovering_position"),
    "verify.column_calls": ("verify.GeneratorMatrix.column",),
    "linalg.solve_calls": ("linalg.solve_in_span",),
    "linalg.solve_gf2_calls": ("linalg.solve_in_span_gf2",),
}

_ENCODERS = ("multiplicity.systematic_encode", "array_code.encode_array")

# name -> (unit, better) for every per-layer metric `layer_metrics` returns
PER_LAYER = {
    **{name: ("s", "lower") for name in ROUND_SELF_S},
    **{name: ("s", "lower") for name in SETUP_SELF_S},
    **{name: ("count", "lower") for name in ROUND_CALLS},
    "array_code.five_fallback_requests": ("count", "lower"),
    "array_code.five_fallback_share": ("share", "lower"),
    "verify.extract_encode_calls": ("count", "lower"),
    "verify.extract_useful_ratio": ("ratio", "higher"),
    "linalg.solve_columns_mean": ("columns", "lower"),
    **{f"gf.{op}_calls": ("count", "lower") for op in GF_OPS},
    "trace.overhead_share": ("share", "lower"),
}


def _pirbatch_modules():
    """Every module of the imported pirbatch package."""
    pkg = importlib.import_module("pirbatch")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"pirbatch.{info.name}"))
    return mods


def _namespaces():
    """(owner, dict) for every module and every class defined in one."""
    out = []
    for mod in _pirbatch_modules():
        out.append((mod, vars(mod)))
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out.append((value, vars(value)))
    return out


def _resolve(module, attr):
    owner = importlib.import_module(f"pirbatch.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Spans kept in memory as parallel lists, written out by `dump`."""

    def __init__(self):
        self.names = [f"{m}.{a}" for m, a in SPANS]
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.size = []
        self._stack = []
        self._originals = {}   # id(original) -> original, kept alive
        self._patches = []     # (owner, attribute, original)

    def _wrap(self, sid, fn, size):
        name, start, end = self.name, self.start, self.end
        parent, sizes, stack = self.parent, self.size, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            sizes.append(size(args) if size else 0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = {}
        for sid, (module, attr) in enumerate(SPANS):
            fn = _resolve(module, attr)
            self._originals[id(fn)] = fn
            wrappers[id(fn)] = self._wrap(sid, fn, _SIZES.get(self.names[sid]))
        for owner, ns in _namespaces():
            for key, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(owner, key, wrapper)
                    self._patches.append((owner, key, value))

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def missed(self):
        """Names through which a traced original is still reachable."""
        # the originals are kept alive here, so an id match is the object
        return [f"{getattr(owner, '__name__', owner)}.{key}"
                for owner, ns in _namespaces() for key, value in ns.items()
                if id(value) in self._originals]

    def mark(self):
        return len(self.name)

    def self_ns(self, lo, hi):
        """Self time per span name over spans [lo, hi): duration minus the
        part of it that direct child spans cover."""
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out = Counter()
        for i in range(lo, hi):
            out[self.names[self.name[i]]] += self.end[i] - self.start[i] - child[i - lo]
        return out

    def calls(self, lo, hi):
        return Counter(self.names[self.name[i]] for i in range(lo, hi))

    def dump(self, path, phases):
        """Write every span, with the phase boundaries, as gzipped JSON."""
        spans = list(zip(self.name, self.start, self.end, self.parent))
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "phases": phases,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": spans}, fh)


class FieldCounter:
    """Call counts of the `gf.Field` arithmetic methods."""

    def __init__(self):
        self.counts = Counter({op: 0 for op in GF_OPS})
        self._saved = {}

    def install(self):
        from pirbatch.gf import Field

        for op in GF_OPS:
            orig = vars(Field)[op]
            self._saved[op] = orig
            setattr(Field, op, self._counting(op, orig))

    def _counting(self, op, orig):
        counts = self.counts

        def counted(*args):
            counts[op] += 1
            return orig(*args)

        return counted

    def uninstall(self):
        from pirbatch.gf import Field

        for op, orig in self._saved.items():
            setattr(Field, op, orig)
        self._saved.clear()


def layer_metrics(tracer, counter, phases):
    """Per-layer metrics from the phase boundaries of one traced run.

    ``phases`` holds span index ranges "setup" (the cold in-process build),
    "count" (round 0, run with the field counter) and "traced" (the traced
    rounds, which alternate with untraced ones), plus "traced_rounds" and
    "overhead_share".
    """
    out = {}
    setup = tracer.self_ns(*phases["setup"])
    for metric, names in SETUP_SELF_S.items():
        out[metric] = sum(setup[n] for n in names) / 1e9
    rounds = phases["traced_rounds"]
    traced = tracer.self_ns(*phases["traced"])
    for metric, names in ROUND_SELF_S.items():
        out[metric] = sum(traced[n] for n in names) / 1e9 / rounds
    lo, hi = phases["count"]
    calls = tracer.calls(lo, hi)
    for metric, names in ROUND_CALLS.items():
        out[metric] = sum(calls[n] for n in names)

    sid = {n: i for i, n in enumerate(tracer.names)}
    five, gf2 = sid["array_code.plan_five_batch"], sid["linalg.solve_in_span_gf2"]
    extract, solve = sid["verify.extract_generator"], sid["linalg.solve_in_span"]
    encoders = {sid[n] for n in _ENCODERS}
    fallback = set()
    extract_encodes = extract_rows = solve_columns = 0
    for i in range(lo, hi):
        name, p = tracer.name[i], tracer.parent[i]
        if name == gf2 and p >= lo and tracer.name[p] == five:
            fallback.add(p)
        elif name in encoders and p >= lo and tracer.name[p] == extract:
            extract_encodes += 1
        elif name == extract:
            extract_rows += tracer.size[i]
        elif name == solve:
            solve_columns += tracer.size[i]
    plan_five = calls["array_code.plan_five_batch"]
    out["array_code.five_fallback_requests"] = len(fallback)
    out["array_code.five_fallback_share"] = len(fallback) / plan_five if plan_five else 0.0
    out["verify.extract_encode_calls"] = extract_encodes
    out["verify.extract_useful_ratio"] = (extract_rows / extract_encodes
                                          if extract_encodes else 0.0)
    n_solve = calls["linalg.solve_in_span"]
    out["linalg.solve_columns_mean"] = solve_columns / n_solve if n_solve else 0.0
    for op in GF_OPS:
        out[f"gf.{op}_calls"] = counter.counts[op]
    out["trace.overhead_share"] = phases["overhead_share"]
    return out
