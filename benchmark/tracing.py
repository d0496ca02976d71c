"""Spans around the public calls into each layer, kept in memory.

The traced run wraps the program's public functions from the benchmark's
side: for the CLI workloads the wrappers replace names in the
``hmimo.sweep`` namespace (and the names ``hmimo.cli`` imported from it),
for the library workloads they wrap the benchmark's own direct calls.
Each span records its name, start, end, parent span and thread.  Per-call
memory peaks come from ``tracemalloc``, which only the traced run starts.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import tracemalloc
from contextlib import contextmanager

MIB = float(1 << 20)

# Wrapped name -> span name (layer.function).
SPAN_NAMES = {
    "assemble_ocm": "green.assemble_ocm",
    "assemble_pscm": "separable.assemble_pscm",
    "assemble_fscm": "separable.assemble_fscm",
    "nmse": "metrics.nmse",
    "eigenchannel_decompose": "capacity.decompose",
    "capacity": "capacity.capacity",
    "load_spec": "sweep.spec",
    "validate_spec": "sweep.spec",
    "write_rows": "sweep.write",
    "run_distance_sweep": "sweep.run",
    "run_element_sweep": "sweep.run",
}
ASSEMBLERS = ("assemble_ocm", "assemble_pscm", "assemble_fscm")
ROOTS = ("sweep.run", "round")
VARIANTS = ("OCM", "PSCM", "PSCM123", "PSCM12", "FSCM")

PER_LAYER = (
    ("capacity.decompose_s", "s"),
    *((f"capacity.decompose_{v}_s", "s") for v in VARIANTS),
    ("capacity.decompose_calls", "count"),
    ("capacity.capacity_s", "s"),
    ("green.assemble_ocm_s", "s"),
    ("green.assemble_ocm_calls", "count"),
    ("separable.assemble_pscm_s", "s"),
    ("separable.assemble_fscm_s", "s"),
    ("separable.assemble_calls", "count"),
    ("metrics.nmse_s", "s"),
    ("metrics.nmse_calls", "count"),
    ("green.assemble_ocm_peak_mb", "MiB"),
    ("separable.assemble_pscm_peak_mb", "MiB"),
    ("green.result_mb", "MiB"),
    ("separable.result_mb", "MiB"),
    ("sweep.self_s", "s"),
    ("sweep.spec_s", "s"),
    ("sweep.write_s", "s"),
    ("sweep.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Collects spans and the facts the checks need from wrapped calls."""

    def __init__(self):
        self.spans = []
        self.decompositions = []
        self.output_bytes = 0
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._in_flight = 0
        self._matrix_point = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, **attrs):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else (self.root["id"] if self.root else None),
            "thread": threading.get_ident(),
            **attrs,
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    @contextmanager
    def root_span(self, name):
        with self.span(name) as record:
            self.root = record
            try:
                yield record
            finally:
                self.root = None

    def wrap(self, attr, fn):
        """A stand-in for ``fn`` that records one span per call."""
        name = SPAN_NAMES[attr]
        if attr in ("run_distance_sweep", "run_element_sweep"):
            def run_wrapper(*args, **kwargs):
                with self.root_span(name):
                    return fn(*args, **kwargs)
            return run_wrapper
        if attr in ASSEMBLERS:
            return self._wrap_assembler(name, fn)

        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attr == "eigenchannel_decompose":
                    green = args[0]
                    record["variant"] = green.variant
                    self.decompositions.append({
                        "point": self._matrix_point.get(id(green)),
                        "variant": green.variant,
                        "p_used": int(result.p_used),
                        "gains": [float(g) for g in result.gains[: max(8, result.p_used)]],
                    })
                elif attr == "write_rows":
                    self.output_bytes += len(result.encode("utf-8"))
                return result
        return wrapper

    def _wrap_assembler(self, name, fn):
        def wrapper(tx, rx, link, k0, *rest, **kwargs):
            with self._lock:
                if self._in_flight == 0:
                    tracemalloc.reset_peak()
                self._in_flight += 1
            base = tracemalloc.get_traced_memory()[0]
            try:
                with self.span(name) as record:
                    result = fn(tx, rx, link, k0, *rest, **kwargs)
                    record["variant"] = result.variant
                    record["peak_mb"] = max(0, tracemalloc.get_traced_memory()[1] - base) / MIB
                    record["result_mb"] = result.matrix.nbytes / MIB
            finally:
                with self._lock:
                    self._in_flight -= 1
            self._matrix_point[id(result)] = [int(tx.count), float(link.d0)]
            return result
        return wrapper

    def install(self, modules):
        """Replace every wrapped name that each module defines."""
        for module in modules:
            for attr in SPAN_NAMES:
                if hasattr(module, attr):
                    setattr(module, attr, self.wrap(attr, getattr(module, attr)))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _union(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(spans, output_bytes):
    """Per-layer sums over one traced round.

    ``sweep.self_s`` is the wall time of the root spans (the ``run_*`` call
    for CLI workloads, the round for library workloads) minus the union of
    the wrapped spans inside them.
    """
    def pick(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in pick(name))

    decompose = pick("capacity.decompose")
    pscm, fscm = pick("separable.assemble_pscm"), pick("separable.assemble_fscm")
    ocm = pick("green.assemble_ocm")
    m = {
        "capacity.decompose_s": total("capacity.decompose"),
        "capacity.decompose_calls": len(decompose),
        "capacity.capacity_s": total("capacity.capacity"),
        "green.assemble_ocm_s": total("green.assemble_ocm"),
        "green.assemble_ocm_calls": len(ocm),
        "separable.assemble_pscm_s": total("separable.assemble_pscm"),
        "separable.assemble_fscm_s": total("separable.assemble_fscm"),
        "separable.assemble_calls": len(pscm) + len(fscm),
        "metrics.nmse_s": total("metrics.nmse"),
        "metrics.nmse_calls": len(pick("metrics.nmse")),
        "green.assemble_ocm_peak_mb": max((s["peak_mb"] for s in ocm), default=0.0),
        "separable.assemble_pscm_peak_mb": max((s["peak_mb"] for s in pscm), default=0.0),
        "green.result_mb": sum(s["result_mb"] for s in ocm),
        "separable.result_mb": sum(s["result_mb"] for s in pscm + fscm),
        "sweep.spec_s": _union([(s["start"], s["end"]) for s in pick("sweep.spec")]),
        "sweep.write_s": total("sweep.write"),
        "sweep.output_bytes": output_bytes,
    }
    for v in VARIANTS:
        m[f"capacity.decompose_{v}_s"] = sum(
            s["end"] - s["start"] for s in decompose if s.get("variant") == v)
    self_s = 0.0
    roots = [(s["start"], s["end"]) for s in spans if s["name"] in ROOTS]
    inner = [s for s in spans if s["name"] not in ROOTS]
    for a, b in roots:
        clipped = [(max(a, s["start"]), min(b, s["end"])) for s in inner
                   if s["end"] > a and s["start"] < b]
        self_s += (b - a) - _union(clipped)
    m["sweep.self_s"] = self_s
    return m
