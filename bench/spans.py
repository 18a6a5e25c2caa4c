"""In-memory spans around calls into obsprune's modules.

The library binds names with ``from .x import y``, so a caller looks a
function up in its *own* module.  ``Tracer.install`` therefore replaces the
function object in every loaded ``obsprune`` module that holds it, and
``uninstall`` puts the originals back; ``recording`` does both around a
block.  Spans record name, start, end, parent and op id; nothing is
written until ``dump``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import sys
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _activation_bytes(args, kwargs, result):
    return {"bytes_in": sum(np.asarray(b).nbytes
                            for b in _arg(args, kwargs, 0, "activations"))}


def _matrix_bytes(args, kwargs, result):
    return {"bytes_in": np.asarray(_arg(args, kwargs, 0, "m")).nbytes}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _gate(args, kwargs, result):
    return {"gate_fired": int(result.was_reordered)}


#: (defining module, function, attribute counter run after the call)
TARGETS = (
    ("calibration", "raw_hessian", _activation_bytes),
    ("calibration", "bundle_from_hessian", None),
    ("calibration", "column_norms", None),
    ("reorder", "importance_scores", None),
    ("reorder", "loss_profile", None),
    ("reorder", "build_reorder_plan", _gate),
    ("tensors", "apply_column_permutation", _matrix_bytes),
    ("engine", "prune_layer", None),
    ("engine", "select_block_mask", None),
    ("engine", "reconstruction_error", None),
    ("baselines", "magnitude_prune", None),
    ("baselines", "wanda_prune", None),
    ("rtns", "read_tensor", _file_bytes),
    ("rtns", "write_tensor", _file_bytes),
    ("cli", "main", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "child_s")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = {}
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Records nested spans for the calls listed in ``TARGETS``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = None

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.seconds
            if counter is not None:
                span.attrs = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "obsprune" or key.startswith("obsprune.")]
        for module_name, fn_name, counter in TARGETS:
            original = getattr(importlib.import_module(f"obsprune.{module_name}"),
                               fn_name)
            traced = self._wrap(f"{module_name}.{fn_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def recording(self, op):
        """Trace every call made inside the block, tagging spans with ``op``."""
        self.install()
        self.op = op
        try:
            yield
        finally:
            self.op = None
            self.uninstall()

    def call_cost(self) -> float:
        """Seconds one wrapped call adds to a call, measured on a no-op.

        The median of 5 rounds of 20,000 calls; the no-op's spans are
        dropped again.
        """
        calls = 20000

        def noop():
            return None

        traced = self._wrap("noop", noop, None)
        kept = len(self.spans)
        costs = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t1 = perf_counter()
            for _ in range(calls):
                traced()
            t2 = perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
            del self.spans[kept:]
        return statistics.median(costs)

    def totals(self, ops) -> dict[str, dict[str, float]]:
        """Per span name: seconds, self seconds, calls and summed attributes."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.op not in ops:
                continue
            agg = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg["s"] += span.seconds
            agg["self_s"] += span.self_seconds
            agg["calls"] += 1
            for key, value in span.attrs.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        doc = [
            {"name": s.name, "start": s.start - t0, "end": s.end - t0,
             "self_s": s.self_seconds, "parent": s.parent, "op": s.op,
             **s.attrs}
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(doc, f)


#: per-layer metric name -> (span name, field, unit, source); source "ops"
#: averages over traced ops, "setup" over traced set-ups
PER_LAYER = {
    "calibration.raw_hessian.s": ("calibration.raw_hessian", "s", "s", "ops"),
    "calibration.raw_hessian.calls": ("calibration.raw_hessian", "calls", "count", "ops"),
    "calibration.raw_hessian.bytes_in": ("calibration.raw_hessian", "bytes_in", "B", "ops"),
    "calibration.bundle_from_hessian.s": ("calibration.bundle_from_hessian", "s", "s", "ops"),
    "calibration.bundle_from_hessian.calls": ("calibration.bundle_from_hessian", "calls", "count", "ops"),
    "calibration.column_norms.s": ("calibration.column_norms", "s", "s", "ops"),
    "calibration.hessian_builds_per_layer": ("calibration.bundle_from_hessian", "calls", "count", "ops"),
    "reorder.importance_scores.s": ("reorder.importance_scores", "s", "s", "ops"),
    "reorder.loss_profile.s": ("reorder.loss_profile", "s", "s", "ops"),
    "reorder.build_reorder_plan.s": ("reorder.build_reorder_plan", "s", "s", "ops"),
    "reorder.gate_fired": ("reorder.build_reorder_plan", "gate_fired", "count", "ops"),
    "tensors.apply_column_permutation.s": ("tensors.apply_column_permutation", "s", "s", "ops"),
    "tensors.apply_column_permutation.calls": ("tensors.apply_column_permutation", "calls", "count", "ops"),
    "tensors.apply_column_permutation.bytes_in": ("tensors.apply_column_permutation", "bytes_in", "B", "ops"),
    "engine.prune_layer.s": ("engine.prune_layer", "s", "s", "ops"),
    "engine.prune_layer.self_s": ("engine.prune_layer", "self_s", "s", "ops"),
    "engine.prune_layer.calls": ("engine.prune_layer", "calls", "count", "ops"),
    "engine.select_block_mask.s": ("engine.select_block_mask", "s", "s", "ops"),
    "engine.select_block_mask.calls": ("engine.select_block_mask", "calls", "count", "ops"),
    "engine.reconstruction_error.s": ("engine.reconstruction_error", "s", "s", "ops"),
    "engine.reconstruction_error.calls": ("engine.reconstruction_error", "calls", "count", "ops"),
    "baselines.magnitude_prune.s": ("baselines.magnitude_prune", "s", "s", "ops"),
    "baselines.wanda_prune.s": ("baselines.wanda_prune", "s", "s", "ops"),
    "rtns.read_tensor.s": ("rtns.read_tensor", "s", "s", "ops"),
    "rtns.read_tensor.calls": ("rtns.read_tensor", "calls", "count", "ops"),
    "rtns.read_tensor.bytes": ("rtns.read_tensor", "bytes", "B", "ops"),
    # the sweep writes no tensor itself; its inputs are written in set-up
    "rtns.write_tensor.s": ("rtns.write_tensor", "s", "s", "setup"),
    "rtns.write_tensor.bytes": ("rtns.write_tensor", "bytes", "B", "setup"),
    "cli.main.self_s": ("cli.main", "self_s", "s", "ops"),
}


def per_layer_metrics(tracer: Tracer, op_ids, setup_ids) -> dict[str, dict]:
    """Per-layer metrics per traced op (or per traced set-up)."""
    sources = {"ops": (tracer.totals(set(op_ids)), len(op_ids)),
               "setup": (tracer.totals(set(setup_ids)), len(setup_ids))}
    metrics = {}
    for metric, (span, field, unit, source) in PER_LAYER.items():
        totals, count = sources[source]
        value = totals.get(span, {}).get(field, 0) / max(count, 1)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
