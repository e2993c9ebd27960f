"""Span tracer that wraps evlight's public functions from outside the package.

Layers are the modules of ``evlight`` listed in ``LAYERS``. Every public
module-level function of a layer, and every public method (plus ``__init__``,
reported as ``init``) of the classes a layer defines, is replaced by a wrapper
that records one span: name, parent span, operation index, start and end.
A function is replaced under every name it is bound to across the package
(``cli`` imports ``voxelize`` and ``enhance_file`` by name, ``model`` imports
``read_image`` and ``light_up``...), so call sites see the same wrapper as the
defining module. ``Tensor`` and ``Parameter`` are left alone: their methods
are attribute plumbing, and the ops they forward to are traced already.

Spans stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import inspect
import itertools
import sys
import time
import tracemalloc
import types
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "model", "blocks", "lightup", "tensor", "_kernels", "events",
          "image", "module", "training")

# The forward pass also reports its allocation peak; tracemalloc runs only
# inside this span, so the rest of a traced operation is not slowed by it.
ALLOC_SPAN = "model.EvLightModel.forward"

# Work counted at a span boundary: events entering the voxel grid.
COUNTERS = {"events.voxelize": lambda args, result: len(args[0])}


def layer_label(module_name: str) -> str:
    """``evlight._kernels`` -> ``kernels`` (metric names start with a letter)."""
    return module_name.rsplit(".", 1)[1].lstrip("_")


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    parent: int  # -1 for a span with no traced caller
    op: int
    name: str
    t0: float
    t1: float
    nbytes: int  # bytes of the ndarray the call returned, 0 otherwise
    count: int   # work counted by COUNTERS, 0 otherwise


def _traced_class(cls: type) -> bool:
    from evlight.tensor import Tensor
    return not issubclass(cls, (BaseException, Tensor))


def _targets() -> list[tuple[object, str, object, str]]:
    """(owner, attribute, original, span name) for every binding to wrap."""
    names: dict[int, str] = {}
    out = []
    for short in LAYERS:
        mod = sys.modules[f"evlight.{short}"]
        label = layer_label(mod.__name__)
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)):
                names[id(obj)] = f"{label}.{attr}"
            elif (isinstance(obj, type) and obj.__module__ == mod.__name__
                  and _traced_class(obj)):
                for meth, fn in vars(obj).items():
                    if (not isinstance(fn, types.FunctionType)
                            or inspect.isgeneratorfunction(fn)):
                        continue
                    if meth == "__init__" and not dataclasses.is_dataclass(obj):
                        out.append((obj, meth, fn, f"{label}.{attr}.init"))
                    elif not meth.startswith("_"):
                        out.append((obj, meth, fn, f"{label}.{attr}.{meth}"))
    # a function is named after its public binding in the defining module
    # (kernels.im2col for _im2col_np) and wrapped under every name it has
    owners = [sys.modules["evlight"]] + [m for k, m in list(sys.modules.items())
                                         if k.startswith("evlight.")]
    for mod in owners:
        for attr, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and id(obj) in names:
                out.append((mod, attr, obj, names[id(obj)]))
    return out


class Tracer:
    """Installs span-recording wrappers; ``op`` tags spans with an operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.alloc_peaks: list[tuple[int, int]] = []  # (op, bytes)
        self.op = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._wrappers: dict[int, object] = {}
        self._patches = [(owner, attr, orig, self._wrapper(orig, name))
                         for owner, attr, orig, name in _targets()]
        self.installed = False

    def _wrapper(self, fn, name: str):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        spans, stack, ids = self.spans, self._stack, self._ids
        counter = COUNTERS.get(name)
        alloc = name == ALLOC_SPAN
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if alloc:
                tracemalloc.start()
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if alloc:
                    self.alloc_peaks.append((self.op, tracemalloc.get_traced_memory()[1]))
                    tracemalloc.stop()
                nbytes = result.nbytes if isinstance(result, np.ndarray) else 0
                count = counter(args, result) if counter and result is not None else 0
                spans.append(Span(sid, parent, self.op, name, t0, t1, nbytes, count))

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def install(self) -> None:
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, orig, _wrapper in self._patches:
            setattr(owner, attr, orig)
        self.installed = False

    def write(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow([fld.name for fld in dataclasses.fields(Span)])
            for s in sorted(self.spans, key=lambda s: s.id):
                writer.writerow(dataclasses.astuple(s))

    def summarize(self, ops: dict[int, tuple[float, float]]) -> dict:
        """Per-operation means over the traced operations ``ops`` (op -> t0, t1).

        Returns ``{"fn": {name: {calls, self_s, total_s, mib, count}},
        "layer": {label: {calls, self_s, total_s}}, "top_share": ...,
        "alloc_peak_mib": ...}``. A span's self time is its duration minus
        that of its direct children; a layer's total counts only spans
        whose caller is in another layer, so nested calls count once.
        """
        spans = [s for s in self.spans if s.op in ops]
        by_id = {s.id: s for s in spans}
        child = defaultdict(float)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.t1 - s.t0
        fn = defaultdict(lambda: defaultdict(float))
        layer = defaultdict(lambda: defaultdict(float))
        top = defaultdict(float)
        for s in spans:
            dur = s.t1 - s.t0
            rec = fn[s.name]
            rec["calls"] += 1
            rec["self_s"] += dur - child[s.id]
            rec["total_s"] += dur
            rec["mib"] += s.nbytes / 2**20
            rec["count"] += s.count
            lab = s.name.split(".", 1)[0]
            lrec = layer[lab]
            lrec["calls"] += 1
            lrec["self_s"] += dur - child[s.id]
            parent = by_id.get(s.parent)
            if parent is None or parent.name.split(".", 1)[0] != lab:
                lrec["total_s"] += dur
            if s.parent < 0:
                op0, op1 = ops[s.op]
                top[s.op] += max(0.0, min(s.t1, op1) - max(s.t0, op0))
        n = max(1, len(ops))
        shares = [top[op] / (t1 - t0) for op, (t0, t1) in ops.items() if t1 > t0]
        peaks = [b for op, b in self.alloc_peaks if op in ops]
        return {
            "fn": {k: {m: v / n for m, v in rec.items()} for k, rec in fn.items()},
            "layer": {k: {m: v / n for m, v in rec.items()} for k, rec in layer.items()},
            "top_share": float(np.median(shares)) if shares else 0.0,
            "alloc_peak_mib": max(peaks) / 2**20 if peaks else 0.0,
        }
