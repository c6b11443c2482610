"""Per-layer tracing of normcensus, done entirely from the benchmark's side.

The tracer replaces chosen functions and methods of the normcensus modules
with wrappers, in the defining module and in every module that imported
them by name, and puts the originals back afterwards.  Functions with a
self-time metric get spans (name, start, end, parent, command id); the hot
arithmetic methods and the rest get call counts only.  Spans of worker
threads that have no open span of their own hang off the command's root span
(cli.main), so a census fanned out over the thread pool still forms one tree.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

# (module, attribute, metric name, fields).  A target with "self_s" gets
# spans; the others only count calls.  "misses" reads the lru_cache counter.
TARGETS = (
    ("cli", "main", "cli.main", ("calls", "self_s")),
    ("census", "verdict", "census.verdict", ("calls", "self_s")),
    ("census", "c_m", "census.c_m", ("calls", "self_s", "per_item")),
    ("census", "predicted_slope", "census.predicted_slope", ("calls",)),
    ("cyclotomic", "CycInt.__mul__", "cyclotomic.CycInt.mul", ("calls",)),
    ("cyclotomic", "CycInt.__add__", "cyclotomic.CycInt.add", ("calls",)),
    ("classgroup", "class_group", "classgroup.class_group", ("misses", "self_s")),
    ("classgroup", "compose", "classgroup.compose", ("calls", "self_s")),
    ("classgroup", "reduce_form", "classgroup.reduce_form", ("calls",)),
    ("classgroup", "frobenius_class", "classgroup.frobenius_class", ("calls",)),
    ("quadfield", "field_data", "quadfield.field_data", ("misses", "self_s")),
    ("quadfield", "QuadElem.__mul__", "quadfield.QuadElem.mul", ("calls",)),
    ("counting", "fundamental_solutions", "counting.fundamental_solutions", ("calls", "self_s", "per_item")),
    ("counting", "count_via_orbits", "counting.count_via_orbits", ("calls", "self_s")),
    ("counting", "brute_count", "counting.brute_count", ("calls",)),
    ("counting", "exact_slope", "counting.exact_slope", ("calls",)),
    ("counting", "calibration", "counting.calibration", ("calls",)),
    ("localdata", "locally_solvable", "localdata.locally_solvable", ("calls", "self_s")),
    ("localdata", "local_density", "localdata.local_density", ("calls", "self_s")),
    ("arith", "factorize", "arith.factorize", ("calls", "self_s")),
    ("arith", "kronecker", "arith.kronecker", ("calls",)),
)

UNITS = {"calls": "calls/op", "self_s": "s/op", "misses": "misses/op", "per_item": "calls/item"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every layer metric the tracer reports."""
    return [(f"{name}.{f}", UNITS[f]) for _, _, name, fields in TARGETS for f in fields]


class Tracer:
    PACKAGE = "normcensus"

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent span, command id]
        self.command = 0
        self.root: list | None = None
        self._local = threading.local()
        self._counters = {name: itertools.count() for _, _, name, _ in TARGETS}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------
    def _span_wrapper(self, fn, name):
        tracer = self
        counter = self._counters[name]

        def traced(*args, **kwargs):
            next(counter)  # atomic under the GIL, unlike += on a shared int
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else tracer.root, tracer.command]
            if tracer.root is None:
                tracer.root = rec
            tracer.spans.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if tracer.root is rec:
                    tracer.root = None

        return traced

    def _count_wrapper(self, fn, name):
        counter = self._counters[name]

        def counted(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = self.PACKAGE
        mods = {k: v for k, v in sys.modules.items() if k == pkg or k.startswith(pkg + ".")}
        for modname, attr, name, fields in TARGETS:
            mod = mods.get(f"{pkg}.{modname}")
            if mod is None:
                continue  # the layer is gone; its metrics read 0
            make = self._span_wrapper if "self_s" in fields else self._count_wrapper
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._set(cls, meth, make(vars(cls)[meth], name))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = make(orig, name)
            for other in mods.values():
                for key, val in list(vars(other).items()):
                    if val is orig:
                        self._set(other, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------
    def calls(self) -> dict[str, int]:
        # next() on a fresh count returns how many times it was advanced
        return {name: next(c) for name, c in self._counters.items()}

    def self_times(self, scale: dict[int, float]) -> dict[str, float]:
        """Normalised self seconds per metric name.

        A span's self time is its length minus the part of it that its child
        spans cover (children of different threads may overlap).  scale maps
        a command id to its normalised/raw time ratio.
        """
        children: dict[int, list[list]] = {}
        for rec in self.spans:
            if rec[3] is not None:
                children.setdefault(id(rec[3]), []).append(rec)
        out: dict[str, float] = {}
        for rec in self.spans:
            start, end = rec[1], rec[2]
            covered, reach = 0.0, start
            for c in sorted(children.get(id(rec), ()), key=lambda r: r[1]):
                lo, hi = max(c[1], reach), min(c[2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[rec[0]] = out.get(rec[0], 0.0) + (end - start - covered) * scale.get(rec[4], 1.0)
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent line, command."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as fh:
            for rec in self.spans:
                parent = index.get(id(rec[3])) if rec[3] is not None else None
                fh.write(json.dumps([rec[0], rec[1], rec[2], parent, rec[4]]) + "\n")
