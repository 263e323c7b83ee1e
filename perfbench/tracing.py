"""Span tracer for the per-layer metrics.

``Tracer.install`` replaces every public function of the oscnoise modules
with a wrapper that records one span per call: name, start, end, the
enclosing span and the operation it belongs to.  Modules call each
other's functions through module attributes, so the wrappers also see the
calls the program makes internally.  Spans are kept in memory in compact
arrays and written out when the run ends.  Self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import array
import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("specfun", "fbm", "spectrum", "leakage", "entropy", "allan", "cli")


def _z_evals(args, kwargs, _result):
    z = kwargs["z"] if "z" in kwargs else args[1]
    return "specfun.hyp2f1_curve.z_evals", int(np.size(z))


def _written_bytes(args, kwargs, _result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return "cli.trace_bytes", os.path.getsize(path)


def _read_bytes(args, kwargs, _result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    return "cli.trace_bytes", os.path.getsize(path)


# counters kept beside call counts and self time, by wrapped function
COUNTERS = {
    "specfun.hyp2f1_curve": _z_evals,
    "cli.write_trace": _written_bytes,
    "cli.read_trace": _read_bytes,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.operation = -1
        self.names: list[str] = []
        self.name_of = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, time covered by children]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import importlib

        for short in MODULES:
            module = importlib.import_module(f"oscnoise.{short}")
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(fn, f"{short}.{name}"))

    def uninstall(self) -> None:
        for module, name, fn in self._saved:
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        tracer = self
        index = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = len(tracer.start)
            tracer.name_of.append(index)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.op.append(tracer.operation)
            tracer.end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                duration = t1 - t0
                tracer.end[span] = t1
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                tracer.counts[key] += amount
            return result

        return traced

    def write(self, path: str) -> None:
        """Write the spans to an .npz file, times relative to the first span.

        Arrays: ``names`` (the name table), and per span ``name`` (index
        into it), ``start_s``, ``end_s``, ``parent`` (span index, -1 for a
        root) and ``operation``.
        """
        t0 = self.start[0] if self.start else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.uint16),
            start_s=np.frombuffer(self.start, dtype=np.float64) - t0,
            end_s=np.frombuffer(self.end, dtype=np.float64) - t0,
            parent=np.frombuffer(self.parent, dtype=np.int64),
            operation=np.frombuffer(self.op, dtype=np.int64),
        )
