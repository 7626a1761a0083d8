"""Spans around fbk's public functions, installed from outside the program.

`Recorder.install()` wraps every public function of each fbk module and
rebinds it wherever fbk holds a reference, including names one fbk module
imported from another, so calls between layers are recorded as well.
`uninstall()` puts the originals back. Each span is kept in memory as
(name, parent, case, start, end) and written out by `save()`.

`geometric_product` is not wrapped: the Clifford product calls it once per
pair of rotors, hundreds of thousands of times a round, and its time stays
in the self time of whichever lift function called it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

import fbk

LAYERS = ("numkit", "spinlift", "framedlink", "tracer", "scenarios")
NOT_WRAPPED = frozenset({"spinlift.geometric_product"})
REFINE = "spinlift.refine"
# Functions whose result is a traced loop, or a list of them.
TRACED_LOOPS = ("tracer.trace_component", "tracer.section_zero_loops")


class Recorder:
    """Spans of the calls into fbk, kept in memory; `case` tags each new span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.case = -1
        self.traced_samples = 0
        self._originals: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        name_id = self._name_id(name)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name_id, parent, self.case, start, end)

    def wrap(self, name: str, fn):
        if name == "spinlift.loop_class":
            return self._wrap_loop_class(fn)
        if name in TRACED_LOOPS:
            return self._wrap_traced_loops(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_loop_class(self, fn):
        # Refiner evaluations are timed on the loop handed to loop_class.
        @functools.wraps(fn)
        def loop_class(loop, *args, **kwargs):
            refiner = loop.refiner
            if refiner is not None:
                loop.refiner = functools.partial(self.span, REFINE, refiner)
            try:
                return self.span("spinlift.loop_class", fn, loop, *args, **kwargs)
            finally:
                loop.refiner = refiner

        return loop_class

    def _wrap_traced_loops(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            loops = out if isinstance(out, list) else [out]
            self.traced_samples += sum(len(loop) for loop in loops)
            return out

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "fbk" or key.startswith("fbk.")]
        wrappers = {}
        for layer in LAYERS:
            module = getattr(fbk, layer)
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in NOT_WRAPPED
                ):
                    wrappers[id(obj)] = self.wrap(name, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._originals.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self):
        for module, attr, obj in self._originals:
            setattr(module, attr, obj)
        self._originals = []

    def summary(self) -> dict:
        """Per name: calls, total and self nanoseconds (self = span minus child spans)."""
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        child = [0] * len(self.spans)
        for name_id, parent, _case, start, end in self.spans:
            calls[name_id] += 1
            total[name_id] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = [0] * len(self.names)
        for index, (name_id, _parent, _case, start, end) in enumerate(self.spans):
            own[name_id] += end - start - child[index]
        return {
            name: {"calls": calls[i], "total_ns": total[i], "self_ns": own[i]}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str):
        """Write the spans as an (n, 5) int64 array plus the name table."""
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        np.savez_compressed(path, spans=table, names=np.array(self.names))
