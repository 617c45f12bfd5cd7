"""Spans around lagdelta's public functions, recorded from outside the program.

Every public function of the layer modules is wrapped, and the wrapper is
installed at each name a caller looks it up by: module attributes (aliases
such as ``from .numdiff import jacobian as fd_jacobian`` included) and
module-level dict values such as ``gallery.GALLERY``.  Private helpers
(``_descend``, ``_PairSet``, ``_best_assignment``) are left alone.

Spans stay in memory as ``(name, start, end, parent, op)`` tuples, where
``parent`` is the index of the enclosing span (-1 at top level) and ``op``
is the benchmark operation that was running.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "lagdelta"
LAYER_MODULES = ("frames", "cubic", "delta", "inequalities", "fields",
                 "immersions", "numdiff", "gallery", "cli")

# Functions whose DeltaDiagnostics are summed into the delta.* counts.
_DIAGNOSED = ("delta.delta_invariant", "delta.delta_invariant_batch")


class Tracer:
    """Wraps the layer functions; ``install`` patches the wrappers in."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []
        self._wrappers: dict[int, tuple] = {}
        for modname in LAYER_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(obj, f"{modname}.{name}")
                self._wrappers[id(obj)] = (obj, wrapper)

    def _lookup(self, value):
        entry = self._wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    def install(self):
        if self._patches:
            return
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            space = vars(mod)
            for key, value in list(space.items()):
                wrapper = self._lookup(value)
                if wrapper is not None:
                    self._patches.append((space, key, value))
                    space[key] = wrapper
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        wrapper = self._lookup(v)
                        if wrapper is not None:
                            self._patches.append((value, k, v))
                            value[k] = wrapper

    def uninstall(self):
        for space, key, original in reversed(self._patches):
            space[key] = original
        self._patches.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        hook = self._count_diagnostics if name in _DIAGNOSED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(result)
            return result

        return traced

    def _count_diagnostics(self, result):
        diags = result[2]
        if not isinstance(diags, list):
            diags = [diags]
        c = self.counts
        # one descent loop serves the whole batch, so its count is per call
        c["delta.iterations"] += diags[0].iterations
        c["delta.assignment_rounds"] += sum(d.assignment_rounds
                                            for d in diags)
        c["delta.unconverged"] += sum(d.unconverged for d in diags)
        c["delta.restarts_converged"] += sum(d.restarts_converged
                                             for d in diags)
        c["delta.restarts_attempted"] += sum(d.restarts for d in diags)

    def layer_totals(self, ops) -> dict:
        """Per function: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its direct child
        spans cover; children of one span never overlap, since the
        program is single-threaded.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for sid, (name, start, end, parent, op) in enumerate(spans):
            if op not in ops:
                continue
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            dur = end - start
            out[name] = (calls + 1, total + dur, own + dur - child[sid])
        return out

    def top_level_seconds(self, ops) -> float:
        return sum(end - start for _, start, end, parent, op in self.spans
                   if parent < 0 and op in ops)

    def write(self, path: str, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
