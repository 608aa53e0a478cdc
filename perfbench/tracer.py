"""Span tracer that wraps parkde's public functions from outside the package.

Every public function and public method (plus ``__call__``) defined in a
layer module is replaced by a wrapper that records a span: name, layer,
start, end, parent span and the request it belongs to. The replacement is
made wherever the original object is looked up: in the defining module,
in every other ``parkde`` module that imported it by name, and on the
class for methods. ``uninstall`` puts the originals back.

Spans stay in memory; ``dump`` writes them out once the run ends. A hook
attached to a function by name gets the counters, the call's bound
arguments and its result, so counts are taken at the same boundary as the
span and ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("kernels", "quadrature", "estimators", "amise", "bandwidth", "harness", "cli")
ROOT_LAYER = "bench"


class Tracer:
    def __init__(self, run_id: str, hooks=None):
        self.run_id = run_id
        self.request = run_id
        self.hooks = hooks or {}
        # each span is [name, layer, start, end, parent index, request id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def begin(self, name: str, layer: str) -> list:
        span = [name, layer, perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, self.request]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        hook = self.hooks.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    hook(tracer.counters, bound, result)
                return result
            finally:
                tracer.end(span)

        return wrapper

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Replace every public function of every layer with a traced wrapper."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"parkde.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrap(attr, layer, obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for mname, meth in list(vars(obj).items()):
                        if not inspect.isfunction(meth):
                            continue
                        if mname.startswith("_") and mname != "__call__":
                            continue
                        self._set(obj, mname, self._wrap(f"{attr}.{mname}", layer, meth))
        for modname, mod in list(sys.modules.items()):
            if modname != "parkde" and not modname.startswith("parkde."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, attr, replace[id(obj)])

        # every degenerate product, wherever detected, constructs this error
        degenerate = importlib.import_module("parkde.estimators").DegenerateProduct
        counters = self.counters

        def counting_init(exc, *args):
            counters["estimators.degenerate"] += 1
            RuntimeError.__init__(exc, *args)

        self._set(degenerate, "__init__", counting_init)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    # -- reduction ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s[1]] += (s[3] - s[2]) - c
        return out

    def group(self, names) -> tuple[float, int]:
        """Inclusive time and count of the outermost spans among ``names``.

        A span nested inside another span of the same group is part of that
        call, so it adds neither time nor a count.
        """
        names = set(names)
        covered = [False] * len(self.spans)  # span is in the group or below one
        total, count = 0.0, 0
        for i, s in enumerate(self.spans):
            nested = s[4] >= 0 and covered[s[4]]
            covered[i] = nested or s[0] in names
            if s[0] in names and not nested:
                total += s[3] - s[2]
                count += 1
        return total, count

    def dump(self, path: str) -> None:
        rows = [[s[0], s[2], s[3], s[4], s[5]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": rows}, fh)
