"""Spans around the calls into gemfree's layers, recorded from outside `src/`.

While a `Tracer` is active, every public function of the traced modules is
replaced, in every gemfree module namespace that holds it, by a wrapper that
records a span (op id, span id, parent span id, name, start, end). Leaving the
`with` block puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

PACKAGE = "gemfree"
# `generators` and `suite` are left out: the benchmark builds its own inputs.
LAYERS = ("graphs", "graph_io", "patterns", "exact", "partition", "coloring", "cli")

Span = tuple[int, int, int, str, float, float]  # op, id, parent (-1: none), name, start, end


def layer_functions() -> dict[str, Callable[..., Any]]:
    """'<layer>.<name>' -> public function defined in that layer module.

    Generator functions (`graphs.bits`) are skipped: their span would close
    before the caller consumed them.
    """
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and not inspect.isgeneratorfunction(obj)):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable[..., Any]]] = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = len(spans)
            spans.append((self.op, sid, stack[-1] if stack else -1, name, clock(), 0.0))
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid] = spans[sid][:5] + (clock(),)

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in layer_functions().items()}
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        return self

    def __exit__(self, *exc: object) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        self._stack.clear()


def span_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only spans with no ancestor of the same name, so a
    function that re-enters itself is not counted twice. Self time is a span's
    duration minus the durations of its direct children.
    """
    by_id = {s[1]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for _, _, parent, _, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for _, sid, parent, name, t0, t1 in spans:
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += t1 - t0 - child_time[sid]
        p = parent
        while p >= 0 and by_id[p][3] != name:
            p = by_id[p][2]
        if p < 0:
            t["s"] += t1 - t0
    return totals
