"""Spans around calls into betheperm's public functions, for the traced run.

The tracer wraps module-level functions from outside the program: each
wrapped name is replaced in its defining module and in every ``betheperm``
module that holds the same object (under any name, so ``from .x import f as
_f`` is covered), and :meth:`Tracer.restore` puts every original back.
Spans stay in memory as (name, start, end, parent index, item id).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int   # index into the span list, -1 at top level
    item: str


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Patch ``targets`` (span name -> (module name, attribute)) while in use."""

    def __init__(self, targets: dict[str, tuple[str, str]],
                 observers: dict[str, Callable[[Any], dict[str, float]]] | None = None):
        self.targets = targets
        self.observers = observers or {}
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.item = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.item)
            if observe is not None:
                for key, value in observe(result).items():
                    self.counts[key] += value
            return result

        return traced

    def patch(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "betheperm" or key.startswith("betheperm."))]
        self.absent = []
        for name, (module_name, attr) in self.targets.items():
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.patch()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
