"""Span tracer that wraps the program's public functions from outside.

A `Target` names a function by module and qualified name. While a
`Tracer` is active, every binding of that function in the package's
loaded modules is replaced by a timing wrapper, so a call is recorded
wherever the caller looks the name up (`from .kernels import gram` makes
`fairdep.dependence.gram` a binding of its own). Methods are wrapped on
their class. Leaving the `with` block restores every binding.

A target that no longer exists is reported as absent with zero calls,
so the benchmark keeps running when the program drops a function.

Each call is a span `(name, start, end)` from `time.perf_counter`. A
layer's busy time is the length of the union of its spans, so calls
overlapping on worker threads are not double counted; its self time is
busy time minus the part of it that its child layers cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PACKAGE = "fairdep"


@dataclass(frozen=True)
class Target:
    """One function or method to time as part of span `span`.

    `count`, when given, is called as `count(result, args, kwargs)` after
    each call and returns counter increments, e.g. rows read.
    """

    span: str
    module: str
    qualname: str
    count: Callable | None = None


def union(intervals) -> list[tuple[float, float]]:
    """Sorted, disjoint cover of the given (start, end) intervals."""
    out: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def length(intervals) -> float:
    return sum(end - start for start, end in union(intervals))


def overlap(a, b) -> float:
    """Length of the intersection of two interval sets."""
    a, b = union(a), union(b)
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


class Tracer:
    """Records spans for a set of targets while active (a context manager)."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[tuple[str, float, float]] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _record(self, name: str, start: float, end: float, increments=None) -> None:
        with self._lock:
            self.spans.append((name, start, end))
            if increments:
                self.counts.update(increments)

    def _wrap(self, target: Target, func):
        record = self._record

        @functools.wraps(func)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = func(*args, **kwargs)
            end = time.perf_counter()
            record(target.span, start, end, target.count(result, args, kwargs) if target.count else None)
            return result

        return traced

    @staticmethod
    def _modules():
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _install(self, target: Target) -> bool:
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            return False
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if path:  # a method: wrap it on its class
            if attr not in vars(owner):
                return False
            func = vars(owner)[attr]
            self._patches.append((owner, attr, func))
            setattr(owner, attr, self._wrap(target, func))
            return True
        func = getattr(owner, attr, None)
        if not callable(func):
            return False
        wrapper = self._wrap(target, func)
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, name, func))
                    setattr(module, name, wrapper)
        return True

    def __enter__(self) -> "Tracer":
        installed = {t.span for t in self.targets if self._install(t)}
        # a span is absent only if none of its targets exists
        self.absent = {t.span for t in self.targets} - installed
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of code."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._record(name, start, time.perf_counter())

    def intervals(self, name: str) -> list[tuple[float, float]]:
        return [(s, e) for n, s, e in self.spans if n == name]

    def calls(self, name: str) -> int:
        return sum(1 for n, _, _ in self.spans if n == name)

    def busy(self, name: str) -> float:
        return length(self.intervals(name))

    def self_time(self, name: str, children) -> float:
        own = self.intervals(name)
        below = [iv for child in children for iv in self.intervals(child)]
        return length(own) - overlap(own, below)
