"""Timing spans around calls into the program's public functions.

The traced run wraps functions and methods of each layer from here,
the benchmark's own files, so the program itself stays untouched.  A
span records its duration on the run's clock and its self time: the
duration minus the part covered by spans nested inside it.  All work
runs on the load generator's single thread, so one stack of
child-time accumulators is enough.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(
            make_wrapper(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Spans:
    """Per-name totals of duration, self time and calls, plus named
    counts that hooks add from a call's arguments and result."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.patches = Patches()
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything measured so far (call between steps)."""
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.
        ``hook(spans, args, kwargs, result)`` runs after the call, off
        the span's clock, to add counts."""
        stack = self._stack
        clock = self.clock

        def make(original):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    self.total[name] += elapsed
                    self.own[name] += elapsed - child
                    self.calls[name] += 1
                    if stack:
                        stack[-1] += elapsed
                    if hook is not None and result is not None:
                        hook(self, args, kwargs, result)
            return wrapper

        self.patches.replace(owner, attr, make)

    def restore(self) -> None:
        self.patches.restore()

    def frozen(self) -> "Spans":
        """A copy of the tables measured so far, detached from the
        wrapped functions."""
        copy = Spans()
        copy.total.update(self.total)
        copy.own.update(self.own)
        copy.calls.update(self.calls)
        copy.counts.update(self.counts)
        return copy

    def ms(self, name: str, own: bool = False) -> float:
        table = self.own if own else self.total
        return table.get(name, 0.0) * 1e3
