"""The host's speed, sampled through a run, and the clock that skips it.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes, as neighbours come and go: the same code on the same seed
then reads twice as fast in one run as in another.  Wall time tracks
CPU time while this happens, so it is slow-down, not preemption, and
no amount of work inside one run averages it out.

So every run samples the host's speed.  Every ``EVERY_S`` seconds of
the program's work, at a point the load generator or training loop
chooses, the clock stops and a *burst* runs: a fixed mix of small numpy
kernels and interpreter work (dict, tuple and list traffic), the same
two kinds of work the program spends its time on.  The burst lives
here, not in the program, so no change to the program moves it.

``Clock`` is a ``perf_counter`` that stands still while a burst runs,
so no latency, step or span the run measures includes one.  A run's
``scale`` is ``NOMINAL_S`` over its mean burst; every time the run
reports is multiplied by it (every rate divided by it), which puts the
figures at the nominal host's speed.  On a quiet host the scale is
close to 1; on a host running at half speed it is close to 0.5.  The
mean, not the median: bursts are spread evenly over the program's
time, so their mean slow-down is the slow-down of the program's total
time, also when the host is slow for only part of a run.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

#: seconds of program work between bursts
EVERY_S = 0.25
#: rounds per burst (about 8 ms on the nominal host)
ROUNDS = 40
#: the mean burst on the nominal host: a quiet 2-vCPU x86-64 Xeon VM
#: at 2.1 GHz, Python 3.11, numpy 2.4, OpenBLAS pinned to one thread
NOMINAL_S = 0.00795

_rng = np.random.default_rng(0)
_WEIGHTS = _rng.standard_normal((4, 64, 64)) / 8.0
_INPUT = _rng.standard_normal((16, 64))


def _kernels() -> np.ndarray:
    """A four-layer attention-and-norm forward on 16 rows of width 64."""
    x = _INPUT
    for weight in _WEIGHTS:
        h = x @ weight
        scores = h @ h.T * 0.125
        scores = np.exp(scores - scores.max(axis=1, keepdims=True))
        scores /= scores.sum(axis=1, keepdims=True)
        x = scores @ h
        x = ((x - x.mean(axis=1, keepdims=True))
             / (x.std(axis=1, keepdims=True) + 1e-5))
    return x


def _bookkeeping() -> int:
    """Scheduler-like interpreter work: keyed counters and a sort."""
    table: dict[tuple[int, int], int] = {}
    rows = []
    for i in range(400):
        key = (i & 7, i % 5)
        table[key] = table.get(key, 0) + i
        rows.append((key, i * 0.5))
    rows.sort(key=lambda row: -row[1])
    return len(table) + len(rows)


def burst() -> float:
    """Run one burst; returns its wall seconds."""
    start = perf_counter()
    for _ in range(ROUNDS):
        _kernels()
        _bookkeeping()
    return perf_counter() - start


def scale_of(bursts) -> float:
    """Nominal over measured host speed, from bursts spread evenly over
    some work: multiply that work's times by it, divide its rates by
    it."""
    if not bursts:
        raise ValueError("the host's speed was never sampled")
    return NOMINAL_S * len(bursts) / sum(bursts)


class Clock:
    """``perf_counter`` minus the time spent in bursts.

    Call ``tick()`` between units of work: once ``EVERY_S`` seconds of
    this clock have passed since the last burst, it runs the next.
    Pass the clock itself wherever the program or the benchmark would
    read ``perf_counter``, so every measured interval skips the
    bursts."""

    def __init__(self):
        self.paused = 0.0
        self.bursts = array("d")
        self._due = 0.0

    def __call__(self) -> float:
        return perf_counter() - self.paused

    def sample(self) -> None:
        """Run a burst now, off the clock."""
        seconds = burst()
        self.bursts.append(seconds)
        self.paused += seconds
        self._due = self() + EVERY_S

    def tick(self) -> None:
        if self() >= self._due:
            self.sample()

    @property
    def scale(self) -> float:
        """``scale_of`` the bursts taken on this clock."""
        return scale_of(self.bursts)


class Setups:
    """Timed set-ups, each right after a burst of its own.

    A set-up lasts tens of milliseconds and runs before any measured
    phase, so it gets its own scale, from the bursts between set-ups,
    rather than the run's."""

    def __init__(self):
        self.seconds: list[float] = []
        self.bursts: list[float] = []

    def time(self, setup):
        """Burst, then time ``setup()``; returns its result."""
        self.bursts.append(burst())
        start = perf_counter()
        result = setup()
        self.seconds.append(perf_counter() - start)
        return result

    @property
    def scale(self) -> float:
        return scale_of(self.bursts)


def scaled(value: float, unit: str, scale: float) -> float:
    """``value`` in ``unit`` at the nominal host's speed.  Times and
    rates scale; counts, ratios and sizes do not."""
    if unit in ("s", "ms"):
        return value * scale
    if unit.startswith("1/") or unit.endswith("/s"):
        return value / scale
    return value
