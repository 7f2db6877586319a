"""The benchmark's own arithmetic: percentiles, step-end mapping,
goodput and failure fractions.  Pure functions over plain numbers, so
``selftest.py`` can pin each rule on hand-made inputs."""

from __future__ import annotations

import math
from dataclasses import dataclass

#: a tail percentile is reported only with at least this many samples
#: beyond it (the rest of the distribution is otherwise one outlier)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it.  Always an observed
    value, never an interpolation between two."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of
    ``count`` samples."""
    return count - max(math.ceil(q / 100.0 * count), 1)


def tail_supported(count: int, q: float) -> bool:
    """True when the ``q`` percentile has ``MIN_BEYOND`` samples above
    it, the rule for quoting a tail at all."""
    return beyond(count, q) >= MIN_BEYOND


@dataclass(frozen=True)
class Quantile:
    """One reported timing: the value, its percentile and the sample
    count it came from."""

    value: float
    q: float
    count: int

    @property
    def supported(self) -> bool:
        return self.q == 50 or tail_supported(self.count, self.q)


def quantile(values, q: float) -> Quantile:
    return Quantile(percentile(values, q), q, len(values))


def step_end_times(stamps, step_ends: dict) -> list[float]:
    """Map engine token stamps to the wall time the client saw them.

    The engine stamps each token with the ``now`` passed into the
    ``step()`` call that produced it, i.e. the step's start; the token
    reaches the client only when that call returns.  ``step_ends``
    maps each step's start (exactly the ``now`` the load generator
    passed) to the time the call returned.  A stamp that is no step's
    start raises ``KeyError``: the engine stamped a time the load
    generator never handed it."""
    return [step_ends[stamp] for stamp in stamps]


def gaps(times) -> list[float]:
    """Differences between consecutive times."""
    return [b - a for a, b in zip(times, times[1:])]


def mean_gap(token_gaps) -> float | None:
    """Time per output token after the first (TPOT): the mean gap, or
    None for a one-token request."""
    if not token_gaps:
        return None
    return sum(token_gaps) / len(token_gaps)


@dataclass(frozen=True, slots=True)
class Served:
    """One completed request as the client measured it."""

    ok: bool
    new_tokens: int
    ttft: float | None = None            # send -> first token seen
    tpot: float | None = None            # mean gap between tokens seen


def meets_slo(served: Served, ttft_limit: float,
              tpot_limit: float) -> bool:
    """A request counts toward goodput when it succeeded, its first
    token arrived within ``ttft_limit`` and its mean inter-token gap
    stayed within ``tpot_limit``.  A failed request always misses; a
    one-token request has no gaps, so only its TTFT is judged."""
    if not served.ok or served.ttft is None:
        return False
    if served.ttft > ttft_limit:
        return False
    tpot = served.tpot
    return tpot is None or tpot <= tpot_limit


def throughput(served, seconds: float) -> float:
    """Generated tokens of successful requests per second."""
    if seconds <= 0:
        raise ValueError("measured window must be positive")
    return sum(s.new_tokens for s in served if s.ok) / seconds


def goodput(served, seconds: float, ttft_limit: float,
            tpot_limit: float) -> float:
    """Tokens per second counting only requests that met both limits."""
    if seconds <= 0:
        raise ValueError("measured window must be positive")
    return sum(s.new_tokens for s in served
               if meets_slo(s, ttft_limit, tpot_limit)) / seconds


@dataclass
class Tally:
    """Operations attempted and failed in one phase of a run."""

    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


def fail_frac(attempted: int, failed: int) -> float:
    """Failed, refused or mismatching operations over those attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values) -> float:
    return percentile(values, 50)
