"""Self-tests of the benchmark's own arithmetic, run before every
benchmark run (``run.py --self-test`` runs only these)."""

from __future__ import annotations

from hostspeed import NOMINAL_S, Clock, scale_of, scaled
from measure import (Served, Tally, beyond, fail_frac, gaps, geomean,
                     goodput, mean_gap, meets_slo, percentile,
                     step_end_times, tail_supported, throughput)


def _raises(call, error) -> bool:
    try:
        call()
    except error:
        return True
    return False


def _checks():
    ten = list(range(1, 11))
    thousand = list(range(1, 1001))
    # percentile rule: nearest rank, always an observed sample
    yield "p50 of 1..10 is 5", percentile(ten, 50) == 5
    yield "p90 of 1..10 is 9", percentile(ten, 90) == 9
    yield "p100 is the max", percentile(ten, 100) == 10
    yield "order does not matter", percentile(ten[::-1], 90) == 9
    yield "p99 of 1..1000 is 990", percentile(thousand, 99) == 990
    yield "one sample is every percentile", percentile([7.5], 99) == 7.5
    yield "no samples raises", _raises(lambda: percentile([], 50),
                                       ValueError)
    yield "p0 raises", _raises(lambda: percentile(ten, 0), ValueError)
    yield "p90 of 100 has 10 beyond", beyond(100, 90) == 10
    yield "p90 needs 100 samples", (tail_supported(100, 90)
                                    and not tail_supported(99, 90))
    yield "p99 needs 1000 samples", (tail_supported(1000, 99)
                                     and not tail_supported(999, 99))
    # step-end mapping: a token is seen when its step returns
    ends = {1.0: 1.25, 2.0: 2.5, 3.0: 3.125}
    yield "stamps map to step ends", (step_end_times([1.0, 3.0], ends)
                                      == [1.25, 3.125])
    yield "a stamp that is no step start raises", _raises(
        lambda: step_end_times([1.5], ends), KeyError)
    yield "gaps are consecutive differences", (gaps([1.0, 1.5, 3.0])
                                               == [0.5, 1.5])
    yield "one time has no gaps", gaps([2.0]) == []
    # goodput counting
    yield "tpot is the mean gap", abs(mean_gap([0.01, 0.02, 0.03])
                                      - 0.02) < 1e-12
    yield "one token has no tpot", mean_gap([]) is None
    fast = Served(ok=True, new_tokens=4, ttft=0.1, tpot=0.02)
    late = Served(ok=True, new_tokens=8, ttft=0.5, tpot=0.01)
    slow = Served(ok=True, new_tokens=16, ttft=0.1, tpot=0.05)
    single = Served(ok=True, new_tokens=1, ttft=0.2)
    failed = Served(ok=False, new_tokens=0)
    served = [fast, late, slow, single, failed]
    yield "a request within both limits meets", meets_slo(fast, 0.2, 0.03)
    yield "a late first token misses", not meets_slo(late, 0.2, 0.03)
    yield "slow tokens miss", not meets_slo(slow, 0.2, 0.03)
    yield "one token is judged on TTFT only", meets_slo(single, 0.2, 0.03)
    yield "a failed request misses", not meets_slo(failed, 9.0, 9.0)
    yield "goodput counts met requests' tokens", (
        goodput(served, 2.0, 0.2, 0.03) == (4 + 1) / 2.0)
    yield "throughput counts every ok token", (
        throughput(served, 2.0) == (4 + 8 + 16 + 1) / 2.0)
    yield "an empty window raises", _raises(
        lambda: throughput(served, 0.0), ValueError)
    # failures against attempts
    tally = Tally()
    tally.add(True, 7)
    tally.add(False, 3)
    yield "tally counts", (tally.attempted, tally.failed,
                           tally.succeeded) == (10, 3, 7)
    yield "fail_frac is failed over attempted", fail_frac(10, 3) == 0.3
    yield "no failures is zero", fail_frac(5, 0) == 0.0
    yield "nothing attempted raises", _raises(lambda: fail_frac(0, 0),
                                              ValueError)
    yield "more failed than attempted raises", _raises(
        lambda: fail_frac(2, 3), ValueError)
    yield "geomean", abs(geomean([2.0, 8.0]) - 4.0) < 1e-12
    # host speed: times scale with the host, rates against it
    yield "nominal bursts scale by 1", scale_of([NOMINAL_S] * 3) == 1.0
    yield "the scale uses the mean burst", scale_of(
        [NOMINAL_S, 3 * NOMINAL_S]) == 0.5
    yield "no bursts raises", _raises(lambda: scale_of([]), ValueError)
    yield "times are multiplied by the scale", (
        scaled(10.0, "ms", 0.5), scaled(2.0, "s", 0.5)) == (5.0, 1.0)
    yield "rates are divided by the scale", (
        scaled(10.0, "1/s", 0.5), scaled(10.0, "tok/s", 0.5)) == (20.0,
                                                                  20.0)
    yield "counts, ratios and sizes are not scaled", (
        scaled(3.0, "count", 0.5), scaled(0.9, "ratio", 0.5),
        scaled(50.0, "MB", 0.5)) == (3.0, 0.9, 50.0)
    clock = Clock()
    before = clock()
    clock.sample()
    yield "the clock stands still during a burst", (
        clock() - before < clock.bursts[0] / 2)


def run() -> tuple[list[str], int]:
    """(names of the checks that failed, number of checks run)."""
    results = list(_checks())
    return [name for name, ok in results if not ok], len(results)
