"""Micro-benchmark: the kernel perf ladder.

The hot path of every hardware experiment is
``bitserial_cycles_matrix``; this bench pins two perf baselines while
requiring identical results at each rung:

* the vectorized kernel beats the per-element scalar trace by >= 10x
  on a realistic tile;
* the ``numpy-packed`` backend beats ``numpy-ref`` by >= 2x at a
  paper-scale S=512 tile (the CI gate for the packed fast path);
* the fused ``matrix_many`` path beats the per-job ``matrix`` loop on
  a serving-shaped decode mix: >= 1.5x with a warm pack cache (the
  headline cross-job fusion gate) and >= 1.1x cacheless (the
  regression floor for banding/batch-packing alone).

Every gate times the two sides in interleaved paired rounds,
alternating which side runs first, and gates on the median of the
per-round time ratios: a burst of host load then skews one round's
pair, not one side's whole sample.  When ``REPRO_BENCH_DIR`` is set
(CI does), each gate also appends its measured numbers, with the
spread of the paired ratios, to a versioned ``BENCH_kernel_micro.json``
artifact.
"""

import statistics
import time

import numpy as np

from repro.eval import record_bench
from repro.hw.backends import (KernelJob, PlaneGroupCache, get_backend,
                               matrix_many_loop, run_many)
from repro.hw.bitserial import bitserial_cycles_matrix, bitserial_dot_product

TILE = 48
DIM = 64
MAGNITUDE_BITS = 11
GROUP = 2
THRESHOLD = 100_000.0

PAPER_TILE = 512                 # the paper's long-sequence regime
PACKED_MIN_SPEEDUP = 2.0
FUSED_CACHED_MIN_SPEEDUP = 1.5   # warm pack cache, decode-shaped mix
FUSED_COLD_MIN_SPEEDUP = 1.1     # cacheless fusion regression floor


def _make_tile():
    rng = np.random.default_rng(0)
    q = rng.integers(-2047, 2048, (TILE, DIM))
    k = rng.integers(-2047, 2048, (TILE, DIM))
    return q, k


def _scalar_reference(q, k):
    cycles = np.empty((q.shape[0], k.shape[0]), dtype=np.int64)
    pruned = np.empty((q.shape[0], k.shape[0]), dtype=bool)
    for i in range(q.shape[0]):
        for j in range(k.shape[0]):
            trace = bitserial_dot_product(q[i], k[j], THRESHOLD,
                                          MAGNITUDE_BITS, GROUP)
            cycles[i, j] = trace.cycles
            pruned[i, j] = trace.pruned
    return cycles, pruned


def _paired(slow, fast, rounds: int) -> dict:
    """Time ``slow`` and ``fast`` in ``rounds`` interleaved pairs,
    alternating which runs first, after one untimed warm-up of each.
    Returns the median per-round ratio ``slow / fast`` (the gated
    speedup), its min/max spread and each side's median seconds."""
    slow()
    fast()
    ratios, slow_s, fast_s = [], [], []
    for round_index in range(rounds):
        order = ((slow, slow_s), (fast, fast_s))
        if round_index % 2:
            order = order[::-1]
        for fn, times in order:
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        ratios.append(slow_s[-1] / fast_s[-1])
    return {"speedup": statistics.median(ratios),
            "speedup_min": min(ratios), "speedup_max": max(ratios),
            "rounds": rounds,
            "slow_seconds": statistics.median(slow_s),
            "fast_seconds": statistics.median(fast_s)}


def test_kernel_micro_speedup():
    q, k = _make_tile()
    cycles_vec, pruned_vec, _ = bitserial_cycles_matrix(
        q, k, THRESHOLD, MAGNITUDE_BITS, GROUP)
    cycles_ref, pruned_ref = _scalar_reference(q, k)

    # identical semantics ...
    np.testing.assert_array_equal(cycles_vec, cycles_ref)
    np.testing.assert_array_equal(pruned_vec, pruned_ref)

    # ... at >= 10x the throughput (typically far more)
    timing = _paired(
        lambda: _scalar_reference(q, k),
        lambda: bitserial_cycles_matrix(q, k, THRESHOLD, MAGNITUDE_BITS,
                                        GROUP),
        rounds=3)
    print(f"\nvectorized {timing['fast_seconds'] * 1e3:.2f} ms vs scalar "
          f"{timing['slow_seconds'] * 1e3:.1f} ms -> "
          f"{timing['speedup']:.0f}x (paired min "
          f"{timing['speedup_min']:.0f}x, max {timing['speedup_max']:.0f}x)")
    record_bench("kernel_micro", {"gate": "vectorized_vs_scalar",
                                  **timing},
                 context={"tile": TILE, "dim": DIM,
                          "magnitude_bits": MAGNITUDE_BITS,
                          "group": GROUP})
    assert timing["speedup"] >= 10.0


def test_packed_backend_speedup_at_paper_scale():
    """CI gate: ``numpy-packed`` must hold >= 2x over ``numpy-ref`` at
    S_q = S_k = 512 while staying bit-identical."""
    rng = np.random.default_rng(1)
    q = rng.integers(-2047, 2048, (PAPER_TILE, DIM))
    k = rng.integers(-2047, 2048, (PAPER_TILE, DIM))
    threshold = 120_000.0
    ref = get_backend("numpy-ref")
    packed = get_backend("numpy-packed")

    ref_result = ref.matrix(q, k, threshold, MAGNITUDE_BITS, GROUP)
    packed_result = packed.matrix(q, k, threshold, MAGNITUDE_BITS, GROUP)
    for ours, theirs, name in zip(packed_result, ref_result,
                                  ("cycles", "pruned", "scores")):
        np.testing.assert_array_equal(ours, theirs, err_msg=name)

    timing = _paired(
        lambda: ref.matrix(q, k, threshold, MAGNITUDE_BITS, GROUP),
        lambda: packed.matrix(q, k, threshold, MAGNITUDE_BITS, GROUP),
        rounds=7)
    print(f"\nnumpy-packed {timing['fast_seconds'] * 1e3:.1f} ms vs "
          f"numpy-ref {timing['slow_seconds'] * 1e3:.1f} ms at "
          f"S={PAPER_TILE} -> {timing['speedup']:.2f}x (paired min "
          f"{timing['speedup_min']:.2f}x, max "
          f"{timing['speedup_max']:.2f}x)")
    record_bench("kernel_micro", {"gate": "packed_vs_ref_paper_scale",
                                  **timing},
                 context={"tile": PAPER_TILE, "dim": DIM,
                          "magnitude_bits": MAGNITUDE_BITS,
                          "group": GROUP})
    assert timing["speedup"] >= PACKED_MIN_SPEEDUP


def _serving_step_jobs(streams: int = 96):
    """A decode-regime serving step: one short-q job per live stream
    against that stream's grown key cache (mixed context lengths,
    shared head dim) — the shape ``run_many`` fuses in production."""
    rng = np.random.default_rng(2)
    jobs = []
    for stream in range(streams):
        s_q = int(rng.integers(1, 5))
        s_k = int(rng.integers(48, 129))
        q = rng.integers(-2047, 2048, (s_q, DIM))
        k = rng.integers(-2047, 2048, (s_k, DIM))
        jobs.append(KernelJob(
            q=q, k=k, threshold=float(rng.integers(50_000, 150_000)),
            magnitude_bits=MAGNITUDE_BITS, group=GROUP,
            pack_key=("stream", stream)))
    return jobs


def test_fused_many_speedup_at_serving_shapes():
    """CI gate: on a decode-shaped job mix, fused ``matrix_many`` must
    hold >= 1.1x over the per-job loop cold and >= 1.5x with a warm
    pack-once cache, while staying bit-identical to the loop."""
    packed = get_backend("numpy-packed")
    jobs = _serving_step_jobs()

    loop_results = matrix_many_loop(packed, jobs)
    fused_results = run_many(packed, jobs)
    for fused_job, loop_job in zip(fused_results, loop_results):
        for ours, theirs, name in zip(fused_job, loop_job,
                                      ("cycles", "pruned", "scores")):
            np.testing.assert_array_equal(ours, theirs, err_msg=name)

    def loop():
        matrix_many_loop(packed, jobs)

    cold = _paired(loop, lambda: run_many(packed, jobs), rounds=15)
    cache = PlaneGroupCache()                # warmed by _paired's warm-up
    warm = _paired(loop, lambda: run_many(packed, jobs, cache=cache),
                   rounds=15)
    print(f"\nfused matrix_many over {len(jobs)} decode jobs: loop "
          f"{cold['slow_seconds'] * 1e3:.1f} ms, fused cold "
          f"{cold['fast_seconds'] * 1e3:.1f} ms "
          f"({cold['speedup']:.2f}x, paired min "
          f"{cold['speedup_min']:.2f}x), fused + warm cache "
          f"{warm['fast_seconds'] * 1e3:.1f} ms "
          f"({warm['speedup']:.2f}x, paired min "
          f"{warm['speedup_min']:.2f}x)")
    for gate, timing in (("fused_many_serving_shapes_cold", cold),
                         ("fused_many_serving_shapes_warm", warm)):
        record_bench("kernel_micro", {"gate": gate, **timing},
                     context={"jobs": len(jobs), "dim": DIM,
                              "magnitude_bits": MAGNITUDE_BITS,
                              "group": GROUP})
    assert cold["speedup"] >= FUSED_COLD_MIN_SPEEDUP
    assert warm["speedup"] >= FUSED_CACHED_MIN_SPEEDUP
