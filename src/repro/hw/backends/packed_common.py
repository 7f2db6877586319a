"""Shared packed-bitplane machinery for fused kernel backends.

Two pieces live here, used by ``numpy-packed`` and the optional
``torch`` backend:

**Pack-once plane-group caches.**  :func:`pack_planes` turns a key
matrix into the ``(cycles + 1, S_k, D)`` plane-group stack the fused
GEMM consumes, and :class:`PlaneGroupCache` memoizes those stacks
under a caller-supplied identity (stream/layer/head).  During decode K
only grows by a suffix, so the cache packs just the new rows and
concatenates; reuse is validated by exact key comparison (full prefix
``array_equal``), so a changed K — a re-quantization after the peak
|K| moved, a preemption swap — can never serve stale planes: it simply
repacks.

**Cross-job fused evaluation.**  :func:`fused_matrix_many` evaluates a
whole batch of :class:`~repro.hw.backends.KernelJob` tiles through
*one* batched GEMM per shape band instead of one GEMM per job.  Jobs
are grouped by everything that must match for the plane schedule to be
shared — head-dim, magnitude bits, plane-group width, margin scale —
then banded by power-of-two (S_q, S_k) buckets, sorted by size within
a band and cut into bounded chunks, each zero-padded to its own
largest job, which makes a chunk block-diagonal: a single stacked
``(n, S_q, D) @ (n, D, rows)`` matmul does exactly the useful per-job
products (padding waste is bounded by the pow2 bucketing, < 4x worst
case, and near zero once neighbours in size share a chunk) rather than
the n-fold cross-job waste a dense concatenated GEMM would pay.  The
margin/termination scan then runs once over every chunk's padded
lanes with a per-job threshold column, and per-job tiles are sliced
back out.
:func:`fused_matrix_table` runs the same bands over a
:class:`~repro.hw.backends.KernelTable`, whose jobs already sit in
stacked arrays: band operands are gathered and outputs scattered back
with array indexing, so it does no Python work per job.

Bit-identity is free by construction: every product and partial sum is
an exact integer inside the float32 (< 2**24) / float64 / int32
windows the dtype selection proves, so fusing, padding with zero
rows, or switching scan dtype cannot change a single output bit
relative to the per-job ``matrix`` loop.  ``tests/test_fused.py`` pins
this on randomized mixed-shape job sets.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..bitserial import _plane_schedule

# float32 keeps integers exact below 2^24; int32 is safe while
# |partial| + |margin| stays below 2^31 (we require < 2^30 each)
_F32_EXACT = 1 << 24
_I32_SAFE = 1 << 30

# batched-chunk sizing: bound the MACs and operand elements of one
# stacked matmul so paper-scale tiles degrade to per-job chunks (where
# fusion has nothing to amortize) and serving-shaped bands never
# allocate unreasonable intermediates.  The element bound keeps a
# chunk's plane operand within 1 MB (float64), so the GEMM reads it
# from cache right after the pack wrote it and a serving step's peak
# memory stays small (2^24 made the serving-shaped decode mix about
# 17% slower on a 2-core x86 host)
_MAX_CHUNK_MACS = 1 << 27
_MAX_CHUNK_ELEMENTS = 1 << 17

# gemm(a, b) -> a @ b^T over the last two axes, for stacked
# (n, M, D) x (n, R, D) -> (n, M, R) operands; backends supply the
# matmul (numpy BLAS, torch / GPU) and this module everything else
BatchedGemm = Callable[[np.ndarray, np.ndarray], np.ndarray]


def numpy_batched_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The numpy implementation of the :data:`BatchedGemm` contract."""
    return np.matmul(a, b.swapaxes(-1, -2))


@dataclass(frozen=True)
class PlaneSpec:
    """Derived plane-schedule constants for a (magnitude_bits, group)
    pair — everything the packed kernels need besides the data."""

    magnitude_bits: int
    group: int
    # (count of magnitude planes, lowest plane) per DPU cycle
    cycle_groups: tuple[tuple[int, int], ...]
    # the cycles that carry magnitude planes, in schedule order
    mag_groups: tuple[tuple[int, int], ...]
    full_cycles: int
    group_max: int

    @property
    def n_groups(self) -> int:
        return len(self.mag_groups)


_SPECS: dict[tuple[int, int], PlaneSpec] = {}


def plane_spec(magnitude_bits: int, group: int) -> PlaneSpec:
    """Memoized :class:`PlaneSpec` for a schedule shape."""
    key = (magnitude_bits, group)
    spec = _SPECS.get(key)
    if spec is None:
        schedule = _plane_schedule(magnitude_bits, group)
        cycle_groups = []
        for chunk in schedule:
            planes = [p for p in chunk if p >= 0]
            cycle_groups.append((len(planes), planes[-1] if planes else 0))
        mag_groups = tuple((n, lo) for n, lo in cycle_groups if n)
        group_max = max((((1 << n) - 1) << lo for n, lo in mag_groups),
                        default=0)
        spec = PlaneSpec(magnitude_bits, group, tuple(cycle_groups),
                         mag_groups, len(schedule), group_max)
        _SPECS[key] = spec
    return spec


def pack_planes(k: np.ndarray, spec: PlaneSpec,
                dtype=np.float64) -> np.ndarray:
    """Pack a key matrix into its plane-group stack.

    Returns ``(n_groups + 1, s_k, dim)``: one per-cycle plane-group
    value matrix per magnitude cycle, the sign plane last, in
    ``dtype``.  The float64 default is exact for every product, so the
    cache's stacks feed GEMMs directly, with no conversion copy,
    whatever width the queries would allow.
    """
    k = np.asarray(k, dtype=np.int64)
    plane_stack, _ = _pack_band(k[None], spec, dtype)
    return plane_stack[0].reshape(spec.n_groups + 1, *k.shape)


@dataclass
class _CacheEntry:
    spec: PlaneSpec
    keys: np.ndarray      # int64 copy of the packed K, for validation
    stacked: np.ndarray   # pack_planes(keys, spec)


class PlaneGroupCache:
    """Pack-once plane-group cache keyed by stream/layer/head identity.

    ``planes_for(key, k, spec)`` returns the packed stack for ``k``,
    reusing a cached stack when the key matrix is unchanged and
    packing only the new suffix rows when K merely grew (the decode
    case).  Reuse is gated on exact ``array_equal`` prefix
    validation — any other change (re-quantization, truncation,
    preemption swap-in) is a miss and repacks, so stale planes are
    impossible by construction.  Entries are LRU-bounded.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._entries: OrderedDict[Any, _CacheEntry] = OrderedDict()
        self.hits = 0
        self.extended = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters (a fresh cache)."""
        self._entries.clear()
        self.hits = self.extended = self.misses = 0

    def stats(self) -> dict[str, int]:
        """Counters: exact hits, suffix extensions, full repacks."""
        return {"hits": self.hits, "extended": self.extended,
                "misses": self.misses, "entries": len(self._entries)}

    def planes_for(self, key: Any, k: np.ndarray,
                   spec: PlaneSpec) -> np.ndarray:
        k = np.asarray(k, dtype=np.int64)
        entry = self._entries.get(key)
        if (entry is not None and entry.spec is spec
                and k.ndim == 2 and entry.keys.shape[1] == k.shape[1]):
            old_rows = entry.keys.shape[0]
            if old_rows == k.shape[0] and np.array_equal(entry.keys, k):
                self.hits += 1
                self._entries.move_to_end(key)
                return entry.stacked
            if 0 < old_rows < k.shape[0] and np.array_equal(
                    entry.keys, k[:old_rows]):
                suffix = pack_planes(k[old_rows:], spec)
                entry.stacked = np.concatenate(
                    [entry.stacked, suffix], axis=1)
                entry.keys = k.copy()
                self.extended += 1
                self._entries.move_to_end(key)
                return entry.stacked
        self.misses += 1
        stacked = pack_planes(k, spec)
        self._entries[key] = _CacheEntry(spec=spec, keys=k.copy(),
                                         stacked=stacked)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return stacked


@dataclass
class _Prepared:
    index: int
    job: Any
    q: np.ndarray
    k: np.ndarray
    qmax: int


def _empty_result(job, s_q: int, s_k: int):
    cycles = np.zeros((s_q, s_k), dtype=np.int64)
    pruned = np.zeros((s_q, s_k), dtype=bool)
    scores = np.zeros((s_q, s_k), dtype=np.float64)
    if job.valid is not None:
        cycles = np.where(job.valid, cycles, 0)
    return cycles, pruned, scores


def _pow2(size: int) -> int:
    return 1 << (size - 1).bit_length()


def _chunk_jobs(spec: PlaneSpec, dim: int, s_q_pad: int,
                s_k_pad: int) -> int:
    """Jobs per stacked matmul for one band: bounded in MACs and
    operand elements so paper-scale tiles degrade to per-job chunks
    and serving-shaped bands never allocate huge intermediates."""
    rows_pad = (spec.n_groups + 1) * s_k_pad
    macs = s_q_pad * max(dim, 1) * (rows_pad + s_k_pad)
    elements = max(rows_pad * max(dim, 1), 1)
    return max(1, min(_MAX_CHUNK_MACS // max(macs, 1),
                      _MAX_CHUNK_ELEMENTS // elements))


def fused_matrix_many(jobs, gemm: BatchedGemm,
                      cache: PlaneGroupCache | None = None) -> list:
    """Evaluate a batch of kernel jobs via banded block-diagonal GEMMs.

    Returns one ``(cycles, pruned, scores)`` triple per job, in input
    order, bit-identical to calling the packed ``matrix`` per job.
    """
    jobs = list(jobs)
    results: list = [None] * len(jobs)

    # group by everything the plane schedule and scan must share
    groups: dict[tuple, list[_Prepared]] = {}
    for index, job in enumerate(jobs):
        q = np.asarray(job.q, dtype=np.int64)
        k = np.asarray(job.k, dtype=np.int64)
        s_q, s_k = q.shape[0], k.shape[0]
        if s_q == 0 or s_k == 0:
            results[index] = _empty_result(job, s_q, s_k)
            continue
        prep = _Prepared(index, job, q, k,
                         int(np.abs(q).max()) if q.size else 0)
        gkey = (q.shape[1], job.magnitude_bits, job.group,
                float(job.margin_scale))
        groups.setdefault(gkey, []).append(prep)

    for (dim, magnitude_bits, group, margin_scale), preps in \
            groups.items():
        spec = plane_spec(magnitude_bits, group)
        # pow2 shape bands bound padding waste; ascending S_k order
        # keeps same-key growing-K jobs hitting the pack cache in
        # prefix order
        bands: dict[tuple[int, int], list[_Prepared]] = {}
        for prep in preps:
            bkey = (_pow2(prep.q.shape[0]), _pow2(prep.k.shape[0]))
            bands.setdefault(bkey, []).append(prep)
        staged: list[_StagedChunk] = []
        chunks: list[list[_Prepared]] = []
        for bkey in sorted(bands, key=lambda b: (b[1], b[0])):
            # size-sorted, so each chunk pads only to its own largest
            # job, not the band's
            band = sorted(bands[bkey],
                          key=lambda p: (p.k.shape[0], p.q.shape[0]))
            per_chunk = _chunk_jobs(spec, dim,
                                    max(p.q.shape[0] for p in band),
                                    band[-1].k.shape[0])
            for start in range(0, len(band), per_chunk):
                chunk = band[start:start + per_chunk]
                chunks.append(chunk)
                staged.append(_stage_chunk(
                    chunk, spec, dim, max(p.q.shape[0] for p in chunk),
                    chunk[-1].k.shape[0], gemm, cache))
        # one margin/termination scan over every chunk's concatenated
        # (padded) score lanes — the scan cost no longer multiplies
        # with the number of shape bands
        partial, terminated, cycles_flat = _scan(staged, spec,
                                                 margin_scale, dim)
        offset = 0
        for st, chunk in zip(staged, chunks):
            sqp, skp = st.s_q_pad, st.s_k_pad
            for prep in chunk:
                s_q, s_k = prep.q.shape[0], prep.k.shape[0]
                tile = slice(offset, offset + sqp * skp)
                offset += sqp * skp
                scores = partial[tile].reshape(sqp, skp)[:s_q, :s_k].copy()
                cycles = (cycles_flat[tile].reshape(sqp, skp)[:s_q, :s_k]
                          .copy())
                pruned = (terminated[tile].reshape(sqp, skp)[:s_q, :s_k]
                          | (scores < float(prep.job.threshold)))
                if prep.job.valid is not None:
                    cycles = np.where(prep.job.valid, cycles, 0)
                results[prep.index] = (cycles, pruned, scores)
    return results


def fused_matrix_table(table, gemm: BatchedGemm):
    """Evaluate a :class:`~repro.hw.backends.KernelTable` via banded
    block-diagonal GEMMs and one margin scan over every band.

    Jobs are banded by power-of-two (S_q, S_k) extent exactly like
    :func:`fused_matrix_many`; each band's operands are gathered
    straight out of the table's arrays and its outputs scattered back
    with array indexing, so no Python work runs per job.
    Bit-identical to :func:`~repro.hw.backends.matrix_table_loop`.
    """
    n_rows, skp_all = table.valid.shape
    dim = table.q.shape[1]
    spec = plane_spec(table.magnitude_bits, table.group)
    cycles = np.zeros((n_rows, skp_all), dtype=np.int64)
    scores = np.zeros((n_rows, skp_all), dtype=np.float64)
    terminated = np.zeros((n_rows, skp_all), dtype=bool)
    s_q = np.asarray(table.s_q, dtype=np.int64)
    s_k = np.asarray(table.s_k, dtype=np.int64)
    row_start = np.cumsum(s_q) - s_q
    # row n_rows is all zeros: band padding rows gather from it
    q_rows = np.concatenate([table.q, np.zeros((1, dim), table.q.dtype)])
    live = np.flatnonzero((s_q > 0) & (s_k > 0))
    staged: list[_StagedChunk] = []
    targets: list[tuple[np.ndarray, np.ndarray]] = []
    # (size - 1).bit_length() per job: frexp's exponent, 0 for 0
    band_keys = (np.frexp(s_k[live] - 1)[1] * 64
                 + np.frexp(s_q[live] - 1)[1])
    for key in np.unique(band_keys):
        band = live[band_keys == key]
        # size-sorted, so each chunk pads only to its own largest job
        band = band[np.lexsort((s_q[band], s_k[band]))]
        per_chunk = _chunk_jobs(spec, dim, int(s_q[band].max()),
                                int(s_k[band].max()))
        for start in range(0, len(band), per_chunk):
            sel = band[start:start + per_chunk]
            s_q_pad = int(s_q[sel].max())
            s_k_pad = int(s_k[sel].max())
            offsets = np.arange(s_q_pad)
            in_job = offsets < s_q[sel][:, None]
            rows = np.where(in_job, row_start[sel][:, None] + offsets,
                            n_rows)
            q_stack = q_rows[rows]
            qmax = int(np.abs(q_stack).max())
            gemm_dtype = _gemm_dtype(qmax, spec, dim)
            plane_stack, abs_sign_stack = _pack_band(
                table.k[sel, :s_k_pad], spec, gemm_dtype)
            staged.append(_finish_stage(
                q_stack.astype(gemm_dtype), plane_stack, abs_sign_stack,
                np.asarray(table.threshold[sel], dtype=np.float64),
                spec, gemm, qmax, s_q_pad, s_k_pad))
            targets.append((rows[in_job], in_job))
    if staged:
        partial, term_flat, cycles_flat = _scan(
            staged, spec, float(table.margin_scale), dim)
        offset = 0
        for st, (rows, in_job) in zip(staged, targets):
            shape = st.positive.shape
            lanes = slice(offset, offset + st.positive.size)
            offset = lanes.stop
            columns = slice(0, st.s_k_pad)
            scores[rows, columns] = partial[lanes].reshape(shape)[in_job]
            cycles[rows, columns] = cycles_flat[lanes].reshape(
                shape)[in_job]
            terminated[rows, columns] = term_flat[lanes].reshape(
                shape)[in_job]
    row_job = np.repeat(np.arange(len(s_q)), s_q)
    threshold = np.asarray(table.threshold, dtype=np.float64)[row_job]
    extent = np.arange(skp_all) < s_k[row_job][:, None]
    pruned = (terminated | (scores < threshold[:, None])) & extent
    cycles = np.where(table.valid, cycles, 0)
    return cycles, pruned, scores


def _job_planes(prep: _Prepared, spec: PlaneSpec,
                cache: PlaneGroupCache | None, dtype) -> np.ndarray:
    """The job's plane stack: the cache's float64 stack when the job
    has a pack key, else freshly packed in ``dtype``."""
    key = getattr(prep.job, "pack_key", None)
    if cache is not None and key is not None:
        return cache.planes_for(key, prep.k, spec)
    return pack_planes(prep.k, spec, dtype)


@dataclass
class _StagedChunk:
    s_q_pad: int
    s_k_pad: int
    fused: np.ndarray       # (n, s_q_pad, n_groups + 1, s_k_pad)
    positive: np.ndarray    # (n, s_q_pad, s_k_pad), gemm dtype
    thresholds: np.ndarray  # (n,), float64
    qmax: int


def _gemm_dtype(qmax: int, spec: PlaneSpec, dim: int):
    # max(..., 2) also covers the |q|@|s| + q@s sum inside `positive`
    f32_ok = qmax * max(spec.group_max, 2) * max(dim, 1) < _F32_EXACT
    return np.float32 if f32_ok else np.float64


def _key_dtype(kmax: int, spec: PlaneSpec):
    """Narrowest integer staging for packing keys of magnitude up to
    ``kmax``: narrow staging cuts pack bandwidth (int16 runs the plane
    extraction at about 2.5x int32's speed), but only while the
    downcast can't clip sign or masked magnitude bits."""
    if spec.magnitude_bits <= 15 and kmax < 1 << 15:
        return np.int16
    if spec.magnitude_bits <= 24 and kmax < _I32_SAFE:
        return np.int32
    return np.int64


def _pack_band(k_stack: np.ndarray, spec: PlaneSpec, gemm_dtype
               ) -> tuple[np.ndarray, np.ndarray]:
    """Pack a zero-padded ``(n, s_k, dim)`` key band into its stacked
    plane operand ``(n, (n_groups + 1) * s_k, dim)`` and ``|sign|``
    operand in one set of vectorized plane extractions (zero-padded K
    rows pack to all-zero planes, so padding falls out of the same
    ops)."""
    n, s_k_pad, dim = k_stack.shape
    n_groups = spec.n_groups
    kmax = (max(int(k_stack.max()), -int(k_stack.min()))
            if k_stack.size else 0)
    key_dtype = _key_dtype(kmax, spec)
    if k_stack.dtype != key_dtype:
        k_stack = k_stack.astype(key_dtype)
    signs = np.sign(k_stack)
    plane_stack = np.empty((n, (n_groups + 1) * s_k_pad, dim),
                           dtype=gemm_dtype)
    view = plane_stack.reshape(n, n_groups + 1, s_k_pad, dim)
    # every cycle's plane group at once: sign * (|k| & bits lo..lo+n-1);
    # the masks stay below magnitude_bits, matching the reference,
    # which only ever reads those planes of an out-of-range key
    masks = np.array([((1 << n_planes) - 1) << lo
                      for n_planes, lo in spec.mag_groups],
                     dtype=key_dtype)[:, None, None]
    fields = np.bitwise_and(np.abs(k_stack)[:, None], masks)
    np.multiply(fields, signs[:, None], out=view[:, :n_groups],
                casting="unsafe")
    view[:, n_groups] = signs
    return plane_stack, np.abs(signs).astype(gemm_dtype)


def _stage_chunk(chunk: list[_Prepared], spec: PlaneSpec, dim: int,
                 s_q_pad: int, s_k_pad: int, gemm: BatchedGemm,
                 cache: PlaneGroupCache | None) -> _StagedChunk:
    n = len(chunk)
    n_groups = spec.n_groups
    rows_pad = (n_groups + 1) * s_k_pad
    qmax = max(p.qmax for p in chunk)
    gemm_dtype = _gemm_dtype(qmax, spec, dim)
    thresholds = np.array([float(p.job.threshold) for p in chunk])

    use_cache = cache is not None and any(
        getattr(p.job, "pack_key", None) is not None for p in chunk)
    if n == 1 and chunk[0].q.shape[0] == s_q_pad \
            and chunk[0].k.shape[0] == s_k_pad:
        # solo fast path: no padding, the plane stack feeds the GEMM
        # as a reshape view instead of a copy (a cached float64 stack
        # takes float64 queries: exact wherever float32 is)
        stacked = _job_planes(chunk[0], spec, cache, gemm_dtype)
        q_stack = chunk[0].q.astype(stacked.dtype)[None]
        plane_stack = stacked.reshape(1, rows_pad, dim)
        abs_sign_stack = np.abs(stacked[n_groups])[None]
    elif use_cache:
        # cached path: GEMMs run straight off each job's float64 plane
        # stack from the pack-once cache (exact hit or suffix
        # extension); only their small outputs are copied into the
        # padded band
        fused = np.zeros((n, s_q_pad, n_groups + 1, s_k_pad))
        abs_big = np.zeros((n, s_q_pad, s_k_pad))
        for i, prep in enumerate(chunk):
            (s_q, dim_q), s_k = prep.q.shape, prep.k.shape[0]
            stacked = _job_planes(prep, spec, cache, np.float64)
            q = prep.q.astype(np.float64)[None]
            fused[i, :s_q, :, :s_k] = gemm(
                q, stacked.reshape(1, -1, dim_q))[0].reshape(
                    s_q, n_groups + 1, s_k)
            abs_big[i, :s_q, :s_k] = gemm(
                np.abs(q), np.abs(stacked[n_groups])[None])[0]
        return _staged(fused, abs_big, thresholds, spec, qmax,
                       s_q_pad, s_k_pad)
    else:
        # cacheless path: copy the band into padded stacks, then pack
        # it in one set of vectorized plane extractions
        kmax = max(max(int(p.k.max()), -int(p.k.min()))
                   if p.k.size else 0 for p in chunk)
        key_dtype = _key_dtype(kmax, spec)
        q_stack = np.zeros((n, s_q_pad, dim), dtype=gemm_dtype)
        k_stack = np.zeros((n, s_k_pad, dim), dtype=key_dtype)
        for i, prep in enumerate(chunk):
            q_stack[i, :prep.q.shape[0]] = prep.q
            k_stack[i, :prep.k.shape[0]] = prep.k
        plane_stack, abs_sign_stack = _pack_band(k_stack, spec,
                                                 gemm_dtype)
    return _finish_stage(q_stack, plane_stack, abs_sign_stack,
                         thresholds, spec, gemm, qmax, s_q_pad, s_k_pad)


def _finish_stage(q_stack, plane_stack, abs_sign_stack, thresholds,
                  spec: PlaneSpec, gemm: BatchedGemm, qmax: int,
                  s_q_pad: int, s_k_pad: int) -> _StagedChunk:
    big = gemm(q_stack, plane_stack)
    abs_big = gemm(np.abs(q_stack), abs_sign_stack)
    fused = big.reshape(len(q_stack), s_q_pad, spec.n_groups + 1,
                        s_k_pad)
    return _staged(fused, abs_big, thresholds, spec, qmax, s_q_pad,
                   s_k_pad)


def _staged(fused, abs_big, thresholds, spec: PlaneSpec, qmax: int,
            s_q_pad: int, s_k_pad: int) -> _StagedChunk:
    # margin base: sum of q*sign over dims where the product can push
    # the score up = (|q| @ |s|^T + q @ s^T) / 2, all integer-exact
    positive = (abs_big + fused[:, :, spec.n_groups]) * 0.5
    return _StagedChunk(s_q_pad, s_k_pad, fused, positive, thresholds,
                        qmax)


def _scan(staged: list[_StagedChunk], spec: PlaneSpec,
          margin_scale: float, dim: int
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The margin/termination scan over every chunk's padded score
    lanes, concatenated in chunk order.  Returns flat ``(partial
    sums, terminated, cycles)``; each chunk occupies ``n * s_q_pad *
    s_k_pad`` consecutive lanes."""
    n_groups = spec.n_groups
    qmax = max(st.qmax for st in staged)
    margin_bound = (qmax * max(dim, 1)
                    * max((1 << spec.magnitude_bits) - 1, 1))
    int_scan = (margin_scale == 1.0 and margin_bound < _I32_SAFE
                and all(np.isfinite(st.thresholds).all()
                        and (np.abs(st.thresholds) < _I32_SAFE).all()
                        for st in staged))
    scan_dtype = np.int32 if int_scan else np.float64

    # concatenate every chunk's (padded) score lanes into flat scan
    # arrays: one fused cast-copy per plane row per chunk, then a
    # single scan regardless of how many shape bands the group split
    # into
    total = sum(st.fused.shape[0] * st.s_q_pad * st.s_k_pad
                for st in staged)
    plane_flat = np.empty((n_groups, total), dtype=scan_dtype)
    positive_flat = np.empty(total, dtype=scan_dtype)
    th_flat = np.empty(total, dtype=scan_dtype)
    offset = 0
    for st in staged:
        shape = (st.fused.shape[0], st.s_q_pad, st.s_k_pad)
        pairs = shape[0] * shape[1] * shape[2]
        for g in range(n_groups):
            np.copyto(plane_flat[g, offset:offset + pairs]
                      .reshape(shape), st.fused[:, :, g, :],
                      casting="unsafe")
        np.copyto(positive_flat[offset:offset + pairs].reshape(shape),
                  st.positive, casting="unsafe")
        if int_scan:
            # lhs is an exact integer, so lhs < th  <=>  lhs < ceil(th)
            th_scan = np.ceil(st.thresholds).astype(np.int32)
        else:
            th_scan = st.thresholds
        np.copyto(th_flat[offset:offset + pairs].reshape(shape),
                  th_scan[:, None, None], casting="unsafe")
        offset += pairs

    partial = np.zeros(total, dtype=scan_dtype)
    margin_buf = np.empty(total, dtype=scan_dtype)
    below = np.empty(total, dtype=bool)
    terminated = np.zeros(total, dtype=bool)
    terminated_cycles = np.zeros(total, dtype=np.int8)
    remaining = spec.magnitude_bits
    cursor = 0
    for cycle_index, (n_planes, _) in enumerate(spec.cycle_groups,
                                                start=1):
        if n_planes:
            np.add(partial, plane_flat[cursor], out=partial)
            cursor += 1
            remaining -= n_planes
        if cycle_index == spec.full_cycles:
            break
        np.multiply(positive_flat, (1 << remaining) - 1,
                    out=margin_buf)
        if margin_scale != 1.0:
            np.multiply(margin_buf, margin_scale, out=margin_buf)
        np.add(margin_buf, partial, out=margin_buf)
        np.less(margin_buf, th_flat, out=below)
        np.logical_or(terminated, below, out=terminated)
        # a score terminated by cycle c contributes 1 for every later
        # boundary, so cycles = full - sum(terminated-by) recovers the
        # first-termination cycle (and full for survivors)
        np.add(terminated_cycles, terminated, out=terminated_cycles,
               casting="unsafe")
    cycles = spec.full_cycles - terminated_cycles.astype(np.int64)
    return partial.astype(np.float64), terminated, cycles


__all__ = ["PlaneSpec", "plane_spec", "pack_planes", "PlaneGroupCache",
           "fused_matrix_many", "fused_matrix_table",
           "numpy_batched_gemm", "BatchedGemm"]
