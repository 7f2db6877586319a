"""Hardware job extraction: attention records -> quantized tile jobs.

Two forms of the same jobs: :class:`HeadJob`, one object per (layer,
head, sequence) tile, and :class:`JobTable`, every job of one
hardware-accounting call as stacked arrays.  The tile
simulator evaluates tables; lists of ``HeadJob`` are converted to
tables on the way in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_MAGNITUDE_BITS = 11


def _quantize(values: np.ndarray, magnitude_bits: int
              ) -> tuple[np.ndarray, float]:
    """Symmetric sign-magnitude quantization to ``magnitude_bits``."""
    peak = float(np.abs(values).max())
    if peak <= 0.0:
        return np.zeros(values.shape, dtype=np.int64), 1.0
    scale = ((1 << magnitude_bits) - 1) / peak
    return np.round(values * scale).astype(np.int64), scale


@dataclass
class HeadJob:
    """One (layer, head, sequence) attention tile job.

    ``queries``/``keys``/``threshold`` are in the tile's native 12-bit
    integer domain; the float originals are kept so simulators can
    requantize for narrower datapaths (e.g. the 9-bit Table-2 variant).
    """

    queries: np.ndarray          # (S_q, D) int64
    keys: np.ndarray             # (S_k, D) int64
    threshold: float             # integer-score domain
    valid: np.ndarray            # (S_q, S_k) bool
    q_float: np.ndarray | None = None
    k_float: np.ndarray | None = None
    threshold_float: float | None = None
    layer_index: int = 0
    head: int = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.queries.shape[0], self.keys.shape[0]

    def quantized_for(self, magnitude_bits: int
                      ) -> tuple[np.ndarray, np.ndarray, float]:
        """(queries, keys, threshold) at the requested precision."""
        if magnitude_bits == DEFAULT_MAGNITUDE_BITS or self.q_float is None:
            return self.queries, self.keys, self.threshold
        q, sq = _quantize(self.q_float, magnitude_bits)
        k, sk = _quantize(self.k_float, magnitude_bits)
        return q, k, float(self.threshold_float) * sq * sk


def job_from_arrays(q: np.ndarray, k: np.ndarray, threshold: float,
                    valid: np.ndarray | None = None,
                    magnitude_bits: int = DEFAULT_MAGNITUDE_BITS,
                    layer_index: int = 0, head: int = 0) -> HeadJob:
    """Build a tile job from float Q, K and a float threshold, such that
    integer scores ~ float scores * (scale_q * scale_k)."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    qi, sq = _quantize(q, magnitude_bits)
    ki, sk = _quantize(k, magnitude_bits)
    if valid is None:
        valid = np.ones((q.shape[0], k.shape[0]), dtype=bool)
    return HeadJob(
        queries=qi, keys=ki, threshold=float(threshold) * sq * sk,
        valid=np.asarray(valid, dtype=bool),
        q_float=q, k_float=k, threshold_float=float(threshold),
        layer_index=layer_index, head=head,
    )


def jobs_from_records(records) -> list[HeadJob]:
    """Flatten captured attention records into per-(batch, head) jobs.

    Records must have been captured with ``record_qk=True`` so the
    actual Q/K activations are available (the recorded scores already
    include the 1/sqrt(d) scale, and so do the stored queries).
    """
    jobs: list[HeadJob] = []
    for record in records:
        _check_qk(record)
        batch, heads = record.queries.shape[:2]
        for b in range(batch):
            valid = None if record.valid is None else record.valid[b]
            for h in range(heads):
                jobs.append(job_from_arrays(
                    record.queries[b, h], record.keys[b, h],
                    record.threshold, valid,
                    layer_index=record.layer_index, head=h))
    return jobs


def _check_qk(record) -> None:
    if record.queries is None or record.keys is None:
        raise ValueError(
            "record captured without record_qk=True; hardware jobs "
            "need the Q/K activations")


#: float elements staged per batch of records while building a table
_STAGE_ELEMENTS = 1 << 16


def _int_dtype(magnitude_bits: int):
    """Narrowest signed integer type holding +-(2^magnitude_bits - 1)."""
    if magnitude_bits <= 15:
        return np.int16
    return np.int32 if magnitude_bits <= 31 else np.int64


def segment_reduce(ufunc, values: np.ndarray, lengths: np.ndarray,
                   empty=0) -> np.ndarray:
    """``ufunc.reduceat`` over consecutive row segments of the given
    lengths; a zero-length segment reduces to ``empty``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.full((len(lengths),) + values.shape[1:], empty,
                  dtype=values.dtype)
    nonempty = lengths > 0
    if nonempty.any():
        starts = np.cumsum(lengths) - lengths
        out[nonempty] = ufunc.reduceat(values, starts[nonempty], axis=0)
    return out


def _quantize_rows(values: np.ndarray, lengths: np.ndarray,
                   magnitude_bits: int, out: np.ndarray) -> np.ndarray:
    """:func:`_quantize` of every job at once, over job-major rows.

    ``values`` (float, scaled in place) holds ``lengths[j]`` rows per
    job; each job's peak is the max over its rows, zero padding never
    raises one, and a job whose peak is not positive quantizes to zeros
    with scale 1.  Writes the integers to ``out`` and returns the
    per-job scales."""
    peak = segment_reduce(np.maximum, np.abs(values).max(axis=1,
                                                         initial=0.0),
                          lengths, 0.0)
    positive = peak > 0.0
    scale = np.where(positive, ((1 << magnitude_bits) - 1)
                     / np.where(positive, peak, 1.0), 1.0)
    np.multiply(values, np.repeat(scale, lengths)[:, None], out=values)
    np.round(values, out=values)
    out[...] = values
    return scale


@dataclass(frozen=True, eq=False)
class JobTable:
    """Every tile job of one hardware-accounting call as stacked arrays.

    Query rows are stored job-major without padding: job ``j`` owns
    rows ``row_start[j] : row_start[j] + s_q[j]`` of ``q`` and
    ``valid``, against keys ``k[j, :s_k[j]]``.  Key rows past a job's
    ``s_k``, and head-dim columns past its width, are zero and
    ``valid`` is False there, so padding never changes a score, a
    margin or a count.  ``group[j]`` (non-decreasing) names the record
    group — one served request — the job is charged to.  Integers are
    quantized to ``magnitude_bits``.
    """

    q: np.ndarray                 # (R, D) query rows
    k: np.ndarray                 # (N, S_k, D)
    threshold: np.ndarray         # (N,) integer-score domain
    valid: np.ndarray             # (R, S_k) bool
    s_q: np.ndarray               # (N,) int64
    s_k: np.ndarray               # (N,) int64
    group: np.ndarray             # (N,) int64, non-decreasing
    n_groups: int
    magnitude_bits: int = DEFAULT_MAGNITUDE_BITS

    def __len__(self) -> int:
        return len(self.threshold)

    @cached_property
    def row_start(self) -> np.ndarray:
        return np.cumsum(self.s_q) - self.s_q

    def slices(self, max_scores: int):
        """Contiguous job ranges as tables of views, each holding at
        most ``max_scores`` padded score positions (or one job)."""
        widths = self.s_q * self.k.shape[1]
        start = 0
        while start < len(self):
            ends = np.cumsum(widths[start:])
            stop = start + max(1, int(np.searchsorted(
                ends, max_scores, side="right")))
            rows = slice(int(self.row_start[start]),
                         int(self.row_start[stop - 1]
                             + self.s_q[stop - 1]))
            yield JobTable(
                q=self.q[rows], k=self.k[start:stop],
                threshold=self.threshold[start:stop],
                valid=self.valid[rows], s_q=self.s_q[start:stop],
                s_k=self.s_k[start:stop], group=self.group[start:stop],
                n_groups=self.n_groups,
                magnitude_bits=self.magnitude_bits)
            start = stop


def table_from_records(record_groups,
                       magnitude_bits: int = DEFAULT_MAGNITUDE_BITS
                       ) -> JobTable:
    """One :class:`JobTable` over several groups of captured records.

    Group ``g``'s jobs are exactly ``jobs_from_records(record_groups[g])``
    in the same order, quantized for ``magnitude_bits`` with the same
    per-job peaks (as :meth:`HeadJob.quantized_for` would); groups may
    be empty.  Records are copied with one slice assignment per array,
    through float staging buffers a bounded batch of records at a
    time."""
    entries = [(g, record) for g, records in enumerate(record_groups)
               for record in records]
    for _, record in entries:
        _check_qk(record)
    # per record: jobs (B*H), rows, key rows, head dim, group
    shapes = np.array([(r.queries.shape[0] * r.queries.shape[1],
                        r.queries.shape[2], r.keys.shape[2],
                        r.queries.shape[3], g) for g, r in entries],
                      dtype=np.int64).reshape(-1, 5)
    jobs_of, rows_of = shapes[:, 0], shapes[:, 1]
    s_q, s_k, group = (np.repeat(shapes[:, i], jobs_of)
                       for i in (1, 2, 4))
    threshold = np.repeat([float(r.threshold) for _, r in entries],
                          jobs_of)
    # at least 1 wide, so reductions over padded axes are never empty
    s_k_pad = max(1, int(shapes[:, 2].max(initial=0)))
    dim = max(1, int(shapes[:, 3].max(initial=0)))
    dtype = _int_dtype(magnitude_bits)
    q = np.empty((int(s_q.sum()), dim), dtype=dtype)
    k = np.empty((len(s_q), s_k_pad, dim), dtype=dtype)
    valid = np.zeros((len(q), s_k_pad), dtype=bool)
    scales = np.empty((2, len(s_q)))
    staged = jobs_of * (rows_of + s_k_pad) * dim
    staged_end = np.cumsum(staged)
    job_end = np.cumsum(jobs_of)
    row_end = np.cumsum(jobs_of * rows_of)
    first = job0 = row0 = 0
    while first < len(entries):
        # a batch holds at least one record, then as many as fit
        limit = staged_end[first] - staged[first] + _STAGE_ELEMENTS
        last = max(first + 1, int(np.searchsorted(staged_end, limit,
                                                  side="right")))
        jobs = slice(job0, int(job_end[last - 1]))
        rows = slice(row0, int(row_end[last - 1]))
        q_float = np.zeros((rows.stop - row0, dim))
        k_float = np.zeros((jobs.stop - job0, s_k_pad, dim))
        j = r = 0
        for _, record in entries[first:last]:
            batch, heads, n_rows, width = record.queries.shape
            cols = record.keys.shape[2]
            # (B, H, ...) -> B*H jobs, batch-major like jobs_from_records
            q_float[r:r + batch * heads * n_rows, :width] = \
                record.queries.reshape(-1, width)
            k_float[j:j + batch * heads, :cols, :width] = \
                record.keys.reshape(-1, cols, width)
            block = valid[row0 + r:row0 + r + batch * heads * n_rows]
            block.reshape(batch, heads, n_rows, s_k_pad)[..., :cols] = (
                True if record.valid is None else record.valid[:, None])
            j += batch * heads
            r += batch * heads * n_rows
        scales[0, jobs] = _quantize_rows(q_float, s_q[jobs],
                                         magnitude_bits, q[rows])
        scales[1, jobs] = _quantize_rows(
            k_float.reshape(-1, dim), np.full(j, s_k_pad),
            magnitude_bits, k[jobs].reshape(-1, dim))
        first, job0, row0 = last, jobs.stop, rows.stop
    return JobTable(q=q, k=k, threshold=threshold * scales[0] * scales[1],
                    valid=valid, s_q=s_q, s_k=s_k, group=group,
                    n_groups=len(record_groups),
                    magnitude_bits=magnitude_bits)


def tables_from_jobs(jobs: list[HeadJob], magnitude_bits: int
                     ) -> list[JobTable]:
    """Single-group tables over a list of ``HeadJob``, quantized per
    job for ``magnitude_bits``.  Jobs are banded by power-of-two key
    count, so mixing long and short tiles costs at most 2x key padding
    instead of padding every job to the largest."""
    bands: dict[int, list] = {}
    for job in jobs:
        q, k, threshold = job.quantized_for(magnitude_bits)
        bands.setdefault(1 << max(k.shape[0] - 1, 0).bit_length(),
                         []).append((q, k, threshold, job.valid))
    tables = []
    for band in bands.values():
        s_q = np.array([len(q) for q, _, _, _ in band], dtype=np.int64)
        s_k = np.array([len(k) for _, k, _, _ in band], dtype=np.int64)
        dim = max(max(q.shape[1], k.shape[1]) for q, k, _, _ in band)
        q_rows = np.zeros((int(s_q.sum()), dim), dtype=np.int64)
        keys = np.zeros((len(band), max(1, int(s_k.max())), dim),
                        dtype=np.int64)
        valid = np.zeros((len(q_rows), keys.shape[1]), dtype=bool)
        row = 0
        for j, (q, k, _, job_valid) in enumerate(band):
            q_rows[row:row + len(q), :q.shape[1]] = q
            valid[row:row + len(q), :len(k)] = job_valid
            keys[j, :len(k), :k.shape[1]] = k
            row += len(q)
        tables.append(JobTable(
            q=q_rows, k=keys,
            threshold=np.array([float(t) for _, _, t, _ in band]),
            valid=valid, s_q=s_q, s_k=s_k,
            group=np.zeros(len(band), dtype=np.int64), n_groups=1,
            magnitude_bits=magnitude_bits))
    return tables
