"""Cycle-level tile simulator (paper §4): N_QK bit-serial front-end
DPUs feeding a softmax + xV back-end (V-PU).

The simulator is fully array-based: it evaluates a whole
:class:`~repro.hw.workload.JobTable` with one kernel dispatch (per
slice of a table larger than a serving step), then schedules query
rows across DPU lanes and the V-PU with masked reductions over the
table's rows, and sums rows into jobs and jobs into groups with
``np.add.reduceat`` — no per-job or per-score Python work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backends import KernelTable, get_backend, run_many
from .config import TileConfig
from .workload import HeadJob, JobTable, segment_reduce, tables_from_jobs


@dataclass
class TileCounters:
    """Activity counters consumed by the energy model."""

    scores_total: int = 0          # valid score positions
    scores_pruned: int = 0         # dropped by the learned threshold
    survivors: int = 0             # scores reaching the back end
    qk_lane_cycles: int = 0        # DPU-cycles across all lanes
    qk_bits_processed: int = 0     # K bit-planes consumed
    rows: int = 0                  # query rows with any valid score
    vpu_busy_cycles: int = 0
    runtime_cycles: int = 0        # tile-clock cycles (for leakage)

    def add(self, other: "TileCounters") -> None:
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class TileRunResult:
    config: TileConfig
    total_cycles: int
    frontend_cycles: int
    backend_cycles: int
    frontend_stall_cycles: int
    counters: TileCounters
    jobs: int
    # per record group of a JobTable input, in group order; empty when
    # the input was a job list (the result is that one group)
    groups: tuple["TileRunResult", ...] = field(default=(), repr=False)

    @property
    def pruning_rate(self) -> float:
        return self.counters.scores_pruned / max(self.counters.scores_total,
                                                 1)

    @property
    def vpu_utilization(self) -> float:
        """Back-end demand per front-end cycle; > 1 means the V-PU is
        over-subscribed and throttles the tile."""
        return self.backend_cycles / max(self.frontend_cycles, 1)

    @property
    def runtime_ns(self) -> float:
        return self.total_cycles / self.config.frequency_ghz


# per-job activity columns, summed per group by np.add.reduceat
_COLUMNS = ("total", "frontend", "backend", "stall", "scores_total",
            "scores_pruned", "survivors", "qk_lane_cycles",
            "qk_bits_processed", "rows")
#: score positions evaluated per kernel dispatch; bounds the temporaries
#: of one slice of a large table (a serving step fits in one slice)
_SLICE_SCORES = 1 << 16
#: float64 elements of keys gathered per chunk for the baseline's
#: exact scores
_GATHER_ELEMENTS = 1 << 16


def _exact_scores(table: JobTable) -> np.ndarray:
    """``q . k`` for every score position as float64 (exact: integer
    products and sums far inside 2^53), a bounded chunk of query rows
    at a time so each row's keys are gathered without a full copy."""
    n_rows = len(table.q)
    s_k_pad, dim = table.k.shape[1:]
    scores = np.empty((n_rows, s_k_pad))
    row_job = np.repeat(np.arange(len(table)), table.s_q)
    step = max(1, _GATHER_ELEMENTS // max(s_k_pad * dim, 1))
    for start in range(0, n_rows, step):
        rows = slice(start, start + step)
        keys = table.k[row_job[rows]].astype(np.float64)
        queries = table.q[rows].astype(np.float64)[:, :, None]
        scores[rows] = np.matmul(keys, queries)[:, :, 0]
    return scores


class TileSimulator:
    def __init__(self, config: TileConfig, backend: str | None = None,
                 profiler=None):
        """``backend`` overrides the kernel backend by registry name;
        otherwise ``config.kernel_backend``, then the
        ``REPRO_KERNEL_BACKEND`` environment variable, decide (see
        :mod:`repro.hw.backends`).  Resolution happens here so a typo
        fails at construction, not mid-run.

        ``profiler`` (a :class:`repro.obs.KernelProfiler`) opts into
        timing each kernel dispatch: backend name, wall time, and how
        many jobs / record groups rode the call.
        """
        self.config = config
        self.backend = get_backend(backend or config.kernel_backend)
        self.profiler = profiler

    # -- kernel dispatch ------------------------------------------------
    def _kernel(self, table: JobTable):
        """``(cycles, pruned, scores)`` per query row: one ``run_many``
        call for the early-termination tile, exact scores for the
        bit-parallel baseline."""
        config = self.config
        if not config.early_termination:
            cycles = np.where(table.valid, config.full_score_cycles(), 0)
            scores = _exact_scores(table)
            threshold = np.repeat(table.threshold, table.s_q)
            return cycles, scores < threshold[:, None], scores
        kernel_table = KernelTable(
            q=table.q, k=table.k, threshold=table.threshold,
            valid=table.valid, s_q=table.s_q, s_k=table.s_k,
            magnitude_bits=config.magnitude_bits,
            group=config.serial_bits)
        if self.profiler is None:
            return run_many(self.backend, kernel_table)
        from time import perf_counter
        start = perf_counter()
        result = run_many(self.backend, kernel_table)
        self.profiler.record(self.backend.name, jobs=len(table),
                             groups=table.n_groups,
                             elapsed_s=perf_counter() - start)
        return result

    # -- scheduling, all masked reductions over the table ---------------
    def _activity(self, table: JobTable) -> np.ndarray:
        """Per-job ``_COLUMNS`` as an ``(N, len(_COLUMNS))`` array."""
        config = self.config
        valid = table.valid
        cycles, pruned, scores = self._kernel(table)

        pruned_valid = pruned & valid
        if config.runtime_pruning:
            # the back end's running-max register always survives, so a
            # row is never pruned empty — same semantics as the model's
            # HARD mode (models/attention.py)
            masked = np.where(valid, scores, -np.inf)
            is_row_max = valid & (masked == masked.max(axis=1,
                                                       keepdims=True))
            surviving = valid & (~pruned_valid | is_row_max)
        else:
            surviving = valid

        active_rows = valid.any(axis=1)
        row_cycles = cycles.sum(axis=1)
        # the last cycle of a full schedule may carry fewer planes than
        # serial_bits (e.g. 9 bits in 5x2 cycles), so cap per score
        bits_processed = np.minimum(cycles * config.serial_bits,
                                    config.qk_bits)
        per_row = np.stack([
            # front end: keys of a row round-robin over N_QK lanes
            np.ceil(row_cycles / config.num_qk_dpus),
            # back end: per-row softmax pipeline + per-survivor xV work
            np.where(active_rows,
                     config.softmax_latency + surviving.sum(axis=1)
                     * config.vpu_cycles_per_score, 0),
            valid.sum(axis=1), pruned_valid.sum(axis=1),
            surviving.sum(axis=1), row_cycles,
            bits_processed.sum(axis=1), active_rows,
        ], axis=1).astype(np.int64)
        per_job = segment_reduce(np.add, per_row, table.s_q)
        fe, be = per_job[:, 0], per_job[:, 1]
        # jobs stream back-to-back through the tile: a job takes the
        # longer of its two ends, and the pipeline-fill latency is
        # charged once per group, not per job
        return np.column_stack([np.maximum(fe, be), fe, be,
                                np.maximum(be - fe, 0), per_job[:, 2:]])

    def _result(self, sums: np.ndarray, jobs: int, fills: int,
                groups: tuple = ()) -> TileRunResult:
        """A result from summed ``_COLUMNS``, charging ``fills``
        pipeline fills (one per non-empty group run)."""
        column = dict(zip(_COLUMNS, (int(v) for v in sums)))
        total = column["total"] + fills * (
            self.config.full_score_cycles() + self.config.softmax_latency)
        return TileRunResult(
            config=self.config, total_cycles=total,
            frontend_cycles=column["frontend"],
            backend_cycles=column["backend"],
            frontend_stall_cycles=column["stall"],
            counters=TileCounters(
                scores_total=column["scores_total"],
                scores_pruned=column["scores_pruned"],
                survivors=column["survivors"],
                qk_lane_cycles=column["qk_lane_cycles"],
                qk_bits_processed=column["qk_bits_processed"],
                rows=column["rows"],
                vpu_busy_cycles=column["backend"],
                runtime_cycles=total),
            jobs=jobs, groups=groups)

    def run_job(self, job: HeadJob) -> TileRunResult:
        return self.run([job])

    def run(self, jobs: list[HeadJob] | JobTable) -> TileRunResult:
        """Simulate a job list (one group) or a :class:`JobTable`.

        For a table the result covers every group run back to back
        (each charged its own pipeline fill), and ``result.groups``
        holds one result per record group, each identical to running
        that group's jobs alone."""
        if isinstance(jobs, JobTable):
            if jobs.magnitude_bits != self.config.magnitude_bits:
                raise ValueError(
                    f"table quantized to {jobs.magnitude_bits} magnitude "
                    f"bits, tile datapath has "
                    f"{self.config.magnitude_bits}")
            tables, n_groups = [jobs], jobs.n_groups
        else:
            tables = tables_from_jobs(jobs, self.config.magnitude_bits)
            n_groups = 1
        parts = [(self._activity(part), part.group) for table in tables
                 for part in table.slices(_SLICE_SCORES)]
        per_job = np.concatenate(
            [cols for cols, _ in parts]
            or [np.zeros((0, len(_COLUMNS)), dtype=np.int64)])
        group = np.concatenate([g for _, g in parts]
                               or [np.zeros(0, dtype=np.int64)])
        counts = np.bincount(group, minlength=n_groups)
        sums = segment_reduce(np.add, per_job, counts)
        filled = counts > 0
        results = tuple(self._result(sums[g], int(counts[g]),
                                     int(filled[g]))
                        for g in range(n_groups))
        if not isinstance(jobs, JobTable):
            return results[0]
        return self._result(sums.sum(axis=0), len(jobs),
                            int(filled.sum()), results)
