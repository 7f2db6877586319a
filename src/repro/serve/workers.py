"""Shared-nothing multi-worker serving tier.

``WorkerTier`` scales the serving stack past one engine: N replica
workers, each wrapping its *own* :class:`~repro.core
.PrunedInferenceEngine` (typically rebuilt independently from the same
saved snapshot via :meth:`from_snapshot`), behind the familiar
submit / open_stream / step / finish surface.  Nothing is shared
between workers — no KV buffers, no queues, no model state — so a
replica failing, preempting, or shedding never perturbs its siblings,
and the tier composes directly with the asyncio front door
(:class:`~repro.serve.aio.AsyncServingEngine`) the way a
:class:`~repro.serve.router.ModelRouter` does.

Routing is deterministic least-loaded: each new request goes to the
worker owing the fewest :meth:`~repro.serve.engine.ServingEngine
.outstanding_tokens` (queued backlog plus the remaining generation
budget of running streams), with the lowest-index worker breaking
ties.  Because every worker pads and batches exactly like a solo
engine, placement is bit-invisible: a request's outputs, masks, and
hardware estimates are identical no matter which replica serves it —
the invariant the trace-replay tests in ``tests/test_loadgen.py`` pin.

Request ids are tier-global; per-worker SLO admission / token-budget
planning / fault injection arrive via the ``**engine_kwargs`` passed
through to each :class:`~repro.serve.engine.ServingEngine`.
"""

from __future__ import annotations

import time

import numpy as np

from .batcher import BatchPolicy
from .engine import ServeResult, ServingEngine


def tier_rollup(workers: dict[str, dict]) -> dict[str, dict]:
    """Aggregate per-worker stat rows into the tier summary shape
    shared by :class:`WorkerTier` and
    :class:`~repro.serve.procworkers.ProcessWorkerTier`:
    ``{"tier": {...}, "workers": rows}`` where the tier entry sums the
    terminal-reason counts, reliability tallies, and live load signals
    across every replica row."""
    tier = {"replicas": len(workers), "completed": 0,
            "reasons": {}, "shed": 0, "errors": 0, "retries": 0,
            "preemptions": 0, "outstanding_tokens": 0,
            "kv_slots_in_use": 0, "queue_depth": 0}
    for row in workers.values():
        for reason, count in row["reasons"].items():
            tier["reasons"][reason] = (tier["reasons"].get(reason, 0)
                                       + count)
        for key in ("completed", "shed", "errors", "retries",
                    "preemptions", "outstanding_tokens",
                    "kv_slots_in_use", "queue_depth"):
            tier[key] += row[key]
    return {"tier": tier, "workers": workers}


class WorkerTier:
    """N shared-nothing engine replicas behind one front door."""

    def __init__(self, workers: list[ServingEngine],
                 clock=time.monotonic):
        if not workers:
            raise ValueError("WorkerTier needs at least one worker")
        self.workers = list(workers)
        self._clock = clock
        # aio front-door compatibility: the runner's stream-pending
        # probe iterates ``engines.values()`` for router-like cores
        self.engines = {f"worker{i}": worker
                        for i, worker in enumerate(self.workers)}
        self._routes: dict[int, tuple[int, int]] = {}
        self._next_id = 0

    @classmethod
    def from_snapshot(cls, directory: str, replicas: int,
                      policy: BatchPolicy | None = None,
                      clock=time.monotonic, mmap: bool = False,
                      **engine_kwargs) -> "WorkerTier":
        """Build a tier of ``replicas`` workers, each rebuilding its own
        :class:`~repro.core.PrunedInferenceEngine` from the saved
        snapshot at ``directory`` — shared-nothing by construction
        (independent weights arrays, caches, and queues).
        ``mmap=True`` loads each replica's weights as read-only
        memory maps of one shared on-disk sidecar instead of private
        heap copies (see :func:`repro.core.engine.load_mmap_state`).
        ``engine_kwargs`` (``step_token_budget=``, ``preempt_after=``,
        ``slo=``, ``estimate_hardware=``, ``registry=``, ``tracer=``,
        ...) configure every worker's
        :class:`~repro.serve.engine.ServingEngine` identically; pass a
        fresh :class:`~repro.serve.scheduler.SLOAdmission` per tier, it
        is copied per worker so EWMA refinement stays per-replica.
        Workers are named ``worker0..N-1`` (their metric label and
        trace track), so don't pass ``name=``."""
        from dataclasses import replace

        from ..core import PrunedInferenceEngine

        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        slo = engine_kwargs.pop("slo", None)
        engine_kwargs.pop("name", None)
        workers = []
        for index in range(replicas):
            core = PrunedInferenceEngine.from_directory(directory,
                                                        mmap=mmap)
            workers.append(ServingEngine(
                core, policy=policy, clock=clock,
                slo=replace(slo) if slo is not None else None,
                name=f"worker{index}", **engine_kwargs))
        return cls(workers, clock=clock)

    # -- routing --------------------------------------------------------
    def pick_worker(self) -> int:
        """Deterministic least-loaded routing: the worker owing the
        fewest outstanding tokens, lowest index breaking ties."""
        loads = [worker.outstanding_tokens() for worker in self.workers]
        return min(range(len(loads)), key=lambda i: (loads[i], i))

    def _track(self, worker: int, inner_id: int) -> int:
        tier_id = self._next_id
        self._next_id += 1
        self._routes[tier_id] = (worker, inner_id)
        return tier_id

    def submit(self, inputs: np.ndarray, mask: np.ndarray | None = None,
               now: float | None = None, deadline: float | None = None,
               ttl: float | None = None) -> int:
        now = self._clock() if now is None else now
        worker = self.pick_worker()
        return self._track(worker, self.workers[worker].submit(
            inputs, mask, now=now, deadline=deadline, ttl=ttl))

    def open_stream(self, prompt: np.ndarray, max_new_tokens: int,
                    now: float | None = None,
                    deadline: float | None = None,
                    ttl: float | None = None) -> int:
        now = self._clock() if now is None else now
        worker = self.pick_worker()
        return self._track(worker, self.workers[worker].open_stream(
            prompt, max_new_tokens, now=now, deadline=deadline, ttl=ttl))

    def cancel(self, request_id: int) -> bool:
        route = self._routes.get(request_id)
        if route is None:
            raise KeyError(f"unknown request {request_id}")
        worker, inner = route
        return self.workers[worker].cancel(inner)

    # -- queue introspection (same surface as ServingEngine) ------------
    def next_deadline(self) -> float | None:
        deadlines = [d for worker in self.workers
                     if (d := worker.next_deadline()) is not None]
        return min(deadlines) if deadlines else None

    def queue_ready(self, now: float) -> bool:
        return any(worker.queue_ready(now) for worker in self.workers)

    def has_pending(self) -> bool:
        return any(worker.has_pending() for worker in self.workers)

    def kv_slots_in_use(self) -> int:
        return sum(worker.kv_slots_in_use() for worker in self.workers)

    def outstanding_tokens(self) -> int:
        return sum(worker.outstanding_tokens()
                   for worker in self.workers)

    # -- advancing ------------------------------------------------------
    def step(self, now: float | None = None) -> list[int]:
        """Advance every worker one step; returns tier-global ids
        completed this step (worker order, so completions are
        deterministic under a shared virtual clock)."""
        now = self._clock() if now is None else now
        completed: list[int] = []
        for index, worker in enumerate(self.workers):
            completed += self._completed_ids(index, worker.step(now))
        return completed

    def flush(self) -> list[int]:
        completed: list[int] = []
        for index, worker in enumerate(self.workers):
            completed += self._completed_ids(index, worker.flush())
        return completed

    def drain(self) -> list[int]:
        completed = self.flush()
        while self.has_pending():
            completed += self.step()
        return completed

    def _completed_ids(self, worker: int,
                       inner_ids: list[int]) -> list[int]:
        by_inner = {inner: tid
                    for tid, (index, inner) in self._routes.items()
                    if index == worker}
        return [by_inner[inner] for inner in inner_ids
                if inner in by_inner]

    # -- completion -----------------------------------------------------
    def result(self, request_id: int) -> ServeResult | None:
        route = self._routes.get(request_id)
        if route is None:
            return None
        worker, inner = route
        return self.workers[worker].result(inner)

    def finish(self, request_id: int) -> ServeResult:
        route = self._routes.get(request_id)
        if route is None:
            raise KeyError(f"unknown request {request_id}")
        worker, inner = route
        result = self.workers[worker].finish(inner)
        del self._routes[request_id]
        return result

    # -- observability --------------------------------------------------
    @property
    def stats(self) -> dict[str, object]:
        return {name: engine.stats
                for name, engine in self.engines.items()}

    def stats_summary(self) -> dict[str, dict]:
        """Tier-level rollup plus the per-worker breakdown.

        ``{"tier": {...}, "workers": {"worker0": {...}, ...}}`` — the
        tier entry aggregates terminal-reason counts and the
        reliability tallies across every replica (the numbers
        ``python -m repro.serve --stats --replicas N`` prints), and
        each worker row adds its live load signals and a coarse
        ``health`` verdict (``ok`` until the worker has contained
        forward errors, then ``erroring``)."""
        workers = {}
        for name, engine in self.engines.items():
            stats = engine.stats
            workers[name] = {
                "health": "erroring" if stats.errors else "ok",
                "completed": stats.completed,
                "reasons": dict(stats.reasons),
                "shed": stats.shed,
                "errors": stats.errors,
                "retries": stats.retries,
                "preemptions": stats.preemptions,
                "outstanding_tokens": engine.outstanding_tokens(),
                "kv_slots_in_use": engine.kv_slots_in_use(),
                "queue_depth": engine.queue_depth(),
            }
        return tier_rollup(workers)
