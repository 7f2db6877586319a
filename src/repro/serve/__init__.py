"""Batched serving: async request queue + dynamic batcher in front of
``PrunedInferenceEngine``; generation streams run under one continuous
scheduler (``StepPlanner`` admitting into ``KVSlotBuffer`` decode
slots), ``ModelRouter`` fronts several engines behind one queue
discipline with health-checked routing, ``WorkerTier`` scales one model across
shared-nothing engine replicas (``ProcessWorkerTier`` puts each
replica in its own OS process over a binary socket protocol, sharing
one memory-mapped snapshot), and the reliability layer adds
deadlines/cancellation, typed terminal reason codes, admission
control (token backlog + TTFT/TBT SLO prediction), and deterministic
fault injection (``FaultPlan``).  ``repro.serve.loadgen`` drives it
all with seeded, replayable traces and percentile SLO reports."""

from .aio import AsyncServingEngine
from .batcher import BatchPolicy, CoalescedBatch, DynamicBatcher, \
    LadderOption, QueuedRequest, coalesce
from .engine import (DeadlineExceeded, REASON_CANCELLED, REASON_DEADLINE,
                     REASON_ERROR, REASON_OK, REASON_SHED,
                     RequestCancelled, RequestTiming, ServeResult,
                     ServingEngine, ServingStats, ShedOverload)
from .faults import Fault, FaultPlan, InjectedKernelError
from .hardware import HardwareTotals, slice_record
from .health import EngineHealth, HealthPolicy
from .procworkers import ProcessWorkerTier, WorkerDied
from .router import (EngineQuarantined, ModelRouter, UnknownModelError)
from .scheduler import SchedulerConfig, SLOAdmission, StepPlan, \
    StepPlanner
from .streams import KVSlotBuffer, StreamState
from .workers import WorkerTier

__all__ = ["AsyncServingEngine", "BatchPolicy", "CoalescedBatch",
           "DynamicBatcher", "LadderOption", "QueuedRequest", "coalesce",
           "ServeResult",
           "ServingEngine", "ServingStats", "HardwareTotals",
           "slice_record", "ModelRouter", "SchedulerConfig", "StepPlan",
           "StepPlanner", "KVSlotBuffer", "StreamState",
           # reliability layer
           "DeadlineExceeded", "RequestCancelled", "ShedOverload",
           "REASON_OK", "REASON_DEADLINE", "REASON_CANCELLED",
           "REASON_ERROR", "REASON_SHED",
           "Fault", "FaultPlan", "InjectedKernelError",
           "EngineHealth", "HealthPolicy",
           "EngineQuarantined", "UnknownModelError",
           # load generation & SLOs
           "RequestTiming", "SLOAdmission", "WorkerTier",
           "ProcessWorkerTier", "WorkerDied",
           "TraceSpec", "TraceRequest", "VirtualClock", "replay_trace",
           "LoadReport", "RequestOutcome"]

_LOADGEN_EXPORTS = {"TraceSpec", "TraceRequest", "VirtualClock",
                    "replay_trace", "LoadReport", "RequestOutcome"}


def __getattr__(name):
    # lazy so `python -m repro.serve.loadgen` doesn't double-import the
    # loadgen module (sys.modules RuntimeWarning)
    if name in _LOADGEN_EXPORTS:
        from . import loadgen
        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
