"""Multi-model router: several serving engines behind one front door.

``ModelRouter`` owns one :class:`~repro.serve.engine.ServingEngine`
per model name (each wrapping its own
:class:`~repro.core.PrunedInferenceEngine`, with its own per-model
bucket queues and stream queue) and presents the single-engine
surface — ``submit`` / ``open_stream`` / ``step`` / ``cancel`` /
``finish`` — with a ``model=`` argument for routing.  Request ids are
router-global, so callers never juggle per-engine id spaces.

Scheduling is budget-shared: each router step splits ``step_budget``
decode slots across the engines that have stream work, proportionally
to their load with a rotating remainder (deficit round-robin), and
passes each engine its share — an engine whose share shrank below
its running set swaps the overflow out to per-stream KV state until
pressure moves elsewhere.  Because
every engine keeps its own pad widths and KV buffers, routing is
bit-invisible: a request's outputs and hardware estimates are
identical to serving it on that model's engine alone.

Routing is also **health-checked**: every engine carries an
:class:`~repro.serve.health.EngineHealth` circuit breaker fed by its
step outcomes.  Consecutive failures degrade the engine (skipped
until an exponential backoff window passes, then retried); enough of
them quarantine it, at which point its waiting work is rerouted to
the configured fallback model (``fallbacks={"model": "other"}``) or
failed fast with typed ``engine_error`` results — never silently
stalled — and new submissions fast-reject (or reroute) until the
optional cooldown lets the engine back in as a half-open probe.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs.metrics import as_registry
from .engine import (REASON_ERROR, REASON_SHED, RequestTiming,
                     ServeResult, ServingEngine, ShedOverload)
from .health import EngineHealth, HealthPolicy
from .scheduler import SLOAdmission

_BREAKER_LEVELS = {"healthy": 0, "degraded": 1, "quarantined": 2}


class UnknownModelError(KeyError):
    """Routing asked for a model name that is not mounted."""

    def __init__(self, model: str, mounted):
        self.model = model
        self.mounted = sorted(mounted)
        super().__init__(model)

    def __str__(self) -> str:
        return (f"unknown model {self.model!r}; mounted models: "
                + ", ".join(repr(name) for name in self.mounted))


class EngineQuarantined(RuntimeError):
    """The target engine's circuit breaker is open and no fallback
    model is mounted for it."""


class ModelRouter:
    """Route requests across named serving engines with one queue
    discipline, a shared per-step decode budget, and per-engine
    circuit breakers."""

    is_router = True

    def __init__(self, engines: dict[str, ServingEngine],
                 step_budget: int | None = None,
                 clock=time.monotonic,
                 health: HealthPolicy | None = None,
                 fallbacks: dict[str, str] | None = None,
                 admission: SLOAdmission | None = None,
                 registry=None):
        """``admission`` (an :class:`~repro.serve.scheduler
        .SLOAdmission`) moves SLO shedding to the front door: the
        router prices every submission against the *target* engine's
        backlog before enqueueing and sheds hopeless work itself with
        a typed ``shed_overload`` result — the engine never sees it,
        so shed decisions are made once, centrally, instead of
        per-engine.  One shared instance covers all mounted models
        (its step-time EWMA refines from router step durations)."""
        if not engines:
            raise ValueError("ModelRouter needs at least one engine")
        self.engines = dict(engines)
        self.step_budget = step_budget
        self._clock = clock
        self._admission = admission
        self._routes: dict[int, tuple[str, int]] = {}
        self._next_id = 0
        self._turn = 0                   # rotating remainder pointer
        self.health = {name: EngineHealth(health) for name in engines}
        # breaker observability: a per-model state gauge (0 healthy,
        # 1 degraded, 2 quarantined), transition counters, reroute /
        # fast-reject counters.  No-op handles without a registry.
        self._registry = as_registry(registry)
        self._m_breaker = {
            name: self._registry.gauge(
                "repro_breaker_state",
                "circuit state: 0 healthy, 1 degraded, 2 quarantined",
                model=name)
            for name in engines}
        self._m_transitions = {
            (name, state): self._registry.counter(
                "repro_breaker_transitions_total",
                "circuit-breaker state changes", model=name, to=state)
            for name in engines for state in _BREAKER_LEVELS}
        self._m_rerouted = {
            name: self._registry.counter(
                "repro_reroutes_total",
                "waiting requests rerouted off a quarantined model",
                model=name)
            for name in engines}
        self._m_rejected = self._registry.counter(
            "repro_router_fast_rejects_total",
            "submissions rejected because no healthy engine was mounted")
        self._m_shed_front = self._registry.counter(
            "repro_router_admission_shed_total",
            "submissions shed at the router by SLO admission control")
        if admission is not None:
            admission.bind_metrics(self._registry, {"scope": "router"})
        self._breaker_seen = {name: "healthy" for name in engines}
        self.fallbacks = dict(fallbacks or {})
        for model, fallback in self.fallbacks.items():
            if model not in self.engines:
                raise UnknownModelError(model, self.engines)
            if fallback not in self.engines:
                raise UnknownModelError(fallback, self.engines)
            if fallback == model:
                raise ValueError(f"model {model!r} cannot fall back "
                                 "to itself")
        # router-terminal results (fast-rejected submissions) and their
        # not-yet-reported ids
        self._local: dict[int, ServeResult] = {}
        self._instant: list[int] = []

    # -- routing --------------------------------------------------------
    def _engine(self, model: str | None) -> tuple[str, ServingEngine]:
        if model is None:
            if len(self.engines) == 1:
                return next(iter(self.engines.items()))
            raise ValueError("several models are mounted; pass model= "
                             f"(one of {sorted(self.engines)})")
        try:
            return model, self.engines[model]
        except KeyError:
            raise UnknownModelError(model, self.engines) from None

    def _route_healthy(self, model: str | None) -> tuple[str,
                                                         ServingEngine]:
        """Resolve a model for new work, walking the fallback chain
        away from quarantined engines."""
        name, engine = self._engine(model)
        seen = set()
        while self.health[name].quarantined:
            seen.add(name)
            fallback = self.fallbacks.get(name)
            if fallback is None or fallback in seen:
                raise EngineQuarantined(
                    f"model {name!r} is quarantined "
                    f"({self.health[name].last_error!r}) and no healthy "
                    "fallback is mounted")
            name, engine = fallback, self.engines[fallback]
        return name, engine

    def _track(self, model: str, inner_id: int) -> int:
        router_id = self._next_id
        self._next_id += 1
        self._routes[router_id] = (model, inner_id)
        return router_id

    def _reject(self, kind: str, error: Exception) -> int:
        """Mint a router id whose result is already a typed terminal
        failure (fast-reject: quarantined target, no fallback)."""
        self._m_rejected.inc()
        router_id = self._next_id
        self._next_id += 1
        self._local[router_id] = ServeResult(
            request_id=router_id, kind=kind, logits=np.zeros(0),
            error=error, reason=REASON_ERROR)
        self._instant.append(router_id)
        return router_id

    def _shed_front(self, kind: str, verdict: str) -> int:
        """Mint a router id whose result is a typed ``shed_overload``:
        the admission gate judged the SLO unattainable, so the request
        never reaches an engine queue."""
        self._m_shed_front.inc()
        router_id = self._next_id
        self._next_id += 1
        self._local[router_id] = ServeResult(
            request_id=router_id, kind=kind, logits=np.zeros(0),
            error=ShedOverload(verdict), reason=REASON_SHED)
        self._instant.append(router_id)
        return router_id

    def _admit(self, engine: ServingEngine, tokens: int,
               stream: bool) -> str | None:
        """Front-door SLO check against the routed engine's backlog;
        None admits, a reason string sheds."""
        if self._admission is None:
            return None
        return self._admission.admit(
            engine.backlog_tokens() + tokens, engine.tokens_per_step(),
            stream=stream)

    def submit(self, inputs: np.ndarray, mask: np.ndarray | None = None,
               model: str | None = None, now: float | None = None,
               deadline: float | None = None,
               ttl: float | None = None) -> int:
        try:
            name, engine = self._route_healthy(model)
        except EngineQuarantined as error:
            return self._reject("classify", error)
        inputs = np.asarray(inputs)
        tokens = int(inputs.shape[0]) if inputs.ndim else 1
        verdict = self._admit(engine, tokens, stream=False)
        if verdict is not None:
            return self._shed_front("classify", verdict)
        now = self._clock() if now is None else now
        return self._track(name, engine.submit(
            inputs, mask, now=now, deadline=deadline, ttl=ttl))

    def open_stream(self, prompt: np.ndarray, max_new_tokens: int,
                    model: str | None = None,
                    now: float | None = None,
                    deadline: float | None = None,
                    ttl: float | None = None) -> int:
        try:
            name, engine = self._route_healthy(model)
        except EngineQuarantined as error:
            return self._reject("generate", error)
        prompt = np.asarray(prompt)
        tokens = int(prompt.size) + max(int(max_new_tokens), 0)
        verdict = self._admit(engine, tokens, stream=True)
        if verdict is not None:
            return self._shed_front("generate", verdict)
        now = self._clock() if now is None else now
        return self._track(name, engine.open_stream(
            prompt, max_new_tokens, now=now, deadline=deadline, ttl=ttl))

    def cancel(self, request_id: int) -> bool:
        """Cancel wherever the request is routed; False if already
        terminal."""
        if request_id in self._local:
            return False
        route = self._routes.get(request_id)
        if route is None:
            raise KeyError(f"unknown request {request_id}")
        model, inner = route
        return self.engines[model].cancel(inner)

    # -- queue introspection (same surface as ServingEngine) ------------
    def _live_engines(self):
        return ((name, engine) for name, engine in self.engines.items()
                if not self.health[name].quarantined)

    def next_deadline(self) -> float | None:
        deadlines = [d for _, engine in self._live_engines()
                     if (d := engine.next_deadline()) is not None]
        return min(deadlines) if deadlines else None

    def queue_ready(self, now: float) -> bool:
        return bool(self._instant) or any(
            engine.queue_ready(now) for _, engine in self._live_engines())

    def has_pending(self) -> bool:
        return bool(self._instant) or any(
            engine.has_pending() for _, engine in self._live_engines())

    # -- health ---------------------------------------------------------
    def health_states(self) -> dict[str, str]:
        """{model: "healthy" | "degraded" | "quarantined"}."""
        return {name: health.state
                for name, health in self.health.items()}

    def _quarantine(self, name: str, now: float,
                    error: Exception) -> list[int]:
        """The circuit just opened for ``name``: reroute its waiting
        work to the fallback model (if one is mounted and alive), fail
        everything else fast, and report the terminated ids.  Nothing
        is ever left to stall in a dead engine's queues."""
        engine = self.engines[name]
        by_inner = {inner: rid
                    for rid, (model, inner) in self._routes.items()
                    if model == name}
        completed: list[int] = []
        fallback = self.fallbacks.get(name)
        if fallback is not None and not self.health[fallback].quarantined:
            target = self.engines[fallback]
            requests, streams = engine.drain_waiting()
            for request in requests:
                rid = by_inner.get(request.request_id)
                try:
                    inner = target.submit(request.inputs, request.mask,
                                          now=now,
                                          deadline=request.deadline)
                except Exception as reroute_error:  # noqa: BLE001
                    if rid is not None:
                        self._local[rid] = ServeResult(
                            request_id=rid, kind="classify",
                            logits=np.zeros(0), error=reroute_error,
                            reason=REASON_ERROR)
                        completed.append(rid)
                        del self._routes[rid]
                    continue
                self._m_rerouted[name].inc()
                if rid is not None:
                    self._routes[rid] = (fallback, inner)
            for stream in streams:
                rid = by_inner.get(stream.stream_id)
                try:
                    inner = target.open_stream(stream.tokens,
                                               stream.max_new_tokens,
                                               now=now,
                                               deadline=stream.deadline)
                except Exception as reroute_error:  # noqa: BLE001
                    if rid is not None:
                        self._local[rid] = ServeResult(
                            request_id=rid, kind="generate",
                            logits=np.zeros(0), error=reroute_error,
                            reason=REASON_ERROR)
                        completed.append(rid)
                        del self._routes[rid]
                    continue
                self._m_rerouted[name].inc()
                if rid is not None:
                    self._routes[rid] = (fallback, inner)
        completed += self._completed_ids(name, engine.abort_all(error))
        return completed

    # -- advancing ------------------------------------------------------
    def _stream_demand(self, engine: ServingEngine) -> int:
        return engine.kv_slots_in_use() + engine._batcher.stream_count()

    def _shares(self, demands: dict[str, int]) -> dict[str, int]:
        """Split the step budget across engines with stream demand:
        proportional shares (each capped by its demand, min 1 so every
        model makes progress), the leftover dealt round-robin from a
        rotating start so no model systematically wins ties.  The
        shares never exceed the budget (except the unavoidable
        one-slot-per-model floor when more models than slots have
        work)."""
        active = {name: d for name, d in demands.items() if d > 0}
        if not active or self.step_budget is None:
            return {name: None for name in active}
        budget = max(self.step_budget, len(active))
        total = sum(active.values())
        shares = {name: min(d, max(1, budget * d // total))
                  for name, d in active.items()}
        # the min-1 floor can push the sum past the budget: claw back
        # from the largest shares (they were floored least) until the
        # budget holds again
        overrun = sum(shares.values()) - budget
        for name in sorted(active, key=lambda n: (-shares[n], n)):
            if overrun <= 0:
                break
            give_back = min(shares[name] - 1, overrun)
            shares[name] -= give_back
            overrun -= give_back
        # deal any leftover budget round-robin
        leftover = budget - sum(shares.values())
        names = sorted(active)
        start = self._turn % len(names)
        self._turn += 1
        index = 0
        while leftover > 0 and index < 4 * len(names):
            name = names[(start + index) % len(names)]
            if shares[name] < active[name]:
                shares[name] += 1
                leftover -= 1
            index += 1
        return shares

    def step(self, now: float | None = None) -> list[int]:
        """Advance every healthy mounted engine one step, splitting the
        shared decode budget across the models with stream work.  Step
        outcomes feed each engine's circuit breaker: a failing engine
        is retried after exponential backoff, and a quarantined one has
        its work rerouted or failed fast.  Returns router-global ids
        completed this step."""
        now = self._clock() if now is None else now
        completed, self._instant = self._instant, []
        demands = {name: self._stream_demand(engine)
                   for name, engine in self._live_engines()}
        shares = self._shares(demands)
        for name in sorted(self.engines):
            engine = self.engines[name]
            health = self.health[name]
            if health.probe_due(now):
                health.reinstate()       # half-open: one strike left
            if not health.ready(now):
                continue
            try:
                done = engine.step(now, budget=shares.get(name))
            except Exception as error:   # noqa: BLE001 — breaker input
                if health.record_failure(now, error) == "quarantined":
                    completed += self._quarantine(name, now, error)
                continue
            completed += self._completed_ids(name, done)
            if engine.last_step_errors:
                error = RuntimeError(
                    f"{engine.last_step_errors} forward failure(s) in "
                    f"one step of model {name!r}")
                if health.record_failure(now, error) == "quarantined":
                    completed += self._quarantine(name, now, error)
            else:
                health.record_success()
        if self._admission is not None:
            self._admission.observe_step(self._clock() - now)
        if self._registry.enabled:
            self._sync_breaker_metrics()
        return completed

    def _sync_breaker_metrics(self) -> None:
        """Publish breaker states after a step: the gauge tracks the
        current level, and every observed state *change* ticks the
        transition counter for the state entered."""
        for name, health in self.health.items():
            state = health.state
            self._m_breaker[name].set(_BREAKER_LEVELS[state])
            if state != self._breaker_seen[name]:
                self._breaker_seen[name] = state
                self._m_transitions[(name, state)].inc()

    def flush(self) -> list[int]:
        completed, self._instant = self._instant, []
        for name in sorted(self.engines):
            if self.health[name].quarantined:
                continue
            completed += self._completed_ids(name,
                                             self.engines[name].flush())
        return completed

    def drain(self) -> list[int]:
        completed = self.flush()
        while self.has_pending():
            completed += self.step()
        return completed

    def _completed_ids(self, model: str, inner_ids: list[int]
                       ) -> list[int]:
        by_inner = {inner: rid
                    for rid, (name, inner) in self._routes.items()
                    if name == model}
        return [by_inner[inner] for inner in inner_ids
                if inner in by_inner]

    # -- completion -----------------------------------------------------
    def result(self, request_id: int) -> ServeResult | None:
        if request_id in self._local:
            return self._local[request_id]
        route = self._routes.get(request_id)
        if route is None:
            return None
        model, inner = route
        return self.engines[model].result(inner)

    def finish(self, request_id: int) -> ServeResult:
        if request_id in self._local:
            result = self._local.pop(request_id)
            if result.error is not None:
                raise result.error
            return result
        route = self._routes.get(request_id)
        if route is None:
            raise KeyError(f"unknown request {request_id}")
        model, inner = route
        result = self.engines[model].finish(inner)
        del self._routes[request_id]
        return result

    # -- observability --------------------------------------------------
    @property
    def stats(self) -> dict[str, object]:
        return {name: engine.stats
                for name, engine in self.engines.items()}

    def stats_summary(self) -> dict[str, dict]:
        """Health/observability rollup per mounted model: circuit-
        breaker state, terminal-reason counts (summing to
        ``completed``), and the reliability counters — the numbers
        ``python -m repro.serve --stats`` prints."""
        summary = {}
        for name, engine in self.engines.items():
            stats = engine.stats
            summary[name] = {
                "health": self.health[name].state,
                "completed": stats.completed,
                "reasons": dict(stats.reasons),
                "errors": stats.errors,
                "retries": stats.retries,
                "shed": stats.shed,
                "preemptions": stats.preemptions,
            }
        return summary
