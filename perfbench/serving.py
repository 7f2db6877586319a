"""Closed-loop serving workloads.

One single-threaded load generator keeps ``clients`` clients busy, each
holding exactly one generation request: when a request completes its
client sends the next at once.  Clients outnumber decode slots, so a
queue always forms and the engine runs saturated.

Latency is measured from outside.  The load generator passes its own
clock's reading as ``now`` into every ``step()`` and keeps
when each call returned; a token is seen by its client when the step
that produced it returns, so every engine token stamp (the step's
``now``) is mapped to that step's end.  The engine's own
``RequestTiming.ttft`` stops at the start of the producing step and so
under-counts by one step; the report prints both.

The clock is ``hostspeed.Clock``: between steps the load generator
lets it sample the host's speed, off the clock, and the run's figures
are scaled to the nominal host by that (README.md, "Host speed").
"""

from __future__ import annotations

import multiprocessing
import resource
from array import array
import tempfile
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import layers
from hostspeed import Clock, Setups
from measure import (Quantile, Served, Tally, gaps, goodput, mean_gap,
                     median, quantile, step_end_times, throughput)
from spans import Patches, Spans


@dataclass(frozen=True)
class ServingWorkload:
    name: str
    dim: int
    num_layers: int
    max_seq_len: int
    slots: int
    token_budget: int
    hardware: bool
    clients: int
    prompt_tokens: tuple[int, int]
    new_tokens: tuple[int, int]
    ttft_limit_s: float            # goodput: first token within this
    tpot_limit_s: float            # goodput: mean gap within this
    procs: int = 0                 # >0: ProcessWorkerTier of N workers
    gap_tail: float = 98           # gated gap percentile (README: why)


SERVE_HW = ServingWorkload(
    name="serve-hw", dim=64, num_layers=4, max_seq_len=32, slots=8,
    token_budget=64, hardware=True, clients=12, prompt_tokens=(1, 8),
    new_tokens=(8, 16), ttft_limit_s=0.400, tpot_limit_s=0.060)
SERVE_LONG = ServingWorkload(
    name="serve-long", dim=64, num_layers=4, max_seq_len=128, slots=8,
    token_budget=256, hardware=False, clients=12, prompt_tokens=(48, 96),
    new_tokens=(4, 16), ttft_limit_s=0.200, tpot_limit_s=0.030)
FLEET_PROCS = ServingWorkload(
    name="fleet-procs", dim=32, num_layers=2, max_seq_len=32, slots=8,
    token_budget=64, hardware=False, clients=16, prompt_tokens=(1, 8),
    new_tokens=(4, 12), ttft_limit_s=0.050, tpot_limit_s=0.010, procs=1,
    gap_tail=90)
WORKLOADS = {w.name: w for w in (SERVE_HW, SERVE_LONG, FLEET_PROCS)}

#: setups per run; setup_s is their median
SETUPS = 21
#: warm-up: at least this long and this many completions per client
WARMUP_S = 1.0
WARMUP_ROUNDS = 3
#: requests re-run alone after each measured phase
CHECK_SAMPLE = 8
#: step ends kept before the ones no request can refer to are dropped
STEP_MEMORY = 4096
TRACE_CHUNK = 512
VOCAB = 64


class Requests:
    """Endless seeded request source built from ``TraceSpec``: chunk
    ``i`` is the trace of seed ``seed * 1_000_003 + i``, so a run that
    needs more requests than one chunk still draws a fixed sequence."""

    def __init__(self, workload: ServingWorkload, seed: int):
        self._workload = workload
        self._seed = seed
        self._chunk = 0
        self._queue: deque = deque()

    def next(self) -> tuple[np.ndarray, int]:
        from repro.serve.loadgen import TraceSpec

        if not self._queue:
            w = self._workload
            self._queue.extend(TraceSpec(
                seed=self._seed * 1_000_003 + self._chunk,
                requests=TRACE_CHUNK, prompt_tokens=w.prompt_tokens,
                new_tokens=w.new_tokens, vocab_size=VOCAB).generate())
            self._chunk += 1
        request = self._queue.popleft()
        return request.tokens, request.max_new_tokens


@dataclass(frozen=True, slots=True)
class Outcome:
    """One completed request's client-side timings."""

    served: Served
    engine_ttft: float | None = None     # RequestTiming.ttft
    queue_wait: float | None = None      # send -> producing step start


@dataclass(frozen=True)
class Kept:
    """An ok request's output, kept for the solo re-run check."""

    prompt: np.ndarray
    max_new_tokens: int
    tokens: np.ndarray
    hardware: object                     # HardwareEstimate or None


@dataclass
class Phase:
    """What one stretch of the closed loop measured.

    Per request it keeps a few timings, and every inter-token gap in
    one flat array.  Outputs of ok requests are reservoir-sampled into
    ``kept`` and their hardware estimates summed into ``hardware``, so
    the benchmark's own memory barely grows with the program's
    throughput (``peak_rss_mb`` measures the program)."""

    hardware: object                     # serve.hardware.HardwareTotals
    rng: np.random.Generator | None = None
    seconds: float = 0.0
    steps: int = 0
    outcomes: list[Outcome] = field(default_factory=list)
    token_gaps: array = field(default_factory=lambda: array("d"))
    kept: list[Kept] = field(default_factory=list)
    kept_from: int = 0                   # ok requests sampled over
    spans: Spans | None = None

    @property
    def served(self) -> list[Served]:
        return [o.served for o in self.outcomes]

    def record(self, outcome: Outcome, token_gaps: list[float],
               kept: Kept | None) -> None:
        self.outcomes.append(outcome)
        self.token_gaps.extend(token_gaps)
        if kept is None:
            return
        if kept.hardware is not None:
            self.hardware.add(kept.hardware)
        if self.rng is None:
            return
        self.kept_from += 1
        if len(self.kept) < CHECK_SAMPLE:
            self.kept.append(kept)
        else:
            slot = int(self.rng.integers(self.kept_from))
            if slot < CHECK_SAMPLE:
                self.kept[slot] = kept


class ClosedLoop:
    """The load generator: clients, the step loop and outcome
    collection."""

    def __init__(self, core, workload: ServingWorkload,
                 requests: Requests, tally: Tally, clock: Clock):
        self.core = core
        self.clock = clock
        self.workload = workload
        self.requests = requests
        self.tally = tally
        self.in_flight: dict[int, tuple[np.ndarray, int, float]] = {}
        self.step_ends: dict[float, float] = {}
        self.sending = True

    def _send(self, prompt: np.ndarray, max_new: int) -> None:
        sent = self.clock()
        request_id = self.core.open_stream(prompt, max_new, now=sent)
        self.in_flight[request_id] = (prompt, max_new, sent)

    def _complete(self, request_id: int
                  ) -> tuple[Outcome, list[float], Kept | None]:
        prompt, max_new, sent = self.in_flight.pop(request_id)
        result = self.core.result(request_id)
        try:
            self.core.finish(request_id)
        except Exception:                # noqa: BLE001 — typed failure,
            pass                         # already read from result()
        ok = (result is not None and result.ok
              and result.tokens is not None and result.timing is not None)
        if ok:
            stamps = result.timing.token_times
            new_tokens = len(result.tokens) - len(prompt)
            # every request fits max_seq_len, so a stream that stops
            # short of max_new_tokens is wrong, not merely truncated
            ok = (new_tokens == max_new == len(stamps)
                  and np.array_equal(result.tokens[:len(prompt)], prompt))
        if not ok:
            self.tally.add(False)
            return Outcome(Served(ok=False, new_tokens=0)), [], None
        self.tally.add(True)
        seen = step_end_times(stamps, self.step_ends)
        token_gaps = gaps(seen)
        return (Outcome(Served(ok=True, new_tokens=new_tokens,
                               ttft=seen[0] - sent,
                               tpot=mean_gap(token_gaps)),
                        engine_ttft=result.timing.ttft,
                        queue_wait=stamps[0] - sent),
                token_gaps,
                Kept(prompt, max_new, result.tokens, result.hardware))

    def _forget_old_steps(self) -> None:
        """Drop step ends no request in flight can still refer to: a
        token is stamped by a step that started after its request was
        sent."""
        oldest = min(sent for _, _, sent in self.in_flight.values())
        self.step_ends = {start: end for start, end
                          in self.step_ends.items() if start >= oldest}

    def step(self) -> tuple[float, list]:
        """One ``step()`` call; returns when it ended and what completed
        (``_complete`` triples).  The host's speed is sampled before it
        when due."""
        self.clock.tick()
        if len(self.step_ends) > STEP_MEMORY and self.in_flight:
            self._forget_old_steps()
        while self.sending and len(self.in_flight) < self.workload.clients:
            self._send(*self.requests.next())
        start = self.clock()
        completed = self.core.step(now=start)
        end = self.clock()
        self.step_ends[start] = end
        return end, [self._complete(rid) for rid in completed]

    def run(self, seconds: float, min_outcomes: int = 0,
            rng: np.random.Generator | None = None) -> Phase:
        """Step until ``seconds`` have passed and ``min_outcomes``
        requests completed.  With ``rng``, ok outputs are sampled for
        the solo check."""
        from repro.serve.hardware import HardwareTotals

        begin = self.clock()
        phase = Phase(hardware=HardwareTotals(), rng=rng)
        end = begin
        while end - begin < seconds or len(phase.outcomes) < min_outcomes:
            end, done = self.step()
            phase.steps += 1
            for completed in done:
                phase.record(*completed)
        phase.seconds = end - begin
        return phase

    def fill(self, rng: np.random.Generator) -> None:
        """Send one request per client at the shortest prompt and the
        longest generation, then drain.  The engine prefills the
        largest batch its token budget allows, so lazily sized buffers
        and temporaries reach full size whatever the seed's requests
        happen to batch into later."""
        w = self.workload
        for _ in range(w.clients):
            self._send(rng.integers(0, VOCAB, size=w.prompt_tokens[0]),
                       w.new_tokens[1])
        self.drain()

    def drain(self) -> None:
        """Stop sending and step until every request has completed."""
        self.sending = False
        while self.in_flight:
            self.step()
        self.sending = True


# -- setup --------------------------------------------------------------
def _policy(workload: ServingWorkload):
    from repro.serve import BatchPolicy
    return BatchPolicy(max_batch_size=workload.slots, max_wait=0.0)


def _engine_kwargs(workload: ServingWorkload, clock=perf_counter) -> dict:
    return dict(estimate_hardware=workload.hardware, continuous=True,
                step_token_budget=workload.token_budget, clock=clock)


def save_snapshot(workload: ServingWorkload, directory: str) -> None:
    from repro.serve.__main__ import build_lm_engine
    build_lm_engine(0, max_seq_len=workload.max_seq_len,
                    dim=workload.dim,
                    num_layers=workload.num_layers).save(directory)


def start_core(workload: ServingWorkload, directory: str, clock: Clock,
               registry=None):
    """The engine (or fleet) under test over a saved snapshot, on
    ``clock``.  Given a ``registry``, the program's own registry,
    tracer and kernel profiler are enabled too, as a traced run has
    them."""
    from repro.core import PrunedInferenceEngine
    from repro.obs import KernelProfiler, TraceRecorder
    from repro.serve import ServingEngine
    from repro.serve.procworkers import ProcessWorkerTier

    traced = registry is not None
    tracer = TraceRecorder() if traced else None
    if workload.procs:
        # each worker loads its own copy of the weights: the shared
        # mmap sidecar races when workers expand a fresh snapshot
        # together (README.md, "Findings")
        return ProcessWorkerTier.from_snapshot(
            directory, replicas=workload.procs, policy=_policy(workload),
            mmap=False, registry=registry, tracer=tracer,
            **_engine_kwargs(workload, clock))
    core = PrunedInferenceEngine.from_directory(directory)
    return ServingEngine(
        core, _policy(workload), registry=registry, tracer=tracer,
        profiler=KernelProfiler(registry) if traced else None,
        **_engine_kwargs(workload, clock))


def close_core(core) -> None:
    close = getattr(core, "close", None)
    if close is not None:
        close()


class SetupFailed(RuntimeError):
    pass


def timed_setups(workload: ServingWorkload, root: str, tally: Tally,
                 clock: Clock, count: int = SETUPS):
    """Build, save, load and start ``count`` times from fresh
    snapshots; returns (the timed set-ups, start seconds each, the
    last core and its snapshot directory).  A start that fails is not
    retried: it ends the run."""
    setups = Setups()
    start_s: list[float] = []
    core = directory = None

    def setup():
        save_snapshot(workload, directory)
        started = perf_counter()
        started_core = start_counted(workload, directory, tally, clock)
        start_s.append(perf_counter() - started)
        return started_core

    for _ in range(count):
        if core is not None:
            close_core(core)
            core = None
        directory = tempfile.mkdtemp(dir=root)
        core = setups.time(setup)
    return setups, start_s, core, directory


def start_counted(workload: ServingWorkload, directory: str,
                  tally: Tally, clock: Clock, registry=None):
    """``start_core`` counted as one setup operation; a failed start
    raises ``SetupFailed`` and is not retried."""
    try:
        core = start_core(workload, directory, clock, registry)
    except Exception as error:           # noqa: BLE001 — reported
        tally.add(False)
        raise SetupFailed(f"{workload.name}: start failed: "
                          f"{type(error).__name__}: {error}") from error
    tally.add(True)
    return core


# -- per-layer tracing ----------------------------------------------------
def _prefill_tokens(spans, args, kwargs, result):
    lengths = args[2] if len(args) > 2 else kwargs.get("lengths")
    tokens = np.asarray(args[1])
    spans.counts["models.prefill_tokens"] += (
        tokens.size if lengths is None else int(np.sum(lengths)))


def _decode_rows(spans, args, kwargs, result):
    spans.counts["models.decode_rows"] += len(args[1])


class WorkerSteps:
    """Wall time of each fleet worker's latest ``ServingEngine.step``.

    A worker runs its engine on a clock slaved to the parent's ``now``,
    so the engine's own ``repro_step_seconds`` reads zero.  Wrapped
    before the fleet forks, ``ServingEngine.step`` in every worker
    writes its ``perf_counter`` duration into memory shared with the
    parent, at the index of the worker's engine name (``worker0``...).
    Each tier step steps every live worker once, so after it returns
    the array holds that step's durations."""

    def __init__(self, procs: int):
        self.last = multiprocessing.RawArray("d", procs)

    def install(self, patches: Patches) -> None:
        from repro.serve import ServingEngine

        last = self.last

        def make(original):
            def step(engine, *args, **kwargs):
                start = perf_counter()
                try:
                    return original(engine, *args, **kwargs)
                finally:
                    index = int(engine.name.removeprefix("worker"))
                    last[index] = perf_counter() - start
            return step

        patches.replace(ServingEngine, "step", make)

    def add_slowest(self, spans, args, kwargs, result) -> None:
        """Span hook of the tier's step: the slowest worker's step."""
        spans.counts["ipc.worker_step"] += max(self.last)


def install_spans(spans: Spans, workload: ServingWorkload) -> None:
    """Wrap each layer's public entry points (see README: layers).  For
    a fleet, call before it starts, so its workers inherit the
    ``WorkerSteps`` wrapper."""
    from repro.core import PrunedInferenceEngine
    from repro.models import TransformerLM
    from repro.serve import ServingEngine
    from repro.serve.procworkers import ProcessWorkerTier
    from repro.serve.scheduler import StepPlanner

    if workload.procs:
        workers = WorkerSteps(workload.procs)
        workers.install(spans.patches)
        spans.wrap(ProcessWorkerTier, "step", "serve.step",
                   workers.add_slowest)
        spans.wrap(ProcessWorkerTier, "open_stream", "ipc.submit")
        spans.wrap(ProcessWorkerTier, "finish", "ipc.finish")
        return
    spans.wrap(ServingEngine, "step", "serve.step")
    spans.wrap(StepPlanner, "plan", "serve.plan")
    spans.wrap(TransformerLM, "prefill", "models.prefill",
               _prefill_tokens)
    spans.wrap(TransformerLM, "decode_step", "models.decode", _decode_rows)
    spans.wrap(PrunedInferenceEngine, "run_recorded", "core.record")
    layers.install_forward(spans)
    layers.install_hardware(spans)


#: span -> layer, for the self-time split of ``serve.step``
LAYER_OF = {
    "serve.step": "serve", "serve.plan": "serve",
    "models.prefill": "models", "models.decode": "models",
    "models.attention": "models",
    "nn.linear": "nn", "nn.norm": "nn",
    "core.record": "core", "core.estimate": "core",
    "hw.jobs": "hw", "hw.tile_run": "hw", "hw.kernel": "hw",
    "hw.energy": "hw",
}


def layer_split(spans: Spans, procs: bool) -> dict[str, float]:
    """Self seconds per layer over the spans nested in ``serve.step``.
    A fleet's step is the slowest worker's step plus parent-side IPC."""
    if procs:
        workers = spans.counts["ipc.worker_step"]
        return {"workers": workers,
                "ipc": spans.total["serve.step"] - workers}
    split: dict[str, float] = {}
    for name, own in spans.own.items():
        layer = LAYER_OF.get(name)
        if layer is not None:
            split[layer] = split.get(layer, 0.0) + own
    return split


def _stats_totals(core) -> tuple[int, int]:
    stats = core.stats
    rows = stats.values() if isinstance(stats, dict) else [stats]
    return (sum(s.admitted for s in rows),
            sum(s.preemptions for s in rows))


def per_layer(phase: Phase, untraced_tok_s: float, admitted: int,
              preemptions: int, pack: dict, start_s: list[float]
              ) -> dict:
    spans = phase.spans
    steps = max(spans.calls["serve.step"], 1)

    def per_step(name, own=False):
        return spans.ms(name, own) / steps

    decode_calls = spans.calls["models.decode"]
    lookups = sum(pack.values())
    waits = [o.queue_wait for o in phase.outcomes if o.served.ok]
    fleet = bool(start_s)
    rtt = per_step("serve.step") if fleet else 0.0
    slowest = spans.counts["ipc.worker_step"] * 1e3 / steps
    tok_s = throughput(phase.served, phase.seconds)
    return {
        **layers.forward_and_hardware(spans, steps),
        "serve.step_ms": per_step("serve.step"),
        "serve.steps": spans.calls["serve.step"],
        "serve.self_ms": (spans.ms("serve.step", True)
                          + spans.ms("serve.plan", True)) / steps,
        "serve.plan_ms": per_step("serve.plan"),
        "serve.decode_batch_mean": (
            spans.counts["models.decode_rows"] / decode_calls
            if decode_calls else 0.0),
        "serve.queue_wait_ms_p50": median(waits) * 1e3 if waits else 0.0,
        "serve.admitted": admitted,
        "serve.preemptions": preemptions,
        "models.prefill_ms": per_step("models.prefill"),
        "models.prefill_calls": spans.calls["models.prefill"],
        "models.prefill_tokens": spans.counts["models.prefill_tokens"],
        "models.decode_ms": per_step("models.decode"),
        "models.decode_calls": decode_calls,
        "core.record_capture_ms": per_step("core.record", own=True),
        "hw.pack_cache_hit_ratio": (
            (pack["hit"] + pack["extend"]) / lookups if lookups else 0.0),
        "ipc.step_rtt_ms": rtt,
        "ipc.worker_step_ms": slowest,
        "ipc.overhead_ms": rtt - slowest if fleet else 0.0,
        "ipc.submit_ms": per_step("ipc.submit"),
        "ipc.finish_ms": per_step("ipc.finish"),
        "ipc.start_s": median(start_s) if fleet else 0.0,
        "obs.traced_slowdown": (tok_s / untraced_tok_s
                                if untraced_tok_s else 0.0),
    }


# -- correctness ----------------------------------------------------------
def check_solo(workload: ServingWorkload, directory: str,
               kept: list[Kept], tally: Tally) -> list[str]:
    """Re-run each kept request alone on a fresh engine loaded from the
    snapshot; tokens (and, with hardware accounting, the whole
    ``HardwareEstimate``) must match exactly.  Returns one line per
    mismatch."""
    from repro.core import PrunedInferenceEngine
    from repro.serve import ServingEngine

    reference = PrunedInferenceEngine.from_directory(directory)
    mismatches = []
    for served in kept:
        solo = ServingEngine(reference, _policy(workload),
                             **_engine_kwargs(workload))
        request_id = solo.open_stream(served.prompt, served.max_new_tokens)
        solo.drain()
        result = solo.finish(request_id)
        same = np.array_equal(result.tokens, served.tokens)
        if workload.hardware:
            same = same and result.hardware == served.hardware
        tally.add(same)
        if not same:
            mismatches.append(
                f"served {served.tokens.tolist()} {served.hardware} vs "
                f"solo {result.tokens.tolist()} {result.hardware}")
    return mismatches


# -- the run --------------------------------------------------------------
def peak_rss_mb(children: list[int]) -> float:
    """Peak resident memory of this process plus the given children."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in children:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb += int(line.split()[1])
        except OSError:
            pass
    return peak_kb / 1024.0


def _warm_up(loop: ClosedLoop, seed: int) -> None:
    """Fill the engine with its largest batch, then run the closed loop
    untimed until the lazy KV slot buffer and the pack cache have
    filled."""
    loop.fill(np.random.default_rng([seed, 9]))
    loop.run(WARMUP_S, min_outcomes=WARMUP_ROUNDS * loop.workload.clients)


def run_serving(workload: ServingWorkload, seed: int, seconds: float,
                trace: bool, root: str) -> dict:
    """Set up, measure untraced, optionally measure again traced, then
    check a sample of each measured phase's outputs.  Returns the raw
    report."""
    tallies = {"setup": Tally(), "serve": Tally(), "check": Tally()}
    clock = Clock()
    report: dict = {"workload": workload, "tallies": tallies,
                    "clock": clock}
    requests = Requests(workload, seed)
    core = None
    try:
        setups, start_s, core, directory = timed_setups(
            workload, root, tallies["setup"], clock)
        report["setups"] = setups
        loop = ClosedLoop(core, workload, requests, tallies["serve"],
                          clock)
        _warm_up(loop, seed)
        report["phase"] = loop.run(seconds,
                                   rng=np.random.default_rng([seed, 7]))
        loop.drain()
        report["peak_rss_mb"] = peak_rss_mb(
            [p.pid for p in multiprocessing.active_children()])
        close_core(core)
        core = None
        if trace:
            report.update(_traced(workload, directory, requests, tallies,
                                  clock, seconds, seed, report["phase"],
                                  start_s))
        report["mismatches"] = [
            line for key in ("phase", "traced") if key in report
            for line in check_solo(workload, directory, report[key].kept,
                                   tallies["check"])]
    except SetupFailed as error:
        # a fleet that never started served nothing: every request its
        # clients were about to send counts as failed
        tallies["serve"].add(False, workload.clients)
        report["error"] = str(error)
    finally:
        if core is not None:
            close_core(core)
    return report


def _traced(workload: ServingWorkload, directory: str,
            requests: Requests, tallies: dict, clock: Clock,
            seconds: float, seed: int, untraced: Phase,
            start_s: list[float]) -> dict:
    """The traced run: the same closed loop on a fresh engine (or
    fleet) with the program's registry, tracer and profiler on, and
    every layer's entry points wrapped in spans."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    spans = Spans(clock)
    install_spans(spans, workload)
    core = None
    try:
        core = start_counted(workload, directory, tallies["setup"], clock,
                             registry)
        loop = ClosedLoop(core, workload, requests, tallies["serve"],
                          clock)
        _warm_up(loop, seed)
        spans.reset()
        stats, pack = _stats_totals(core), _pack_events(registry)
        phase = loop.run(seconds, rng=np.random.default_rng([seed, 8]))
        phase.spans = spans.frozen()
        stats_end, pack_end = _stats_totals(core), _pack_events(registry)
        loop.drain()
    finally:
        spans.restore()
        if core is not None:
            close_core(core)
    return {
        "traced": phase,
        "layers": per_layer(
            phase, throughput(untraced.served, untraced.seconds),
            stats_end[0] - stats[0], stats_end[1] - stats[1],
            {k: pack_end[k] - pack[k] for k in pack},
            start_s if workload.procs else []),
        "split": layer_split(phase.spans, bool(workload.procs)),
        "step_s": phase.spans.total.get("serve.step", 0.0),
    }


def _pack_events(registry) -> dict:
    """Pack-cache lookups so far by outcome, summed over engines."""
    events = {"hit": 0.0, "extend": 0.0, "miss": 0.0}
    family = registry.snapshot().get("repro_pack_cache_events_total")
    for row in (family or {"series": []})["series"]:
        events[row["labels"]["event"]] += row["value"]
    return events


def quantiles(workload: ServingWorkload, phase: Phase
              ) -> dict[str, Quantile]:
    """Client-side TTFT and TBT quantiles over the measured window,
    plus the engine's own TTFT for comparison."""
    ok = [o for o in phase.outcomes if o.served.ok]
    ttfts = [o.served.ttft for o in ok]
    tbts = phase.token_gaps
    tpots = [o.served.tpot for o in ok if o.served.tpot is not None]
    engine = [o.engine_ttft for o in ok]
    return {
        "ttft_p50": quantile(ttfts, 50), "ttft_p90": quantile(ttfts, 90),
        "tbt_p50": quantile(tbts, 50),
        "gap_tail": quantile(tbts, workload.gap_tail),
        "tbt_p99": quantile(tbts, 99),
        "tpot_p50": quantile(tpots, 50),
        "engine_ttft_p50": quantile(engine, 50),
        "engine_ttft_p90": quantile(engine, 90),
    }


def sim_totals(phase: Phase) -> tuple[float, float] | None:
    """Simulated speedup and energy reduction aggregated over the
    served traffic: summed baseline over summed LeOPArd."""
    if not phase.hardware.requests:
        return None
    return (phase.hardware.speedup_vs_baseline,
            phase.hardware.energy_reduction)


def slo_limits(workload: ServingWorkload, scale: float
               ) -> tuple[float, float]:
    """The TTFT and TPOT limits in this run's measured seconds: a
    request meets them when its latencies, at the nominal host's speed,
    meet the workload's limits."""
    return workload.ttft_limit_s / scale, workload.tpot_limit_s / scale


def end_to_end(workload: ServingWorkload, report: dict) -> dict:
    """The end-to-end metrics as measured, before scaling to the
    nominal host."""
    phase = report["phase"]
    q = quantiles(workload, phase)
    return {
        "setup_s": median(report["setups"].seconds),
        "throughput": throughput(phase.served, phase.seconds),
        "goodput": goodput(phase.served, phase.seconds,
                           *slo_limits(workload, report["clock"].scale)),
        "latency_p50_ms": q["ttft_p50"].value * 1e3,
        "latency_tail_ms": q["ttft_p90"].value * 1e3,
        "tpot_p50_ms": q["tpot_p50"].value * 1e3,
        "gap_tail_ms": q["gap_tail"].value * 1e3,
        "peak_rss_mb": report["peak_rss_mb"],
    }
