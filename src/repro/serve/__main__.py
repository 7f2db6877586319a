"""Serving demo: ``python -m repro.serve``.

By default builds a small pruned classifier and a causal LM; with
``--engine-dir`` it instead serves any saved
``PrunedInferenceEngine.from_directory`` snapshot (e.g. an entry of the
eval store, or anything ``engine.save`` wrote) — pass ``--engine-dir``
several times (optionally as ``NAME=PATH``) to mount a ``ModelRouter``
over all of them behind one queue.  Pushes a burst of mixed-length
requests / generation streams through the dynamic batcher and prints
per-request results plus aggregate hardware accounting (cycles and
energy charged per request even though the traffic was served
coalesced).  Streams run under the step-planned continuous scheduler
(``--preempt-after`` enables preemption under queue pressure);
``--kernel-backend`` picks which
bit-serial kernel backend produces the hardware estimates; each
estimate records the backend that made it.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import replace

import numpy as np

from ..core import PrunedInferenceEngine
from ..hw import AE_LEOPARD, get_backend
from ..models import (ClassifierConfig, LMConfig, TransformerClassifier,
                      TransformerLM)
from . import BatchPolicy, ModelRouter, ServingEngine, UnknownModelError


def build_classifier_engine(seed: int = 0) -> PrunedInferenceEngine:
    model = TransformerClassifier(ClassifierConfig(
        vocab_size=64, max_seq_len=24, dim=32, num_heads=2,
        num_layers=2, num_classes=2, seed=seed))
    controller = model.make_controller()
    controller.set_threshold_values(np.zeros(2))
    return PrunedInferenceEngine(model, controller)


def build_lm_engine(seed: int = 0, max_seq_len: int = 32,
                    dim: int = 32,
                    num_layers: int = 2) -> PrunedInferenceEngine:
    """Toy causal LM engine; ``dim``/``num_layers`` scale the model so
    throughput benchmarks can make each forward expensive enough to
    dominate scheduling overhead."""
    model = TransformerLM(LMConfig(
        vocab_size=64, max_seq_len=max_seq_len, dim=dim, num_heads=2,
        num_layers=num_layers, seed=seed))
    controller = model.make_controller()
    controller.set_threshold_values(np.zeros(num_layers))
    return PrunedInferenceEngine(model, controller)


def load_engine(directory: str) -> PrunedInferenceEngine:
    """Rebuild a saved engine and check it is servable (single-sequence
    requests; MemN2N's (story, question) pairs don't fit the queue)."""
    engine = PrunedInferenceEngine.from_directory(directory)
    config = getattr(engine.model, "config", None)
    if getattr(config, "max_seq_len", None) is None:
        raise SystemExit(
            f"error: {type(engine.model).__name__} snapshots take "
            "multi-part inputs the serving queue does not model; "
            "serve a TransformerClassifier or TransformerLM snapshot")
    return engine


def _random_inputs(config, length: int, rng) -> np.ndarray:
    """One request's inputs: token ids, or patch features for
    continuous-input (ViT-style) classifiers."""
    if config.vocab_size is not None:
        return rng.integers(0, config.vocab_size, size=length)
    return rng.standard_normal((length, config.input_dim))


def make_serving(args, engine, hw_config,
                 name: str | None = None) -> ServingEngine:
    return ServingEngine(
        engine,
        BatchPolicy(max_batch_size=args.max_batch_size,
                    max_wait=args.max_wait),
        estimate_hardware=True, hw_config=hw_config,
        preempt_after=args.preempt_after,
        registry=args.obs_registry, tracer=args.obs_tracer, name=name)


def print_reason_stats(name: str, stats, health: str | None = None
                       ) -> None:
    """One observability line: terminal outcomes by reason code plus
    the reliability counters (and the circuit-breaker state when a
    router is mounted)."""
    reasons = ", ".join(f"{reason}={count}"
                        for reason, count in sorted(stats.reasons.items()))
    line = (f"  [stats] {name}: {stats.completed} terminal "
            f"({reasons or 'none'}); errors={stats.errors} "
            f"retries={stats.retries}")
    if health is not None:
        line += f" health={health}"
    print(line)


def classify_demo(args, engine: PrunedInferenceEngine,
                  hw_config) -> None:
    print("== one-shot classification traffic ==")
    serving = make_serving(args, engine, hw_config, name="classifier")
    config = engine.model.config
    rng = np.random.default_rng(args.seed)
    lengths = rng.integers(3, config.max_seq_len + 1, size=args.requests)
    ids = [serving.submit(_random_inputs(config, int(length), rng))
           for length in lengths]
    serving.drain()
    for request_id in ids:
        result = serving.finish(request_id)
        hw = result.hardware
        print(f"  request {request_id}: class {result.prediction}  "
              f"batch of {result.batch_sizes[0]}  "
              f"{hw.runtime_ns:8.1f} ns ({hw.speedup_vs_baseline:.2f}x "
              f"vs baseline, pruning {hw.pruning_rate:.0%}, "
              f"kernel {hw.kernel_backend})")
    stats = serving.stats
    print(f"  -> {stats.completed} requests in {stats.batches} batches "
          f"(mean size {stats.mean_batch_size:.1f}); traffic totals "
          f"{stats.hardware.runtime_ns / 1e3:.1f} us, "
          f"{stats.hardware.energy_pj / 1e6:.2f} uJ "
          f"({stats.hardware.speedup_vs_baseline:.2f}x cycles, "
          f"{stats.hardware.energy_reduction:.2f}x energy vs baseline)")
    if args.stats:
        print_reason_stats("classifier", stats)
    print()


def generate_demo(args, engine: PrunedInferenceEngine,
                  hw_config) -> None:
    print("== concurrent generation streams (continuous scheduler, "
          "KV decode slots) ==")
    serving = make_serving(args, engine, hw_config, name="lm")
    config = engine.model.config
    rng = np.random.default_rng(args.seed)
    prompt_cap = max(2, min(9, config.max_seq_len // 2))
    ids = [serving.open_stream(
               rng.integers(1, config.vocab_size, size=int(length)),
               max_new_tokens=args.new_tokens)
           for length in rng.integers(1, prompt_cap, size=args.streams)]
    steps = 0
    while serving.has_pending():
        serving.step()
        steps += 1
    for stream_id in ids:
        result = serving.finish(stream_id)
        hw = result.hardware
        print(f"  stream {stream_id}: {len(result.tokens)} tokens "
              f"{result.tokens[:8].tolist()}...  coalesced with up to "
              f"{max(result.batch_sizes)} streams  "
              f"{hw.runtime_ns:8.1f} ns ({hw.speedup_vs_baseline:.2f}x, "
              f"kernel {hw.kernel_backend})")
    stats = serving.stats
    print(f"  -> {len(ids)} streams, {stats.decode_rounds} coalesced "
          f"decode rounds over {steps} engine steps; traffic totals "
          f"{stats.hardware.runtime_ns / 1e3:.1f} us "
          f"({stats.hardware.speedup_vs_baseline:.2f}x cycles, "
          f"{stats.hardware.energy_reduction:.2f}x energy vs baseline)")
    print(f"     scheduler: {stats.admitted} admissions, "
          f"{stats.preemptions} preemptions, "
          f"{stats.resumes} resumes over {stats.steps} planned steps")
    if args.stats:
        print_reason_stats("lm", stats)


def tier_demo(args, directory: str, hw_config) -> None:
    from .workers import WorkerTier

    print(f"== shared-nothing worker tier ({args.replicas} replicas, "
          "least-loaded routing) ==")
    tier = WorkerTier.from_snapshot(
        directory, replicas=args.replicas,
        policy=BatchPolicy(max_batch_size=args.max_batch_size,
                           max_wait=args.max_wait),
        estimate_hardware=True, hw_config=hw_config,
        preempt_after=args.preempt_after,
        registry=args.obs_registry, tracer=args.obs_tracer)
    config = tier.workers[0].engine.model.config
    rng = np.random.default_rng(args.seed)
    prompt_cap = max(2, min(9, config.max_seq_len // 2))
    ids = [tier.open_stream(
               rng.integers(1, config.vocab_size, size=int(length)),
               max_new_tokens=args.new_tokens)
           for length in rng.integers(1, prompt_cap, size=args.streams)]
    tier.drain()
    for stream_id in ids:
        result = tier.finish(stream_id)
        hw = result.hardware
        print(f"  stream {stream_id}: {len(result.tokens)} tokens  "
              f"{hw.runtime_ns:8.1f} ns "
              f"({hw.speedup_vs_baseline:.2f}x, kernel "
              f"{hw.kernel_backend})")
    summary = tier.stats_summary()
    tier_row = summary["tier"]
    reasons = ", ".join(f"{reason}={count}" for reason, count
                        in sorted(tier_row["reasons"].items()))
    print(f"  -> tier: {tier_row['completed']} terminal across "
          f"{tier_row['replicas']} replicas ({reasons or 'none'}); "
          f"shed={tier_row['shed']} errors={tier_row['errors']} "
          f"preemptions={tier_row['preemptions']}")
    for name, row in summary["workers"].items():
        print(f"  -> {name}: {row['completed']} served, "
              f"{row['outstanding_tokens']} tokens outstanding, "
              f"health={row['health']}")
        if args.stats:
            print_reason_stats(name, tier.engines[name].stats,
                               health=row["health"])


def proc_tier_demo(args, directory: str, hw_config) -> None:
    from .procworkers import ProcessWorkerTier

    print(f"== multi-process worker tier ({args.procs} worker "
          "processes, shared mmap snapshot, least-loaded routing) ==")
    tier = ProcessWorkerTier.from_snapshot(
        directory, replicas=args.procs,
        policy=BatchPolicy(max_batch_size=args.max_batch_size,
                           max_wait=args.max_wait),
        estimate_hardware=True, hw_config=hw_config,
        preempt_after=args.preempt_after,
        registry=args.obs_registry, tracer=args.obs_tracer)
    try:
        rng = np.random.default_rng(args.seed)
        prompt_cap = max(2, min(9, tier._capacity // 2))
        ids = [tier.open_stream(
                   rng.integers(1, 64, size=int(length)),
                   max_new_tokens=args.new_tokens)
               for length in rng.integers(1, prompt_cap,
                                          size=args.streams)]
        tier.drain()
        for stream_id in ids:
            result = tier.finish(stream_id)
            hw = result.hardware
            print(f"  stream {stream_id}: {len(result.tokens)} tokens  "
                  f"{hw.runtime_ns:8.1f} ns "
                  f"({hw.speedup_vs_baseline:.2f}x, kernel "
                  f"{hw.kernel_backend})")
        summary = tier.stats_summary()
        tier_row = summary["tier"]
        reasons = ", ".join(f"{reason}={count}" for reason, count
                            in sorted(tier_row["reasons"].items()))
        print(f"  -> tier: {tier_row['completed']} terminal across "
              f"{tier_row['replicas']} worker processes "
              f"({reasons or 'none'}); shed={tier_row['shed']} "
              f"errors={tier_row['errors']}")
        for name, row in summary["workers"].items():
            print(f"  -> {name}: {row['completed']} served, "
                  f"health={row['health']}")
            if args.stats:
                print_reason_stats(name, tier.stats[name],
                                   health=row["health"])
    finally:
        tier.close()


def router_demo(args, engines: dict[str, PrunedInferenceEngine],
                hw_config) -> None:
    print(f"== multi-model router ({len(engines)} engines, shared "
          f"step budget {args.max_batch_size}) ==")
    router = ModelRouter(
        {name: make_serving(args, engine, hw_config, name=name)
         for name, engine in engines.items()},
        step_budget=args.max_batch_size, registry=args.obs_registry)
    rng = np.random.default_rng(args.seed)
    targets = engines.items()
    if args.model is not None:
        if args.model not in engines:
            # hand the typo to the router so the user sees its
            # canonical unknown-model error (which lists the mounts)
            router.submit(np.zeros(3, dtype=np.int64), model=args.model)
        targets = [(args.model, engines[args.model])]
    ids: list[tuple[str, int]] = []
    for name, engine in targets:
        config = engine.model.config
        if hasattr(engine.model, "decode_step"):
            prompt_cap = max(2, min(9, config.max_seq_len // 2))
            for length in rng.integers(1, prompt_cap, size=args.streams):
                prompt = rng.integers(1, config.vocab_size,
                                      size=int(length))
                ids.append((name, router.open_stream(
                    prompt, args.new_tokens, model=name)))
        else:
            lengths = rng.integers(3, config.max_seq_len + 1,
                                   size=args.requests)
            for length in lengths:
                ids.append((name, router.submit(
                    _random_inputs(config, int(length), rng),
                    model=name)))
    router.drain()
    for name, request_id in ids:
        result = router.finish(request_id)
        hw = result.hardware
        what = (f"{len(result.tokens)} tokens" if result.kind == "generate"
                else f"class {result.prediction}")
        print(f"  [{name}] request {request_id}: {what}  "
              f"{hw.runtime_ns:8.1f} ns "
              f"({hw.speedup_vs_baseline:.2f}x, kernel "
              f"{hw.kernel_backend})")
    for name, stats in router.stats.items():
        print(f"  -> {name}: {stats.completed} served, "
              f"{stats.batches} batches (mean size "
              f"{stats.mean_batch_size:.1f}), "
              f"{stats.hardware.runtime_ns / 1e3:.1f} us total")
    if args.stats:
        summary = router.stats_summary()
        for name, stats in router.stats.items():
            print_reason_stats(name, stats,
                               health=summary[name]["health"])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="batched serving demo over the pruned engine")
    parser.add_argument("--mode", choices=["classify", "generate", "both"],
                        default="both")
    parser.add_argument("--engine-dir", action="append", default=None,
                        metavar="[NAME=]PATH",
                        help="serve a saved PrunedInferenceEngine "
                             "snapshot instead of the built-in toys; "
                             "repeat to mount a multi-model router "
                             "(NAME defaults to the directory name)")
    parser.add_argument("--preempt-after", type=int, default=None,
                        metavar="STEPS",
                        help="preempt streams that ran this many decode "
                             "steps when the waiting queue is pressured "
                             "(default: never)")
    parser.add_argument("--requests", type=int, default=12,
                        help="one-shot requests to submit (classify)")
    parser.add_argument("--streams", type=int, default=6,
                        help="concurrent generation streams")
    parser.add_argument("--new-tokens", type=int, default=8,
                        help="tokens to generate per stream")
    parser.add_argument("--max-batch-size", type=int, default=4)
    parser.add_argument("--max-wait", type=float, default=0.002)
    parser.add_argument("--model", default=None, metavar="NAME",
                        help="router mode: direct the whole demo burst "
                             "at one mounted model (a typo exits with "
                             "the router's unknown-model error instead "
                             "of a traceback)")
    parser.add_argument("--replicas", type=int, default=1,
                        metavar="N",
                        help="serve generation traffic through a "
                             "shared-nothing WorkerTier of N engine "
                             "replicas (each rebuilt from the same "
                             "snapshot) instead of one engine")
    parser.add_argument("--procs", type=int, default=None,
                        metavar="N",
                        help="like --replicas but each replica runs in "
                             "its own OS process (ProcessWorkerTier), "
                             "all memory-mapping one shared snapshot")
    parser.add_argument("--stats", action="store_true",
                        help="print per-engine terminal-reason counters "
                             "(and circuit-breaker states under the "
                             "router) after each demo")
    parser.add_argument("--kernel-backend", default=None,
                        help="bit-serial kernel backend for hardware "
                             "estimates (see repro.hw.backends)")
    parser.add_argument("--metrics-dump", action="store_true",
                        help="print the Prometheus-text metrics "
                             "exposition after the demo (non-server "
                             "snapshot surface)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve GET /metrics on 127.0.0.1:PORT "
                             "from a background thread for the "
                             "duration of the demo (0 = ephemeral)")
    parser.add_argument("--metrics-linger", type=float, default=0.0,
                        metavar="SECONDS",
                        help="keep the --metrics-port endpoint alive "
                             "this long after the demo finishes (lets "
                             "an external scraper catch the final "
                             "counters)")
    parser.add_argument("--trace-export", default=None, metavar="PATH",
                        help="record per-request trace spans and write "
                             "Chrome trace-event JSON here (open in "
                             "Perfetto)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    hw_config = None
    if args.kernel_backend:
        get_backend(args.kernel_backend)      # typo -> error before traffic
        hw_config = replace(AE_LEOPARD, kernel_backend=args.kernel_backend)
    if args.model is not None and len(args.engine_dir or []) < 2:
        parser.error("--model routes within a multi-model router; mount "
                     "at least two --engine-dir snapshots")
    if args.replicas < 1:
        parser.error("--replicas must be >= 1")
    if args.procs is not None:
        if args.procs < 1:
            parser.error("--procs must be >= 1")
        if args.replicas > 1:
            parser.error("--procs and --replicas are alternatives: "
                         "pick in-process replicas or worker processes")
    if ((args.replicas > 1 or args.procs is not None)
            and len(args.engine_dir or []) > 1):
        parser.error("--replicas/--procs scale one snapshot; mount at "
                     "most one --engine-dir")

    # observability surfaces are opt-in: without these flags every
    # engine binds no-op handles and the demo runs uninstrumented
    args.obs_registry = None
    args.obs_tracer = None
    metrics_server = None
    if args.metrics_dump or args.metrics_port is not None:
        from ..obs import MetricsRegistry
        args.obs_registry = MetricsRegistry()
    if args.trace_export:
        from ..obs import TraceRecorder
        args.obs_tracer = TraceRecorder()
    if args.metrics_port is not None:
        from ..obs import start_metrics_server
        metrics_server = start_metrics_server(args.obs_registry,
                                              port=args.metrics_port)
        print(f"[metrics] serving http://127.0.0.1:"
              f"{metrics_server.server_address[1]}/metrics")
    try:
        _dispatch(args, hw_config)
    finally:
        if metrics_server is not None:
            if args.metrics_linger > 0:
                import time
                time.sleep(args.metrics_linger)
            metrics_server.shutdown()
        if args.obs_tracer is not None:
            args.obs_tracer.save(args.trace_export)
            print(f"[trace] wrote {len(args.obs_tracer.events)} events "
                  f"to {args.trace_export}")
        if args.metrics_dump:
            print(args.obs_registry.exposition(), end="")


def _dispatch(args, hw_config) -> None:
    if args.replicas > 1 or args.procs is not None:
        import tempfile
        with tempfile.TemporaryDirectory() as scratch:
            if args.engine_dir:
                directory = args.engine_dir[0].rpartition("=")[2] \
                    or args.engine_dir[0]
                load_engine(directory)   # validate before replication
            else:
                directory = scratch
                build_lm_engine(args.seed).save(directory)
            if args.procs is not None:
                proc_tier_demo(args, directory, hw_config)
            else:
                tier_demo(args, directory, hw_config)
        return

    if args.engine_dir:
        engines: dict[str, PrunedInferenceEngine] = {}
        for spec in args.engine_dir:
            name, _, path = spec.rpartition("=")
            path = path or spec
            name = name or os.path.basename(os.path.normpath(path))
            if name in engines:
                raise SystemExit(f"error: duplicate model name {name!r}; "
                                 "disambiguate with NAME=PATH")
            engines[name] = load_engine(path)
        if len(engines) > 1:
            try:
                router_demo(args, engines, hw_config)
            except UnknownModelError as error:
                raise SystemExit(f"error: {error}") from None
            return
        (directory,), (engine,) = args.engine_dir, engines.values()
        generative = hasattr(engine.model, "decode_step")
        print(f"[engine] {directory}: "
              f"{type(engine.model).__name__} "
              f"({'generate' if generative else 'classify'} traffic)")
        if generative:
            generate_demo(args, engine, hw_config)
        else:
            classify_demo(args, engine, hw_config)
        return

    if args.mode in ("classify", "both"):
        classify_demo(args, build_classifier_engine(args.seed), hw_config)
    if args.mode in ("generate", "both"):
        generate_demo(args, build_lm_engine(args.seed), hw_config)


if __name__ == "__main__":
    main()
