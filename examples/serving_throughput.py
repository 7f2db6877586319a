"""Serving throughput: batched serving vs the serial baseline.

Two traffic shapes, both driven by N concurrent synthetic clients:

* ``--mode generate`` (default): each client opens an autoregressive
  generation stream; the continuous scheduler admits streams into
  free decode slots and runs one slot batch per step.  ``--stagger K``
  spreads arrivals one stream every K engine steps (mixed arrivals,
  the slot pool refilling as streams finish).  The serial baseline
  runs ``model.generate`` one stream at a time.
* ``--mode classify``: each client awaits one-shot classification
  requests through the asyncio front end; the dynamic batcher
  coalesces across clients into fixed-width padded batches.  The
  serial baseline is one engine call per request.

Run:  python examples/serving_throughput.py --streams 16 --stagger 2 --quick
"""

import argparse
import asyncio
import sys
import time
from collections import deque

import numpy as np

from repro.serve import AsyncServingEngine, BatchPolicy, ServingEngine
from repro.serve.loadgen import TraceSpec, replay_trace
from repro.serve.__main__ import build_classifier_engine, build_lm_engine

MAX_SEQ = 24   # build_classifier_engine's max_seq_len
VOCAB = 64


# -- generation streams --------------------------------------------------
def drive_streams(serving, requests, stagger) -> float:
    """Push every (prompt, new_tokens) request through ``serving``
    (arrivals staggered one stream per ``stagger`` steps; 0 = all at
    once) and return the elapsed wall time."""
    ids = []
    start = time.perf_counter()
    if stagger <= 0:
        ids = [serving.open_stream(p, n) for p, n in requests]
        serving.drain()
    else:
        waiting = deque(requests)
        tick = 0
        while waiting or serving.has_pending():
            if waiting and tick % stagger == 0:
                prompt, n = waiting.popleft()
                ids.append(serving.open_stream(prompt, n))
            serving.step()
            tick += 1
    elapsed = time.perf_counter() - start
    for stream_id in ids:
        serving.finish(stream_id)
    return elapsed


def run_generate(args) -> dict:
    rng = np.random.default_rng(args.seed)
    new_tokens = 8 if args.quick else 24
    prompt_max = 8
    engine = build_lm_engine(args.seed,
                             max_seq_len=prompt_max + new_tokens)
    trace_requests = None
    if args.trace:
        # seeded trace-driven arrivals (Poisson or bursty MMPP) instead
        # of the step-locked stagger — the same heterogeneous request
        # mix, but arriving on a realistic timeline
        trace = TraceSpec(seed=args.seed, requests=args.streams,
                          process=args.trace, rate=args.trace_rate,
                          burst_rate=args.trace_rate * 10,
                          prompt_tokens=(2, prompt_max),
                          new_tokens=(max(2, new_tokens // 2),
                                      new_tokens), vocab_size=VOCAB)
        trace_requests = trace.generate()
        requests = [(r.tokens, r.max_new_tokens)
                    for r in trace_requests]
    else:
        # heterogeneous requests — mixed prompt lengths *and* generation
        # budgets, like real traffic: streams finish at different times
        # and freed slots are refilled from the waiting queue
        requests = [
            (rng.integers(1, VOCAB, size=int(n)),
             int(rng.integers(max(2, new_tokens // 2), new_tokens + 1)))
            for n in rng.integers(2, prompt_max + 1, size=args.streams)]
    engine.model.generate(requests[0][0][None, :], 2)    # warm-up

    start = time.perf_counter()
    for prompt, n in requests:
        engine.model.generate(prompt[None, :], n)
    serial_elapsed = time.perf_counter() - start

    max_batch = args.max_batch_size or min(args.streams, 16)

    serving = ServingEngine(
        engine,
        BatchPolicy(max_batch_size=max_batch,
                    max_wait=args.max_wait, pad_to=prompt_max),
        preempt_after=args.preempt_after)
    if trace_requests is not None:
        elapsed = replay_trace(serving, trace_requests,
                               clock=time.monotonic).duration
    else:
        elapsed = drive_streams(serving, requests, args.stagger)

    tokens = sum(n for _, n in requests)
    serial_tps = tokens / serial_elapsed
    batched_tps = tokens / elapsed
    if args.trace:
        arrivals = f"{args.trace} trace @ {args.trace_rate:g} req/s"
    elif args.stagger:
        arrivals = f"staggered 1/{args.stagger} steps"
    else:
        arrivals = "burst arrivals"
    print(f"generation: {args.streams} concurrent streams x "
          f"{new_tokens} new tokens ({arrivals}, "
          f"{max_batch} decode slots)")
    print(f"serial baseline : {args.streams / serial_elapsed:8.1f} req/s "
          f"({serial_tps:8.1f} tok/s, one stream at a time)")
    print(f"batched serving : {args.streams / elapsed:8.1f} req/s "
          f"({batched_tps:8.1f} tok/s, {serving.stats.decode_rounds} "
          f"decode forwards, mean batch "
          f"{serving.stats.mean_batch_size:.1f}, "
          f"{serving.stats.preemptions} preemptions)")
    print(f"speedup         : {batched_tps / serial_tps:8.2f}x")
    return {"batched": batched_tps / serial_tps}


# -- one-shot classification traffic -------------------------------------
def make_traffic(streams: int, per_stream: int, seed: int):
    rng = np.random.default_rng(seed)
    return [[rng.integers(0, VOCAB, size=int(n))
             for n in rng.integers(4, MAX_SEQ + 1, size=per_stream)]
            for _ in range(streams)]


def run_classify(args) -> float:
    engine = build_classifier_engine(args.seed)
    per_stream = 6 if args.quick else args.requests_per_stream
    traffic = make_traffic(args.streams, per_stream, args.seed)
    if args.buckets.lower() == "none":
        buckets = None
    elif args.buckets.lower() == "auto":
        # auto-tune the pad ladder from the observed length histogram
        observed = [len(r) for stream in traffic for r in stream]
        buckets = BatchPolicy.from_observed(observed).buckets
        print(f"auto-tuned buckets from {len(observed)} observed "
              f"lengths: {buckets}")
    else:
        buckets = tuple(int(b) for b in args.buckets.split(","))
    max_batch = args.max_batch_size or max(2, min(args.streams, 16) // 2)

    warm = traffic[0][0]
    engine.predict_many(warm[None, :], np.ones((1, len(warm)), dtype=bool))
    requests = [r for stream in traffic for r in stream]
    start = time.perf_counter()
    for request in requests:
        engine.predict_many(request[None, :],
                            np.ones((1, len(request)), dtype=bool))
    serial_rps = len(requests) / (time.perf_counter() - start)

    serving = ServingEngine(engine, BatchPolicy(
        max_batch_size=max_batch, max_wait=args.max_wait,
        buckets=buckets))

    async def main():
        async with AsyncServingEngine(serving) as front:
            async def client(stream):
                return [await front.submit(r) for r in stream]
            await asyncio.gather(*[client(s) for s in traffic])

    start = time.perf_counter()
    asyncio.run(main())
    batched_rps = len(requests) / (time.perf_counter() - start)
    speedup = batched_rps / serial_rps

    print(f"classify: {args.streams} streams x {per_stream} requests "
          f"= {len(requests)} requests (seq 4..{MAX_SEQ})")
    print(f"serial baseline : {serial_rps:8.1f} req/s "
          f"(one engine call per request)")
    print(f"batched serving : {batched_rps:8.1f} req/s "
          f"({serving.stats.batches} batches, mean size "
          f"{serving.stats.mean_batch_size:.1f}, max "
          f"{serving.stats.max_batch_size})")
    print(f"speedup         : {speedup:8.2f}x")
    return {"batched": speedup}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["generate", "classify"],
                        default="generate")
    parser.add_argument("--streams", type=int, default=8,
                        help="concurrent synthetic clients")
    parser.add_argument("--requests-per-stream", type=int, default=16,
                        help="classify mode: requests per client")
    parser.add_argument("--quick", action="store_true",
                        help="small request count for CI smoke runs")
    parser.add_argument("--max-batch-size", type=int, default=None)
    parser.add_argument("--max-wait", type=float, default=0.0005)
    parser.add_argument("--stagger", type=int, default=0,
                        help="generate mode: one stream arrives every "
                             "K engine steps (0 = burst)")
    parser.add_argument("--trace", choices=["poisson", "bursty"],
                        default=None,
                        help="generate mode: seeded trace-driven "
                             "arrivals instead of --stagger")
    parser.add_argument("--trace-rate", type=float, default=500.0,
                        help="calm-state arrival rate for --trace "
                             "(bursty traces burst at 10x)")
    parser.add_argument("--preempt-after", type=int, default=None,
                        help="generate mode: scheduler preemption "
                             "time slice")
    parser.add_argument("--buckets", default="none",
                        help="classify mode: comma-separated pad-width "
                             "ladder, 'auto' to tune from the observed "
                             "lengths, 'none' to pad to the model "
                             "maximum")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless batched >= "
                             "--min-speedup x serial")
    parser.add_argument("--min-speedup", type=float, default=1.0)
    args = parser.parse_args(argv)

    speedups = (run_generate(args) if args.mode == "generate"
                else run_classify(args))
    # versioned CI benchmark artifact (no-op unless REPRO_BENCH_DIR)
    from repro.eval import record_bench
    record_bench("serving_throughput", dict(speedups),
                 context={"mode": args.mode, "streams": args.streams,
                          "stagger": args.stagger, "quick": args.quick,
                          "buckets": args.buckets})

    if args.check and speedups["batched"] < args.min_speedup:
        print(f"FAIL: batched speedup {speedups['batched']:.2f}x below "
              f"required {args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
