"""LeOPArd repro benchmark: one entry point for every workload.

    python3 perfbench/run.py --workload serve-hw --seed 1 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced
    python3 perfbench/run.py --self-test

Run from the repository root.  A single-workload run prints a human
report (every metric by name, with unit and sample count) and, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``, every time and rate scaled to
the nominal host's speed (``hostspeed.py``).  It exits 1 when an output
check failed or any operation failed, and 2 when the program under
test is missing.
"""

from __future__ import annotations

import os

# one BLAS thread per process, workers included (they fork from here):
# must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"


def fix_malloc() -> str:
    """Fix glibc's mmap and trim thresholds, before numpy allocates.

    By default glibc raises both as a process frees large blocks, so a
    model's temporaries (a 128-token prefill's 512 KB score arrays)
    are mapped and faulted in afresh on every call early in a process
    and reuse heap memory later.  Serving speed then depends on the
    process's history: fresh engines in one process served 1500 or
    2250 tok/s on serve-long depending on how many came before.  Fixed
    thresholds give every run the state a long-running process drifts
    toward.  Returns what was set, for the provenance."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return "default (no glibc mallopt)"
    mmap_threshold, trim_threshold = 32 << 20, 128 << 20
    # M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1 in <malloc.h>
    if mallopt(-3, mmap_threshold) != 1 or mallopt(-1, trim_threshold) != 1:
        return "default (mallopt refused)"
    return (f"mmap_threshold={mmap_threshold >> 20}MiB "
            f"trim_threshold={trim_threshold >> 20}MiB")


#: the allocator state every run measures under (workers fork it)
MALLOC = fix_malloc()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

import selftest  # noqa: E402
from hostspeed import NOMINAL_S, scaled  # noqa: E402
from measure import fail_frac, meets_slo, median, percentile  # noqa: E402

#: the workloads, the metrics each run reports and the run length
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    return [workload["name"] for workload in BENCHMARK["workloads"]]


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git
    (which would look above the checkout); None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import platform

    import numpy as np
    from repro.hw.backends import resolve_backend_name

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:                    # noqa: BLE001 — best effort
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "kernel_backend": resolve_backend_name(None),
        "malloc": MALLOC,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _q(label: str, quant, note: str = "") -> str:
    tail = "" if quant.supported else "  [tail has <10 samples beyond]"
    return (f"  {label:<24}{quant.value * 1e3:12.3f} ms    "
            f"(p{quant.q:g} of n={quant.count}){tail} {note}")


def _line(label: str, value: float, unit: str, note: str = "") -> str:
    return f"  {label:<24}{value:12.4f} {unit:<6}{note}"


def _setup_line(setups) -> str:
    seconds = setups.seconds
    return _line("setup_s", median(seconds), "s",
                 f"(median of {len(seconds)} setups; p10 "
                 f"{percentile(seconds, 10):.4f}, p90 "
                 f"{percentile(seconds, 90):.4f})")


def report_serving(workload, report) -> dict:
    import serving

    e2e = serving.end_to_end(workload, report)
    phase = report["phase"]
    q = serving.quantiles(workload, phase)
    ok = [o.served for o in phase.outcomes if o.served.ok]
    limits = serving.slo_limits(workload, report["clock"].scale)
    met = sum(meets_slo(s, *limits) for s in ok)
    tokens = sum(s.new_tokens for s in ok)
    print("end to end (untraced, client-measured):")
    print(_setup_line(report["setups"]))
    print(_line("tok_s = throughput", e2e["throughput"], "tok/s",
                f"({tokens} tokens of {len(ok)} ok requests in "
                f"{phase.seconds:.2f} s, {phase.steps} steps)"))
    print(_line("goodput_tok_s", e2e["goodput"], "tok/s",
                f"({met}/{len(phase.outcomes)} requests met TTFT <= "
                f"{limits[0] * 1e3:.1f} ms and TPOT <= "
                f"{limits[1] * 1e3:.1f} ms here)"))
    print(_q("ttft_p50_ms", q["ttft_p50"]))
    print(_q("ttft_p90_ms", q["ttft_p90"]))
    print(_q("tpot_p50_ms", q["tpot_p50"]))
    print(_q("tbt_p50_ms", q["tbt_p50"],
             note="(raw gaps are multi-modal: see README)"))
    print(_q(f"tbt_p{workload.gap_tail:g}_ms = gap_tail", q["gap_tail"]))
    print(_q("tbt_p99_ms", q["tbt_p99"]))
    print(_line("peak_rss_mb", e2e["peak_rss_mb"], "MB",
                "(with workers)" if workload.procs else ""))
    sim = serving.sim_totals(phase)
    if sim is not None:
        print(_line("sim_speedup", sim[0], "x",
                    f"(aggregate over {len(ok)} served requests)"))
        print(_line("sim_energy_reduction", sim[1], "x"))
    print("  finding: the engine's own TTFT stops at the start of the "
          "producing step:")
    print(_q("  engine ttft_p50_ms", q["engine_ttft_p50"]))
    print(_q("  engine ttft_p90_ms", q["engine_ttft_p90"]))
    for name, quant in q.items():
        if not quant.supported:
            print(f"warning: {name} has n={quant.count}, fewer than 10 "
                  "samples beyond it; lengthen --seconds",
                  file=sys.stderr)
    return e2e


def _span_calls(spans) -> None:
    """The sample count behind each per-layer time."""
    print("  span calls: " + ", ".join(
        f"{name}={count}" for name, count in sorted(spans.calls.items())))


def report_layers_serving(report) -> dict:
    layers = report["layers"]
    print("per layer (traced run, ms per scheduler step; counts over "
          "the window):")
    for metric in BENCHMARK["per_layer"]:
        print(_line(metric["name"], layers.get(metric["name"], 0.0),
                    metric["unit"]))
    _span_calls(report["traced"].spans)
    split = report["split"]
    step_s = report["step_s"]
    if step_s > 0:
        covered = sum(split.values())
        print(f"self-time split of serve.step ({step_s * 1e3:.1f} ms "
              f"total, spans cover {covered / step_s:.1%}):")
        for layer, own in sorted(split.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<8}{own / step_s:8.1%}")
    return layers


def report_training(report) -> dict:
    import training
    from measure import quantile

    e2e = training.end_to_end(report)
    measured = report["measured"]
    marks = measured.marks
    print("end to end (untraced):")
    print(_setup_line(report["setups"]))
    print(_line("train_ex_s = throughput", e2e["throughput"], "ex/s",
                f"({marks.examples} examples, {measured.passes} passes "
                f"in {measured.seconds:.2f} s)"))
    print(_q("forward latency p50", quantile(marks.latencies, 50)))
    print(_q(f"forward latency p{training.LATENCY_TAIL}",
             quantile(marks.latencies, training.LATENCY_TAIL)))
    print(_q("update gap p50", quantile(marks.gaps, 50)))
    print(_q(f"update gap p{training.GAP_TAIL}",
             quantile(marks.gaps, training.GAP_TAIL)))
    print(_line("peak_rss_mb", e2e["peak_rss_mb"], "MB"))
    sim = training.simulated(measured.deployed)
    print(_line("sim_speedup", sim["sim_speedup"], "x",
                f"(geomean over {len(measured.deployed)} models)"))
    print(_line("sim_energy_reduction", sim["sim_energy_reduction"], "x"))
    print(_line("accuracy_drop", sim["accuracy_drop"], "pts",
                "(mean over the accuracy-metric models)"))
    for model in measured.deployed:
        print(f"    {model.name:<28}{model.seconds:7.2f} s  speedup "
              f"{model.estimate.speedup_vs_baseline:.3f}x  "
              f"{model.metric} delta {model.metric_delta:+.4f}")
    return e2e


def report_layers_training(report) -> dict:
    import training

    layers = training.per_layer(report)
    print(f"per layer (traced run, ms per pipeline pass over "
          f"{report['traced'].passes} passes):")
    for metric in BENCHMARK["per_layer"]:
        print(_line(metric["name"], layers.get(metric["name"], 0.0),
                    metric["unit"]))
    _span_calls(report["traced"].spans)
    return layers


def run_one(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: the program under test ({SRC / 'repro'}) is "
              "missing; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ==")
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as root:
        import serving
        workload = serving.WORKLOADS.get(args.workload)
        if workload is not None:
            report = serving.run_serving(workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         root)
        else:
            import training
            report = training.run_training(args.seed, args.seconds,
                                           bool(args.trace))
    tallies = report["tallies"]
    for phase, tally in tallies.items():
        print(f"phase {phase}: sent {tally.attempted}, succeeded "
              f"{tally.succeeded}, failed {tally.failed}")
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    mismatches = report.get("mismatches", [])
    for line in mismatches:
        print(f"MISMATCH {line}")
    error = report.get("error")
    if error:
        print(f"FAILED {error}")
    print(_line("fail_frac", fail_frac(attempted, failed), "ratio",
                f"({failed} of {attempted} operations)"))
    correct = not error and not mismatches and failed == 0
    metrics = {}
    if not error:
        if workload is not None:
            values = (report_layers_serving(report) if args.trace
                      else report_serving(workload, report))
        else:
            values = (report_layers_training(report) if args.trace
                      else report_training(report))
        metrics = at_nominal_speed(values, report,
                                   "per_layer" if args.trace
                                   else "end_to_end")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


#: metrics timed during set-up, scaled by the set-ups' own bursts
SETUP_METRICS = ("setup_s", "ipc.start_s")


def at_nominal_speed(values: dict, report: dict, table: str) -> dict:
    """The metrics of ``BENCHMARK.json``'s ``table``, times and rates
    scaled to the nominal host's speed; prints them and the host speed
    the run sampled."""
    clock, setups = report["clock"], report["setups"]
    for label, bursts, scale in (("run", clock.bursts, clock.scale),
                                 ("set-ups", setups.bursts, setups.scale)):
        print(f"host speed over the {label}: mean burst "
              f"{NOMINAL_S / scale * 1e3:.2f} ms, median "
              f"{median(bursts) * 1e3:.2f} ms, n={len(bursts)} (nominal "
              f"{NOMINAL_S * 1e3:.2f} ms): scale {scale:.4f}")
    print(f"{table} at the nominal host's speed:")
    metrics = {}
    for metric in BENCHMARK[table]:
        name, unit = metric["name"], metric["unit"]
        scale = setups.scale if name in SETUP_METRICS else clock.scale
        value = scaled(float(values.get(name, 0.0)), unit, scale)
        print(_line(name, value, unit))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_all(args) -> int:
    """Every workload untraced, then every workload traced, each in its
    own process; prints each run's report and a summary."""
    status = 0
    summary = []
    for trace in (0, 1):
        for workload in workload_names():
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE)
            print(done.stdout, end="")
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}          # died before printing its result
            summary.append((workload, trace, done.returncode, result))
            status = status or done.returncode
    print("== summary ==")
    for workload, trace, code, result in summary:
        print(f"{workload:<12} trace={trace} exit={code} "
              f"correct={result.get('correct')} "
              f"failed={result.get('failed')}/{result.get('attempted')}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own arithmetic only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    failures, checks = selftest.run()
    if failures or args.self_test:
        for failure in failures:
            print(f"self-test failed: {failure}", file=sys.stderr)
        print(f"self-test: {len(failures)} failures of {checks} checks",
              file=sys.stderr)
        return 3 if failures else 0
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
