"""The fine-tuning pipeline workload.

One pass runs ``eval.run_workload`` at QUICK scale on three specs (the
paper's pipeline: pretrain, pruning-aware fine-tune, HARD deploy,
record capture), then charges each deployed model's records through
``estimate_from_records``.  The measured phase runs whole passes until
the run's seconds are spent, so every run does the same mix of work.

Measured from outside the training loop: latency is one forward to
the loss (the ``loss`` call), and the gap is the interval between
consecutive optimizer updates of one training phase (forward,
backward, clipping and the update).  Every time is read from the run's
``hostspeed.Clock``, which samples the host's speed, off the clock,
before a forward or after an update when due.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field, replace

import layers
from hostspeed import Clock, Setups
from measure import Tally, geomean, median, quantile
from spans import Patches, Spans

SPECS = ("bert_base_glue/G-SST", "gpt2_wikitext/WikiText-2",
         "vit_cifar/CIFAR-10")
SETUPS = 15
#: tail percentiles.  The three models' step times form separate
#: modes, and p80-p90 sit on the edge between the two slowest, so they
#: jump between runs (IQR/median 0.10 over five seeds, p95 0.03-0.05).
#: A 20 s run makes about 1250 updates, so p95 has 60 samples beyond
LATENCY_TAIL = 95
GAP_TAIL = 95


def seeded_specs(seed: int) -> list:
    from repro.eval.workloads import get_workload
    return [replace(get_workload(name), seed=seed) for name in SPECS]


@dataclass
class StepMarks:
    """Optimizer-step timestamps taken from outside the loop."""

    clock: Clock
    examples: int = 0
    latencies: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    _last_update: float | None = None

    def install(self, patches: Patches) -> None:
        import repro.eval.runner as runner
        from repro.models import TransformerClassifier, TransformerLM
        from repro.optim import Adam

        def on_loss(original):
            def wrapper(model, batch):
                self.clock.tick()
                start = self.clock()
                loss = original(model, batch)
                self.latencies.append(self.clock() - start)
                self.examples += len(batch)
                return loss
            return wrapper

        def on_update(original):
            def wrapper(optimizer):
                original(optimizer)
                self.clock.tick()
                now = self.clock()
                if self._last_update is not None:
                    self.gaps.append(now - self._last_update)
                self._last_update = now
            return wrapper

        def new_phase(original):
            # pretraining (run_workload) and fine-tuning each start a
            # phase; the pause between phases is not an update gap
            def wrapper(*args, **kwargs):
                self._last_update = None
                try:
                    return original(*args, **kwargs)
                finally:
                    self._last_update = None
            return wrapper

        patches.replace(TransformerLM, "loss", on_loss)
        patches.replace(TransformerClassifier, "loss", on_loss)
        patches.replace(Adam, "step", on_update)
        patches.replace(runner, "run_workload", new_phase)
        patches.replace(runner, "finetune_with_pruning", new_phase)
        patches.replace(runner, "evaluate_accuracy", new_phase)


@dataclass
class Deployed:
    name: str
    metric: str
    metric_delta: float
    records: list
    engine: object
    estimate: object
    seconds: float


def one_pass(specs, clock: Clock) -> list[Deployed]:
    import repro.eval.runner as runner
    from repro.core import PrunedInferenceEngine
    from repro.eval.workloads import QUICK

    deployed = []
    for spec in specs:
        begin = clock()
        # looked up on the module so the step marks see the call
        result = runner.run_workload(spec, QUICK)
        engine = PrunedInferenceEngine(result.model, result.controller)
        estimate = engine.estimate_from_records(result.records)
        deployed.append(Deployed(
            name=spec.name, metric=spec.metric,
            metric_delta=result.metric_delta, records=result.records,
            engine=engine, estimate=estimate,
            seconds=clock() - begin))
    return deployed


@dataclass
class Passes:
    seconds: float
    passes: int
    marks: StepMarks
    deployed: list[Deployed]
    spans: Spans | None = None


def run_passes(specs, seconds: float, clock: Clock,
               spans: Spans | None = None) -> Passes:
    marks = StepMarks(clock)
    with Patches() as patches:
        marks.install(patches)
        if spans is not None:
            install_spans(spans)
        try:
            begin = clock()
            count = 0
            while True:
                deployed = one_pass(specs, clock)
                count += 1
                elapsed = clock() - begin
                if elapsed >= seconds:
                    break
        finally:
            if spans is not None:
                spans.restore()
    return Passes(seconds=elapsed, passes=count, marks=marks,
                  deployed=deployed,
                  spans=spans.frozen() if spans is not None else None)


def install_spans(spans: Spans) -> None:
    import repro.core.finetune as finetune
    import repro.eval.runner as runner
    from repro.eval.workloads import WorkloadSpec
    from repro.models import TransformerClassifier, TransformerLM
    from repro.optim import Adam
    from repro.tensor import Tensor

    spans.wrap(runner, "run_workload", "eval.run")
    spans.wrap(WorkloadSpec, "make_data", "eval.data")
    spans.wrap(WorkloadSpec, "make_model", "eval.data")
    spans.wrap(runner, "finetune_with_pruning", "core.finetune")
    spans.wrap(runner, "evaluate_accuracy", "eval.measure")
    spans.wrap(runner, "measure_pruning", "eval.measure")
    spans.wrap(TransformerLM, "loss", "models.loss")
    spans.wrap(TransformerClassifier, "loss", "models.loss")
    spans.wrap(Tensor, "backward", "tensor.backward")
    spans.wrap(Adam, "step", "optim.step")
    spans.wrap(runner, "clip_grad_norm", "optim.clip")
    spans.wrap(finetune, "clip_grad_norm", "optim.clip")
    layers.install_forward(spans)
    layers.install_hardware(spans)


def check_oracle(deployed: list[Deployed], tally: Tally) -> list[str]:
    """Each deployed model's estimate must equal the ``numpy-ref``
    oracle's in every field but the backend's name: both the estimate
    the pass made under the default kernel backend and one made under
    the fused ``numpy-packed`` backend.  While the default is
    ``numpy-ref`` the first comparison is an identity; the second is
    the one that can fail."""
    from repro.hw import AE_LEOPARD

    def under(backend):
        return replace(AE_LEOPARD, kernel_backend=backend)

    mismatches = []
    for model in deployed:
        oracle = model.engine.estimate_from_records(model.records,
                                                    under("numpy-ref"))
        fused = model.engine.estimate_from_records(model.records,
                                                   under("numpy-packed"))
        for label, estimate in (("default", model.estimate),
                                ("numpy-packed", fused)):
            same = replace(estimate, kernel_backend="numpy-ref") == oracle
            tally.add(same)
            if not same:
                mismatches.append(f"{model.name} ({label}): {estimate} "
                                  f"vs oracle {oracle}")
    return mismatches


def timed_setups(specs, count: int = SETUPS) -> Setups:
    """Data and model construction for every spec, ``count`` times."""
    from repro.eval.workloads import QUICK

    def setup():
        for spec in specs:
            spec.make_model(spec.make_data(QUICK))

    setups = Setups()
    for _ in range(count):
        setups.time(setup)
    return setups


def warm_up(specs) -> None:
    """One TINY-scale pass, so lazy imports and first-call costs land
    outside the measured phase."""
    import repro.eval.runner as runner
    from repro.core import PrunedInferenceEngine
    from repro.eval.workloads import TINY

    for spec in specs:
        result = runner.run_workload(spec, TINY)
        PrunedInferenceEngine(result.model, result.controller
                              ).estimate_from_records(result.records)


def run_training(seed: int, seconds: float, trace: bool) -> dict:
    tallies = {"setup": Tally(), "train": Tally(), "check": Tally()}
    clock = Clock()
    specs = seeded_specs(seed)
    setups = timed_setups(specs)
    tallies["setup"].add(True, len(setups.seconds))
    warm_up(specs)
    measured = run_passes(specs, seconds, clock)
    tallies["train"].add(True, measured.passes * len(specs))
    report = {"tallies": tallies, "setups": setups,
              "measured": measured, "clock": clock}
    if trace:
        report["traced"] = run_passes(specs, seconds, clock,
                                      spans=Spans(clock))
        tallies["train"].add(True, report["traced"].passes * len(specs))
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    report["mismatches"] = [
        line for key in ("measured", "traced") if key in report
        for line in check_oracle(report[key].deployed, tallies["check"])]
    return report


def throughput(passes: Passes) -> float:
    return passes.marks.examples / passes.seconds


def end_to_end(report: dict) -> dict:
    measured = report["measured"]
    marks = measured.marks
    rate = throughput(measured)
    return {
        "setup_s": median(report["setups"].seconds),
        "throughput": rate,
        # training has no latency limit: every example counts
        "goodput": rate,
        "latency_p50_ms": quantile(marks.latencies, 50).value * 1e3,
        "latency_tail_ms": quantile(marks.latencies,
                                    LATENCY_TAIL).value * 1e3,
        "tpot_p50_ms": quantile(marks.gaps, 50).value * 1e3,
        "gap_tail_ms": quantile(marks.gaps, GAP_TAIL).value * 1e3,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def simulated(deployed: list[Deployed]) -> dict:
    """The paper's numbers for one pass: geomean simulated speedup and
    energy reduction over the models, mean accuracy drop over the
    accuracy-metric models (points)."""
    drops = [d.metric_delta * 100 for d in deployed
             if d.metric == "accuracy"]
    return {
        "sim_speedup": geomean(d.estimate.speedup_vs_baseline
                               for d in deployed),
        "sim_energy_reduction": geomean(d.estimate.energy_reduction
                                        for d in deployed),
        "accuracy_drop": sum(drops) / len(drops),
    }


def per_layer(report: dict) -> dict:
    traced = report["traced"]
    spans = traced.spans
    passes = traced.passes

    def per_pass(name, own=False):
        return spans.ms(name, own) / passes

    # run_workload is data + pretraining + fine-tuning + measurement;
    # pretraining is what remains after the other three
    pretrain = (spans.total["eval.run"] - spans.total["eval.data"]
                - spans.total["core.finetune"]
                - spans.total["eval.measure"])
    return {
        **layers.forward_and_hardware(spans, passes),
        "tensor.backward_ms": per_pass("tensor.backward"),
        "models.loss_ms": per_pass("models.loss", own=True),
        "optim.step_ms": per_pass("optim.step"),
        "optim.clip_ms": per_pass("optim.clip"),
        "eval.pretrain_ms": pretrain * 1e3 / passes,
        "core.finetune_ms": per_pass("core.finetune"),
        "obs.traced_slowdown": throughput(traced)
        / throughput(report["measured"]),
    }
