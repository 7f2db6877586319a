"""Spans over the layers both workload families enter: the model
forward (``models``/``nn``) and hardware accounting (``core``/``hw``).

Per-layer times are reported in ms per workload operation (a serving
step, or a pipeline pass) so they add up to that operation's time.
``*_ms`` of a span with children is inclusive unless the metric is
named a self time in README.md.
"""

from __future__ import annotations

from spans import Spans


def _kernel_jobs(spans, args, kwargs, result):
    spans.counts["hw.kernel_jobs"] += len(args[1])


def _tile_scores(spans, args, kwargs, result):
    if args[0].config.early_termination:      # the LeOPArd simulator
        spans.counts["hw.scores"] += result.counters.scores_total


def install_forward(spans: Spans) -> None:
    """Attention, linear and norm layers of every model."""
    from repro.models.attention import PrunedSelfAttention
    from repro.nn import LayerNorm, Linear

    spans.wrap(PrunedSelfAttention, "forward", "models.attention")
    spans.wrap(Linear, "forward", "nn.linear")
    spans.wrap(LayerNorm, "forward", "nn.norm")


def install_hardware(spans: Spans) -> None:
    """``estimate_many`` and the simulator stages under it."""
    import repro.hw.tile as tile
    import repro.hw.workload as hw_workload
    from repro.core import PrunedInferenceEngine
    from repro.hw import EnergyModel, TileSimulator

    spans.wrap(PrunedInferenceEngine, "estimate_many", "core.estimate")
    spans.wrap(hw_workload, "jobs_from_records", "hw.jobs")
    spans.wrap(TileSimulator, "run", "hw.tile_run", _tile_scores)
    # tile.py calls run_many through its own module namespace
    spans.wrap(tile, "run_many", "hw.kernel", _kernel_jobs)
    spans.wrap(EnergyModel, "total", "hw.energy")


def forward_and_hardware(spans: Spans, operations: int) -> dict:
    """The shared per-layer metrics, per workload operation."""
    operations = max(operations, 1)

    def per_op(name, own=False):
        return spans.ms(name, own) / operations

    kernel_calls = spans.calls["hw.kernel"]
    estimate_s = spans.total["core.estimate"]
    return {
        "models.attention_ms": per_op("models.attention", own=True),
        "nn.linear_ms": per_op("nn.linear", own=True),
        "nn.norm_ms": per_op("nn.norm", own=True),
        "core.estimate_ms": per_op("core.estimate"),
        "core.estimate_calls": spans.calls["core.estimate"],
        "hw.jobs_build_ms": per_op("hw.jobs"),
        "hw.tile_run_ms": per_op("hw.tile_run", own=True),
        "hw.kernel_ms": per_op("hw.kernel"),
        "hw.kernel_calls": kernel_calls,
        "hw.jobs_per_kernel_call": (
            spans.counts["hw.kernel_jobs"] / kernel_calls
            if kernel_calls else 0.0),
        "hw.energy_ms": per_op("hw.energy"),
        "hw.scores_per_s": (spans.counts["hw.scores"] / estimate_s
                            if estimate_s else 0.0),
    }
