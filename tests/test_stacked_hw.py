"""Stacked hardware accounting: the whole-table path against oracles.

Three layers are pinned here:

* the kernel's conservative early-termination guarantee, as a
  property over random bit widths, plane groups, margins, thresholds
  and valid masks, for every registered backend's ``matrix`` and for
  the stacked :class:`~repro.hw.backends.KernelTable` entry point;
* ``estimate_many`` over mixed record groups, against per-group
  ``estimate_from_records`` under the ``numpy-ref`` oracle and against
  a per-job reference of the tile schedule;
* the serving engine charging several streams finished in one step in
  one call, each estimate equal to a solo run of that stream.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import AE_LEOPARD, TileSimulator, backends, baseline_like
from repro.hw.backends import KernelTable, matrix_table_loop, run_many
from repro.hw.bitserial import serial_cycle_count
from repro.hw.workload import jobs_from_records
from repro.serve import BatchPolicy, ServingEngine
from repro.serve.__main__ import build_classifier_engine, build_lm_engine

BACKENDS = backends.list_backends()
PROPERTY = settings(derandomize=True, database=None, max_examples=40,
                    deadline=None)


# ---------------------------------------------------------------------------
# conservative early termination, as a property
# ---------------------------------------------------------------------------

def _tile(rng, magnitude_bits, s_q, s_k, dim):
    limit = (1 << magnitude_bits) - 1
    q = rng.integers(-limit, limit + 1, (s_q, dim))
    k = rng.integers(-limit, limit + 1, (s_k, dim))
    exact = q @ k.T
    # thresholds near the middle of the score range terminate some
    # scores early and let others run the full schedule
    threshold = float(np.quantile(exact, rng.uniform(0.1, 0.9))
                      + rng.uniform(-0.5, 0.5))
    valid = rng.random((s_q, s_k)) < rng.uniform(0.3, 1.0)
    return q, k, threshold, valid, exact


def _assert_conservative(cycles, pruned, scores, exact, threshold, valid,
                         full):
    terminated = valid & (cycles < full)
    # a score the front end stopped early truly falls below threshold
    assert (exact[terminated] < threshold).all()
    np.testing.assert_array_equal(scores, exact)
    np.testing.assert_array_equal(
        pruned[valid], (terminated | (exact < threshold))[valid])
    assert ((cycles[valid] >= 1) & (cycles[valid] <= full)).all()
    assert (cycles[~valid] == 0).all()


case = dict(magnitude_bits=st.integers(4, 11), group=st.integers(1, 4),
            margin_scale=st.floats(1.0, 4.0), seed=st.integers(0, 2**16))


@pytest.mark.parametrize("backend", BACKENDS)
@PROPERTY
@given(s_q=st.integers(1, 6), s_k=st.integers(1, 12),
       dim=st.integers(1, 16), **case)
def test_matrix_termination_is_conservative(backend, s_q, s_k, dim,
                                            magnitude_bits, group,
                                            margin_scale, seed):
    rng = np.random.default_rng(seed)
    q, k, threshold, valid, exact = _tile(rng, magnitude_bits, s_q, s_k,
                                          dim)
    result = backends.get_backend(backend).matrix(
        q, k, threshold, magnitude_bits, group, valid=valid,
        margin_scale=margin_scale)
    _assert_conservative(*result, exact, threshold, valid,
                         serial_cycle_count(magnitude_bits + 1, group))


@pytest.mark.parametrize("backend", BACKENDS)
@PROPERTY
@given(jobs=st.integers(1, 8), **case)
def test_stacked_table_termination_is_conservative(backend, jobs,
                                                   magnitude_bits, group,
                                                   margin_scale, seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 17))
    tiles = [_tile(rng, magnitude_bits, int(rng.integers(1, 7)),
                   int(rng.integers(1, 20)), dim) for _ in range(jobs)]
    s_q = np.array([len(t[0]) for t in tiles])
    s_k = np.array([len(t[1]) for t in tiles])
    k = np.zeros((jobs, s_k.max(), dim), dtype=np.int64)
    valid = np.zeros((s_q.sum(), s_k.max()), dtype=bool)
    row_start = np.cumsum(s_q) - s_q
    for j, (tq, tk, _, tvalid, _) in enumerate(tiles):
        k[j, :len(tk)] = tk
        valid[row_start[j]:row_start[j] + len(tq), :len(tk)] = tvalid
    table = KernelTable(q=np.concatenate([t[0] for t in tiles]), k=k,
                        threshold=np.array([t[2] for t in tiles]),
                        valid=valid, s_q=s_q, s_k=s_k,
                        magnitude_bits=magnitude_bits, group=group,
                        margin_scale=margin_scale)
    cycles, pruned, scores = run_many(backends.get_backend(backend), table)
    oracle = matrix_table_loop(backends.get_backend("numpy-ref"), table)
    for ours, theirs in zip((cycles, pruned, scores), oracle):
        np.testing.assert_array_equal(ours, theirs)
    full = serial_cycle_count(magnitude_bits + 1, group)
    for j, (tq, tk, threshold, tvalid, exact) in enumerate(tiles):
        rows = slice(row_start[j], row_start[j] + len(tq))
        _assert_conservative(cycles[rows, :len(tk)], pruned[rows, :len(tk)],
                             scores[rows, :len(tk)], exact, threshold,
                             tvalid, full)
        # nothing past the job's keys
        for out in (cycles, pruned, scores):
            assert not out[rows, len(tk):].any()


# ---------------------------------------------------------------------------
# estimate_many over mixed groups
# ---------------------------------------------------------------------------

def _reference_run(config, jobs):
    """The tile schedule one job at a time, on the oracle kernel."""
    full = config.full_score_cycles()
    oracle = backends.get_backend("numpy-ref")
    total = fe_all = be_all = stall = 0
    counts = np.zeros(6, dtype=np.int64)
    for job in jobs:
        q, k, threshold = job.quantized_for(config.magnitude_bits)
        valid = job.valid
        if config.early_termination:
            cycles, pruned, scores = oracle.matrix(
                q, k, threshold, config.magnitude_bits,
                config.serial_bits, valid=valid)
        else:
            cycles = np.where(valid, full, 0)
            scores = (q @ k.T).astype(np.float64)
            pruned = scores < threshold
        pruned_valid = pruned & valid
        surviving = valid
        if config.runtime_pruning:
            masked = np.where(valid, scores, -np.inf)
            row_max = valid & (masked == masked.max(axis=1, keepdims=True))
            surviving = valid & (~pruned_valid | row_max)
        active = valid.any(axis=1)
        fe = int(np.ceil(cycles.sum(axis=1) / config.num_qk_dpus).sum())
        be = int(np.where(active, config.softmax_latency
                          + surviving.sum(axis=1)
                          * config.vpu_cycles_per_score, 0).sum())
        total += max(fe, be)
        fe_all += fe
        be_all += be
        stall += max(0, be - fe)
        counts += [valid.sum(), pruned_valid.sum(), surviving.sum(),
                   cycles.sum(),
                   np.minimum(cycles * config.serial_bits,
                              config.qk_bits).sum(), active.sum()]
    if jobs:
        total += full + config.softmax_latency
    return total, fe_all, be_all, stall, counts.tolist()


def _summary(result):
    c = result.counters
    return (result.total_cycles, result.frontend_cycles,
            result.backend_cycles, result.frontend_stall_cycles,
            [c.scores_total, c.scores_pruned, c.survivors,
             c.qk_lane_cycles, c.qk_bits_processed, c.rows])


def _stream_records(engine, prompt, max_new_tokens):
    serving = ServingEngine(engine, BatchPolicy(max_batch_size=1,
                                                max_wait=0.0),
                            estimate_hardware=True, clock=lambda: 0.0)
    stream_id = serving.open_stream(prompt, max_new_tokens)
    serving.drain()
    return serving.finish(stream_id).records


def _mixed_groups():
    lm = build_lm_engine()
    records = _stream_records(lm, np.array([3, 1, 4, 1, 5]), 4)
    prefill = [r for r in records if r.queries.shape[2] > 1]
    decode = [r for r in records if r.queries.shape[2] == 1]
    assert prefill and decode

    classifier = build_classifier_engine()
    inputs = np.array([[1, 2, 3, 4, 5, 6], [7, 8, 9, 0, 0, 0],
                       [4, 4, 0, 0, 0, 0]])
    mask = inputs > 0
    _, batch = classifier.run_recorded(
        lambda: classifier.logits_for(inputs, mask))
    zero_q = replace(batch[0], queries=np.zeros_like(batch[0].queries))
    zero_k = replace(batch[1], keys=np.zeros_like(batch[1].keys))
    no_valid = replace(batch[0], valid=None)
    return {"lm": (lm, [prefill, decode, [], prefill + decode]),
            "classifier": (classifier, [batch, [zero_q, zero_k],
                                        [no_valid], []])}


@pytest.mark.parametrize("config", [
    AE_LEOPARD, replace(AE_LEOPARD, qk_bits=10),
    replace(AE_LEOPARD, qk_bits=9, serial_bits=3, num_qk_dpus=4)],
    ids=["12x2", "10x2", "9x3"])
def test_estimate_many_matches_oracle_per_group(config):
    oracle = replace(config, kernel_backend="numpy-ref")
    for engine, groups in _mixed_groups().values():
        stacked = engine.estimate_many(groups, config)
        assert [e.kernel_backend for e in stacked] == \
            [backends.get_backend().name] * len(groups)
        solos = [engine.estimate_from_records(g, oracle) for g in groups]
        assert [replace(e, kernel_backend="numpy-ref")
                for e in stacked] == solos
        assert engine.estimate_many(groups, oracle) == solos


def test_table_schedule_matches_per_job_reference():
    """Per-group tile results of the stacked path equal the schedule
    computed one job at a time, for the pruning and baseline tiles."""
    from repro.hw.workload import table_from_records

    for engine, groups in _mixed_groups().values():
        for config in (AE_LEOPARD, replace(AE_LEOPARD, qk_bits=10),
                       baseline_like(AE_LEOPARD)):
            table = table_from_records(groups, config.magnitude_bits)
            stacked = TileSimulator(config).run(table)
            for result, records in zip(stacked.groups, groups):
                assert _summary(result) == _reference_run(
                    config, jobs_from_records(records))
        # a table only runs on the datapath width it was quantized for
        with pytest.raises(ValueError, match="magnitude bits"):
            TileSimulator(replace(AE_LEOPARD, qk_bits=10)).run(
                table_from_records(groups))


# ---------------------------------------------------------------------------
# serving: streams finishing together are charged together
# ---------------------------------------------------------------------------

def test_streams_finished_in_one_step_match_solo_estimates(monkeypatch):
    engine = build_lm_engine()
    prompts = [np.array([1, 2, 3]), np.array([4, 5, 6]),
               np.array([7, 8])]
    calls = []
    original = type(engine).estimate_many

    def counting(self, record_groups, *args, **kwargs):
        calls.append(len(record_groups))
        return original(self, record_groups, *args, **kwargs)

    monkeypatch.setattr(type(engine), "estimate_many", counting)
    serving = ServingEngine(engine, BatchPolicy(max_batch_size=4,
                                                max_wait=0.0),
                            estimate_hardware=True, clock=lambda: 0.0)
    ids = [serving.open_stream(p, 3) for p in prompts]
    finished_per_step = []
    while len(finished_per_step) < 20 and not all(
            serving.result(i) for i in ids):
        finished_per_step.append(len(serving.step()))
    assert max(finished_per_step) >= 2
    # one estimate call per step that finished streams, covering all
    assert calls == [n for n in finished_per_step if n]
    results = [serving.finish(i) for i in ids]
    monkeypatch.setattr(type(engine), "estimate_many", original)
    for prompt, result in zip(prompts, results):
        solo = ServingEngine(engine, BatchPolicy(max_batch_size=1,
                                                 max_wait=0.0),
                             estimate_hardware=True, clock=lambda: 0.0)
        solo_id = solo.open_stream(prompt, 3)
        solo.drain()
        expected = solo.finish(solo_id)
        np.testing.assert_array_equal(result.tokens, expected.tokens)
        assert result.hardware == expected.hardware
        assert result.hardware == engine.estimate_from_records(
            result.records)
