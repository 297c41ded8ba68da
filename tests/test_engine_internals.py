"""Tests for pipeline-engine internals: caching, budgets, livelock handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.kvcache.manager import DistributedKVCacheManager
from repro.pipeline.engine import EpochPlan, PipelineConfig, context_weighted
from repro.pipeline.stages import TokenCostModel
from repro.pipeline.tgp import TokenGrainedPipeline
from repro.workload.requests import Request, Sequence, SequencePhase

from .conftest import make_trace


def make_engine(arch, wafer_config, blocks_per_core=256, chunk=32, kv_cores=48):
    cost_model = TokenCostModel(arch=arch, wafer_config=wafer_config)
    kv_manager = DistributedKVCacheManager(
        arch, kv_core_ids=list(range(kv_cores)), blocks_per_core=blocks_per_core
    )
    return TokenGrainedPipeline(
        arch,
        cost_model,
        kv_manager,
        config=PipelineConfig(chunk_tokens=chunk, context_quantum=64),
    )


class TestCaching:
    def test_quantize_rounds_to_quantum(self, tiny_arch, small_wafer_config):
        engine = make_engine(tiny_arch, small_wafer_config)
        assert engine._quantize(1) == 1
        assert engine._quantize(70) == 64
        assert engine._quantize(100) == 128

    def test_interval_cache_populated(self, tiny_arch, small_wafer_config):
        engine = make_engine(tiny_arch, small_wafer_config)
        first = engine.stage_interval(70)
        second = engine.stage_interval(90)  # same quantised key
        assert first == second
        assert len(engine._interval_cache) == 1

    def test_energy_cache_key_matches_interval_cache(self, tiny_arch, small_wafer_config):
        engine = make_engine(tiny_arch, small_wafer_config)
        engine.token_energy(10)
        engine.token_energy(500)
        assert len(engine._energy_cache) == 2


class TestEpochPlanBudgets:
    """Per-sequence budget derivation of the shared epoch planner."""

    def test_prefill_budget_caps_at_chunk(self, tiny_arch, small_wafer_config):
        engine = make_engine(tiny_arch, small_wafer_config, chunk=16)
        seq = Sequence(Request(request_id=0, prefill_length=100, decode_length=10))
        seq.start()
        plan = engine._plan_epoch([seq], 0.0)
        assert plan.budgets == [16]
        assert plan.prefill_takes == [16]
        assert plan.decode_takes == [0]

    def test_decode_budget_caps_at_remaining(self, tiny_arch, small_wafer_config):
        engine = make_engine(tiny_arch, small_wafer_config, chunk=64)
        seq = Sequence(Request(request_id=0, prefill_length=4, decode_length=10))
        seq.start()
        seq.advance_tokens(4)
        assert seq.phase is SequencePhase.DECODE
        plan = engine._plan_epoch([seq], 0.0)
        assert plan.budgets == [10]
        assert plan.decode_takes == [10]

    def test_complete_sequence_budget_zero(self, tiny_arch, small_wafer_config):
        engine = make_engine(tiny_arch, small_wafer_config)
        seq = Sequence(Request(request_id=0, prefill_length=2, decode_length=0))
        seq.start()
        seq.advance_tokens(2)
        plan = engine._plan_epoch([seq], 0.0)
        assert plan.budgets == [0]
        assert plan.split is False


@st.composite
def epoch_states(draw):
    """Plan rows and budgets of one epoch, plus which sequences advanced."""
    count = draw(st.integers(1, 48))
    column = st.lists(st.integers(0, 4096), min_size=count, max_size=count)
    remaining_prefill, remaining_decode = draw(column), draw(column)
    context = draw(st.lists(st.integers(0, 2**30), min_size=count, max_size=count))
    budget = [
        draw(st.integers(0, prefill + decode))
        for prefill, decode in zip(remaining_prefill, remaining_decode)
    ]
    advanced = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    rows = np.array(
        [remaining_prefill, remaining_decode, context, [0] * count, [1] * count],
        dtype=np.int64,
    )
    return rows, np.array(budget, dtype=np.int64), np.array(advanced)


def historical_sums(context, takes):
    """The float context-weighted sums the engine used before its exact form.

    Every segment contributes ``(start + (take − 1) / 2)·take``; the planned
    duration added the two per-row pairwise sums, the tally took a
    sequential ``cumsum`` over the segments interleaved per sequence.
    """
    start = np.empty_like(takes)
    start[0] = context
    start[1] = context + takes[0]
    terms = (start + (takes - 1) / 2.0) * takes
    prefill, decode = np.add.reduce(terms, axis=1)
    return float(prefill + decode), float(np.cumsum(terms.T)[-1])


class TestExactContextSums:
    """The integer context-weighted sum equals the historical float sums."""

    @given(state=epoch_states())
    @settings(max_examples=300, deadline=None)
    def test_integer_sum_matches_float_forms_bitwise(self, state):
        rows, budget, advanced = state
        plan = EpochPlan(budget=budget, takes=np.empty((2, len(budget)), np.int64),
                         rows=rows)
        plan.derive_takes()
        # The planned duration sums every planned take, the tally the takes
        # of the sequences that advanced.  Both callers return before
        # summing an epoch without tokens.
        for takes in (plan.takes, plan.takes * advanced):
            if not takes.any():
                continue
            value = context_weighted(takes[0] + takes[1], plan.context)
            for historical in historical_sums(plan.context, takes):
                assert value.hex() == historical.hex()

    def test_exactness_bound(self):
        # Σ b·(2c + b − 1) = 1·(2·(2**52 − 1) + 0) = 2**53 − 2: just inside.
        one = np.ones(1, dtype=np.int64)
        assert context_weighted(one, one * (2**52 - 1)) == 2**52 - 1
        with pytest.raises(SimulationError, match="exactly"):
            context_weighted(one, one * 2**52)  # doubled sum 2**53

    def test_epoch_past_the_bound_raises(self, tiny_arch, small_wafer_config):
        """Neither the planned duration nor the tally rounds silently."""
        engine = make_engine(tiny_arch, small_wafer_config, chunk=16)
        seq = Sequence(Request(request_id=0, prefill_length=2**51 + 64, decode_length=1))
        seq.start()
        seq.prefill_progress = 2**51  # Σ b·(2c + b − 1) = 16·(2**52 + 15)
        plan = engine._plan_epoch([seq], 0.0)
        with pytest.raises(SimulationError, match="exactly"):
            engine._planned_duration(plan)
        with pytest.raises(SimulationError, match="exactly"):
            engine._tally([seq], plan, plan.takes, [], False)


class TestRunEdgeCases:
    def test_empty_wait_queue_finishes_immediately(self, tiny_arch, small_wafer_config):
        engine = make_engine(tiny_arch, small_wafer_config)
        trace = make_trace(num_requests=1, prefill=8, decode=4)
        trace.requests.clear()
        result = engine.run(trace)
        assert result.total_tokens == 0
        assert result.total_time_s >= 0.0

    def test_sequence_too_large_for_cache_raises(self, tiny_arch, small_wafer_config):
        # One block per core and a single-core cache: even one sequence's
        # initial reservation cannot be satisfied.
        engine = make_engine(tiny_arch, small_wafer_config, blocks_per_core=1, kv_cores=2)
        trace = make_trace(num_requests=1, prefill=8, decode=4)
        with pytest.raises(SimulationError):
            engine.run(trace)

    def test_prefill_only_requests_complete(self, tiny_arch, small_wafer_config):
        engine = make_engine(tiny_arch, small_wafer_config)
        trace = make_trace(num_requests=3, prefill=16, decode=0)
        result = engine.run(trace)
        assert result.output_tokens == 0
        assert result.total_tokens == 48

    def test_dependency_bound_enforced(self, tiny_arch, small_wafer_config):
        """A lone decoding sequence cannot finish faster than depth x interval."""
        engine = make_engine(tiny_arch, small_wafer_config, chunk=128)
        trace = make_trace(num_requests=1, prefill=2, decode=50)
        result = engine.run(trace)
        interval = engine.stage_interval(32)
        assert result.total_time_s >= 50 * engine.depth * interval * 0.9

    def test_eviction_pressure_counted(self, tiny_arch, small_wafer_config):
        """An undersized KV cache forces evictions that show up in the result."""
        engine = make_engine(
            tiny_arch, small_wafer_config, blocks_per_core=2, kv_cores=24, chunk=64
        )
        trace = make_trace(num_requests=6, prefill=300, decode=64)
        result = engine.run(trace)
        assert result.output_tokens == trace.total_decode_tokens
        assert result.evictions > 0
        assert result.recomputed_tokens > 0
        assert result.total_tokens > trace.total_tokens  # recomputation is extra work
