"""Tests for pipeline-engine internals: caching, budgets, livelock handling."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.kvcache.manager import DistributedKVCacheManager
from repro.pipeline.engine import (
    EpochPlan,
    PipelineConfig,
    PrefillSegments,
    context_weighted,
)
from repro.pipeline.sequence_grained import SequenceGrainedPipeline
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

    def test_engines_on_one_cost_model_share_its_memos(
        self, tiny_arch, small_wafer_config
    ):
        """Every serve of one build makes a new engine on the build's cost
        model; a second engine computes no cost the first one filled."""
        first = make_engine(tiny_arch, small_wafer_config)
        trace = make_trace(num_requests=6, prefill=40, decode=24)
        expected = first.run(trace)
        assert first._interval_cache and first._energy_rows
        cost_model = first.cost_model
        calls = []
        for name in ("stage_interval", "token_energy"):
            method = getattr(cost_model, name)

            def counted(context, method=method, name=name):
                calls.append((name, context))
                return method(context)

            setattr(cost_model, name, counted)
        second = TokenGrainedPipeline(
            tiny_arch, cost_model,
            DistributedKVCacheManager(
                tiny_arch, kv_core_ids=list(range(48)), blocks_per_core=256
            ),
            config=first.config,
        )
        result = second.run(make_trace(num_requests=6, prefill=40, decode=24))
        assert calls == []
        assert result.as_dict() == expected.as_dict()
        # A key no engine filled yet is computed once, on the cost model.
        fresh = max(first._interval_cache) + 64
        second.stage_interval(fresh)
        assert calls == [("stage_interval", fresh)]
        assert fresh in first._interval_cache


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
            engine._tally([seq], plan, plan.takes, *plan.takes.tolist(), [], False)


#: context quanta the tally is checked at: powers of two and not
TALLY_QUANTA = (64, 100, 256, 384)


@st.composite
def planned_epochs(draw, quantum=None):
    """An epoch's plan as ``_plan_epoch`` leaves it: every budget
    ``min(chunk, remaining)``, maybe scaled down at a split to at least one
    token, and split into its prefill and decode takes.  Remaining prompt and
    output may each be 0 (so prefill-only, decode-only, both and no takes
    occur), contexts start at 0, and some segments land on an exact rounding
    tie of ``quantum``: ``2·start + take − 1`` an odd multiple of it."""
    count = draw(st.integers(1, 24))
    chunk = draw(st.integers(1, 300))
    fraction = draw(st.one_of(st.none(), st.floats(0.001, 0.999)))
    remaining = st.one_of(st.just(0), st.integers(1, 400))
    columns: list[list[int]] = [[], [], [], [], []]
    for _ in range(count):
        prefill, decode = draw(remaining), draw(remaining)
        columns[0].append(prefill)
        columns[1].append(decode)
        columns[2].append(draw(st.one_of(st.just(0), st.integers(0, 6000))))
        columns[3].append(draw(st.sampled_from([0, 0, 3])))
        columns[4].append(prefill + draw(st.integers(1, 50)))
    rows = np.array(columns, dtype=np.int64)
    budget = np.minimum(chunk, rows[0] + rows[1])
    if fraction is not None:
        budget = np.where(
            budget > 0, np.maximum(1, np.floor(fraction * budget).astype(np.int64)), 0
        )
    plan = EpochPlan(budget=budget, takes=np.empty((2, count), np.int64), rows=rows)
    plan.derive_takes()
    if quantum is not None:
        for index, (prefill, decode) in enumerate(plan.takes.T.tolist()):
            # An odd take from `start` ties when 2·start = (2k + 1)·q − take + 1.
            segment = draw(st.sampled_from(["none", "prefill", "decode"]))
            take, before = (prefill, 0) if segment == "prefill" else (decode, prefill)
            if segment != "none" and take % 2 == 1:
                k = draw(st.integers(10, 40))
                plan.context[index] = ((2 * k + 1) * quantum - take + 1) // 2 - before
    return plan


def scalar_walk(engine, snapshot, plan, advanced):
    """What ``_advance_epoch_scalar`` accumulates for the advanced sequences'
    segments: per segment ``avg = start + (count − 1) / 2.0``, its key
    ``_quantize(avg)``, summed one segment at a time in snapshot order."""
    tokens, weighted, bins = 0, 0.0, {}
    prefill_segments, decoders, longest, first_decoders = [], 0, 0, []
    prefills, decodes = plan.takes.tolist()
    for index, sequence in enumerate(snapshot):
        if not advanced[index]:
            continue
        start = int(plan.context[index])
        for prefill, count in ((True, prefills[index]), (False, decodes[index])):
            if not count:
                continue
            avg = start + (count - 1) / 2.0
            tokens += count
            weighted += avg * count
            key = engine._quantize(avg)
            bins[key] = bins.get(key, 0) + count
            if prefill:
                prefill_segments.append((sequence, count))
                start += count
            else:
                decoders += 1
                longest = max(longest, count)
        if plan.generated[index] == 0 and decodes[index]:
            first_decoders.append(sequence)
    return (tokens, weighted, bins, PrefillSegments.of(prefill_segments), decoders,
            longest, first_decoders)


class TestTallyMatchesScalarWalk:
    """The fast tally against the scalar path's segment walk, field by field:
    bin keys, counts and first-touch order, the context-weighted sum, the
    decoders, the first decoders and the prefill arrays."""

    @staticmethod
    def _engine(engine_cls, arch, wafer_config, quantum):
        return engine_cls(
            arch,
            TokenCostModel(arch=arch, wafer_config=wafer_config),
            DistributedKVCacheManager(arch, kv_core_ids=list(range(16))),
            config=PipelineConfig(context_quantum=quantum),
        )

    @given(data=st.data())
    # the fixtures are read-only here: sharing them across examples is safe
    @settings(
        max_examples=120, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @pytest.mark.parametrize(
        "engine_cls", [TokenGrainedPipeline, SequenceGrainedPipeline]
    )
    def test_tally_matches_scalar_walk(
        self, engine_cls, tiny_arch, small_wafer_config, data
    ):
        quantum = data.draw(st.sampled_from(TALLY_QUANTA))
        plan = data.draw(planned_epochs(quantum))
        count = len(plan.budget)
        # A disturbed epoch: some sequences did not advance, and some that
        # did were evicted afterwards (their prompt starts over).
        disturbed = data.draw(st.booleans())
        states = (
            data.draw(st.lists(
                st.sampled_from(["advanced", "skipped", "evicted"]),
                min_size=count, max_size=count,
            ))
            if disturbed else ["advanced"] * count
        )
        advanced = (plan.budget > 0) & np.array([s != "skipped" for s in states])
        takes = plan.takes * advanced
        snapshot = []
        for index, state in enumerate(states):
            prompt = int(plan.prefill_length[index])
            sequence = Sequence(Request(
                request_id=index, prefill_length=prompt,
                decode_length=int(plan.remaining_decode[index]) + 1,
            ))
            remaining = {
                "advanced": int(plan.remaining_prefill[index] - takes[0][index]),
                "skipped": int(plan.remaining_prefill[index]),
                "evicted": prompt,
            }[state]
            sequence.prefill_progress = prompt - remaining
            snapshot.append(sequence)
        engine = self._engine(engine_cls, tiny_arch, small_wafer_config, quantum)
        tally = engine._tally(
            snapshot, plan, takes, *takes.tolist(), [], disturbed
        )
        (tokens, weighted, bins, segments, decoders, longest,
         first_decoders) = scalar_walk(engine, snapshot, plan, advanced)
        assert tally.tokens == tokens
        if not tokens:
            return
        assert tally.context_weighted.hex() == weighted.hex()
        assert list(tally.energy_bins.items()) == list(bins.items())
        assert tally.decode_sequences == decoders
        assert tally.max_decode_chunk == longest
        assert [id(s) for s in tally.first_decoders] == [id(s) for s in first_decoders]
        ours = tally.prefill_segments
        if len(ours.takes) != len(segments.takes):
            # Every sequence's row: the prefilling ones must be the walk's,
            # and every other one adds no prompt in flight.
            assert engine.full_prefill_rows and not disturbed
            prefilling = ours.takes > 0
            assert not ours.remaining[~prefilling].any()
            ours = PrefillSegments(*(array[prefilling] for array in ours))
        for array, expected in zip(ours, segments):
            assert array.tolist() == expected.tolist()


class TestTokenGrainedFullRows:
    """TGP reads the plan's rows of every sequence, not just the prefilling
    ones; its in-flight sum, and so every duration, stays the masked one."""

    @given(plan=planned_epochs())
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_full_rows_match_masked_segments(
        self, tiny_arch, small_wafer_config, plan
    ):
        engine = make_engine(tiny_arch, small_wafer_config)
        prefill, decode = plan.takes
        prefilling = prefill > 0
        decoders = int(np.count_nonzero(decode))
        # as planned (remaining before the epoch), and at close (after it)
        for remaining in (plan.remaining_prefill, plan.remaining_prefill - prefill):
            full = PrefillSegments(prefill, remaining, plan.prefill_length)
            masked = PrefillSegments(
                prefill[prefilling], remaining[prefilling],
                plan.prefill_length[prefilling],
            )
            assert (
                engine.planned_utilization(full, decoders)
                == engine.planned_utilization(masked, decoders)
            )
        if not plan.budget.any():
            return
        planned = engine._planned_duration(plan)
        engine.full_prefill_rows = False
        assert planned.hex() == engine._planned_duration(plan).hex()


class TestEventMask:
    @given(state=epoch_states())
    @settings(max_examples=150, deadline=None)
    def test_events_are_phase_ends_and_completions(self, state):
        """Any budget up to what remains: the events are today's union of
        the completing sequences and the ones whose prompt ends."""
        rows, budget, _ = state
        plan = EpochPlan(budget=budget, takes=np.empty((2, len(budget)), np.int64),
                         rows=rows)
        plan.derive_takes()
        prefill = plan.takes[0]
        completing = (budget > 0) & (
            budget == plan.remaining_prefill + plan.remaining_decode
        )
        phase_end = (prefill > 0) & (prefill == plan.remaining_prefill)
        assert plan.events().tolist() == (completing | phase_end).tolist()


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
