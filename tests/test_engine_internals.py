"""Tests for pipeline-engine internals: caching, budgets, livelock handling."""

import math
from itertools import compress

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.kvcache.manager import DistributedKVCacheManager
from repro.pipeline.engine import (
    EpochPlan,
    PipelineConfig,
    PlanRows,
    PrefillSegments,
    _doubled_count,
    _halved,
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


#: split fractions: anywhere strictly between 0 and 1
FRACTIONS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def epoch_states(draw):
    """One epoch's takes over drawn rows, plus which sequences advanced.

    Each budget is drawn on its own anywhere up to what remains, so takes
    occur that no plan derives (a zero budget with tokens left, say); the
    context sums accept any takes.  Prompt tokens go first:
    ``p = min(b, rp)``, ``d = b − p``."""
    count = draw(st.integers(1, 48))
    column = st.lists(st.integers(0, 4096), min_size=count, max_size=count)
    remaining_prefill, remaining_decode = draw(column), draw(column)
    context = draw(st.lists(st.integers(0, 2**30), min_size=count, max_size=count))
    budgets = [
        draw(st.integers(0, prefill + decode))
        for prefill, decode in zip(remaining_prefill, remaining_decode)
    ]
    prefill_takes = list(map(min, budgets, remaining_prefill))
    decode_takes = [budget - take for budget, take in zip(budgets, prefill_takes)]
    rows = PlanRows(
        remaining_prefill, remaining_decode, context, [0] * count, [1] * count
    )
    plan = EpochPlan(budgets, prefill_takes, decode_takes, [], rows)
    advanced = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    return plan, advanced


@st.composite
def derived_plans(draw):
    """One epoch's plan as the planner leaves it -- every budget
    ``min(chunk, remaining)``, maybe truncated at a split -- over drawn rows."""
    count = draw(st.integers(1, 48))
    column = st.lists(st.integers(0, 4096), min_size=count, max_size=count)
    rows = PlanRows(draw(column), draw(column), [0] * count, [0] * count, [1] * count)
    plan = EpochPlan.derive(rows, draw(st.integers(1, 8192)))
    fraction = draw(st.one_of(st.none(), FRACTIONS))
    if fraction is not None and any(plan.budgets):
        plan = plan.truncated(fraction)
    return plan


def historical_sums(context, takes):
    """The float context-weighted sums the engine used before its exact form.

    Every segment contributes ``(start + (take − 1) / 2)·take``; the planned
    duration added the two per-row pairwise sums, the tally took a
    sequential ``cumsum`` over the segments interleaved per sequence.
    """
    takes = np.array(takes, dtype=np.int64)
    start = np.empty_like(takes)
    start[0] = context
    start[1] = start[0] + takes[0]
    terms = (start + (takes - 1) / 2.0) * takes
    prefill, decode = np.add.reduce(terms, axis=1)
    return float(prefill + decode), float(np.cumsum(terms.T)[-1])


def placeholders(count):
    """Sequences for a tally whose rows come from its plan alone."""
    return [
        Sequence(Request(request_id=index, prefill_length=1, decode_length=1))
        for index in range(count)
    ]


class TestExactContextSums:
    """The integer context-weighted sums -- the plan's over every planned
    take, the tally's over the takes of the sequences that advanced --
    equal the historical float sums."""

    @pytest.fixture
    def engine(self, tiny_arch, small_wafer_config):
        return make_engine(tiny_arch, small_wafer_config)

    @given(state=epoch_states())
    # `_tally` leaves the engine as it was: sharing it across examples is safe
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_integer_sum_matches_float_forms_bitwise(self, engine, state):
        plan, advanced = state
        rows = plan.rows
        planned = (plan.prefill_takes, plan.decode_takes)
        moved = tuple(
            [take if live else 0 for take, live in zip(row, advanced)]
            for row in planned
        )
        tally, _ = engine._tally(
            placeholders(len(advanced)), plan, *moved, [], [], True
        )
        # The planned duration sums every planned take, the tally the takes
        # of the sequences that advanced.  Both callers return before
        # summing an epoch without tokens.
        for takes, value in (
            (planned, _halved(_doubled_count(plan.budgets, rows.context))),
            (moved, tally.context_weighted),
        ):
            if any(takes[0]) or any(takes[1]):
                for historical in historical_sums(rows.context, takes):
                    assert value.hex() == historical.hex()

    def test_exactness_bound(self):
        # Σ b·(2c + b − 1) = 1·(2·(2**52 − 1) + 0) = 2**53 − 2: just inside.
        assert _halved(_doubled_count([1], [2**52 - 1])) == 2**52 - 1
        with pytest.raises(SimulationError, match="exactly"):
            _halved(_doubled_count([1], [2**52]))  # doubled sum 2**53

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
            engine._tally(
                [seq], plan, plan.prefill_takes, plan.decode_takes, [], [], False
            )


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
    rows = PlanRows([], [], [], [], [])
    for _ in range(count):
        prefill, decode = draw(remaining), draw(remaining)
        rows.remaining_prefill.append(prefill)
        rows.remaining_decode.append(decode)
        rows.context.append(draw(st.one_of(st.just(0), st.integers(0, 6000))))
        rows.generated.append(draw(st.sampled_from([0, 0, 3])))
        rows.prefill_length.append(prefill + draw(st.integers(1, 50)))
    plan = EpochPlan.derive(rows, chunk)
    if fraction is not None and any(plan.budgets):
        plan = plan.truncated(fraction)
    if quantum is not None:
        for index, (prefill, decode) in enumerate(
            zip(plan.prefill_takes, plan.decode_takes)
        ):
            # An odd take from `start` ties when 2·start = (2k + 1)·q − take + 1.
            segment = draw(st.sampled_from(["none", "prefill", "decode"]))
            take, before = (prefill, 0) if segment == "prefill" else (decode, prefill)
            if segment != "none" and take % 2 == 1:
                k = draw(st.integers(10, 40))
                rows.context[index] = ((2 * k + 1) * quantum - take + 1) // 2 - before
    return plan


def scalar_walk(engine, snapshot, plan, advanced):
    """What ``_advance_epoch_scalar`` accumulates for the advanced sequences'
    segments: per segment ``avg = start + (count − 1) / 2.0``, its key
    ``_quantize(avg)``, summed one segment at a time in snapshot order."""
    tokens, weighted, bins = 0, 0.0, {}
    prefill_segments, decoders, longest, first_decoders = [], 0, 0, []
    prefills, decodes = plan.prefill_takes, plan.decode_takes
    for index, sequence in enumerate(snapshot):
        if not advanced[index]:
            continue
        start = plan.rows.context[index]
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
        if plan.rows.generated[index] == 0 and decodes[index]:
            first_decoders.append(sequence)
    return (tokens, weighted, bins, PrefillSegments.of(prefill_segments), decoders,
            longest, first_decoders)


class TestTallyMatchesScalarWalk:
    """The fast tally against the scalar path's segment walk, field by field:
    bin keys, counts and first-touch order, the context-weighted sum, the
    decoders, the first decoders and the prefill lists -- plus the rows it
    carries into the next epoch."""

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
        rows = plan.rows
        count = len(plan.budgets)
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
        advanced = [
            budget > 0 and state != "skipped"
            for budget, state in zip(plan.budgets, states)
        ]
        prefill_takes, decode_takes = (
            [take if live else 0 for take, live in zip(row, advanced)]
            for row in (plan.prefill_takes, plan.decode_takes)
        )
        # Sequences whose takes cover all they had left may complete, in any
        # position: the carried rows drop them, the prefill segments do not.
        completing = [
            index for index, (budget, prefill, decode) in enumerate(
                zip(plan.budgets, rows.remaining_prefill, rows.remaining_decode)
            )
            if budget and budget == prefill + decode
        ]
        completed = sorted(data.draw(
            st.lists(st.sampled_from(completing), unique=True)
            if completing and not disturbed else st.just([])
        ))
        snapshot = []
        for index, state in enumerate(states):
            prompt = rows.prefill_length[index]
            sequence = Sequence(Request(
                request_id=index, prefill_length=prompt,
                decode_length=rows.remaining_decode[index] + 1,
            ))
            remaining = {
                "advanced": rows.remaining_prefill[index] - prefill_takes[index],
                "skipped": rows.remaining_prefill[index],
                "evicted": prompt,
            }[state]
            sequence.prefill_progress = prompt - remaining
            snapshot.append(sequence)
        engine = self._engine(engine_cls, tiny_arch, small_wafer_config, quantum)
        tally, carried = engine._tally(
            snapshot, plan, prefill_takes, decode_takes, [], completed, disturbed
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
            prefilling = [take > 0 for take in ours.takes]
            assert not any(
                remaining for remaining, live in zip(ours.remaining, prefilling)
                if not live
            )
            ours = PrefillSegments(*(list(compress(row, prefilling)) for row in ours))
        assert list(ours) == list(segments)
        if disturbed:
            assert carried is None
            return
        advanced_rows = [
            [left - take for left, take in zip(rows.remaining_prefill, prefill_takes)],
            [left - take for left, take in zip(rows.remaining_decode, decode_takes)],
            [start + budget for start, budget in zip(rows.context, plan.budgets)],
            [done + take for done, take in zip(rows.generated, decode_takes)],
            rows.prefill_length,
        ]
        assert list(carried) == [
            [value for index, value in enumerate(row) if index not in completed]
            for row in advanced_rows
        ]


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
        rows = plan.rows
        prefill = plan.prefill_takes
        decoders = len(plan.decode_takes) - plan.decode_takes.count(0)
        # as planned (remaining before the epoch), and at close (after it)
        after = [left - take for left, take in zip(rows.remaining_prefill, prefill)]
        for remaining in (rows.remaining_prefill, after):
            full = PrefillSegments(prefill, remaining, rows.prefill_length)
            masked = PrefillSegments(
                [take for take in prefill if take],
                [left for take, left in zip(prefill, remaining) if take],
                [length for take, length in zip(prefill, rows.prefill_length) if take],
            )
            assert (
                engine.planned_utilization(full, decoders)
                == engine.planned_utilization(masked, decoders)
            )
        if not any(plan.budgets):
            return
        planned = engine._planned_duration(plan)
        engine.full_prefill_rows = False
        assert planned.hex() == engine._planned_duration(plan).hex()


class TestEventMask:
    @given(plan=derived_plans())
    @settings(max_examples=150, deadline=None)
    def test_events_are_phase_ends_and_completions(self, plan):
        """Full or truncated budgets: the events are the union of the
        completing sequences and the ones whose prompt ends."""
        rows = plan.rows
        assert plan.events == [
            index
            for index, (budget, prefill, remaining_prefill, remaining_decode)
            in enumerate(zip(
                plan.budgets, plan.prefill_takes, rows.remaining_prefill,
                rows.remaining_decode,
            ))
            if (budget > 0 and budget == remaining_prefill + remaining_decode)
            or (prefill > 0 and prefill == remaining_prefill)
        ]


@st.composite
def active_sequences(draw):
    """Sequences in states a run leaves active: mid-prompt, re-prefilling
    after an eviction, or decoding; every one has a token left."""
    sequences = []
    for request_id in range(draw(st.integers(1, 40))):
        prompt, output = draw(st.integers(1, 600)), draw(st.integers(0, 600))
        sequence = Sequence(Request(
            request_id=request_id, prefill_length=prompt, decode_length=output
        ))
        sequence.start()
        if output > 1 and draw(st.booleans()):
            sequence.advance_tokens(prompt + draw(st.integers(1, output - 1)))
            sequence.evict()
            sequence.start()
        sequence.advance_tokens(draw(st.integers(0, sequence.remaining_tokens - 1)))
        sequences.append(sequence)
    return sequences


def fractions_near(largest):
    """Split fractions in (0, 1): any, and within one ulp of ``k / largest``
    for small k (at k = 1 the largest budget truncates to about one token)."""
    near = st.builds(
        lambda k, step: [
            math.nextafter(k / largest, 0.0), k / largest,
            math.nextafter(k / largest, 1.0),
        ][step],
        st.integers(1, 3), st.integers(0, 2),
    )
    return st.one_of(near, FRACTIONS).filter(lambda f: 0.0 < f < 1.0)


class TestPlanProperties:
    """The one-pass plan against the per-sequence rule it implements."""

    @given(sequences=active_sequences(), chunk=st.integers(1, 300))
    # the fixtures are read-only here: sharing them across examples is safe
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_plan_is_the_per_sequence_rule(
        self, tiny_arch, small_wafer_config, sequences, chunk
    ):
        engine = make_engine(tiny_arch, small_wafer_config, chunk=chunk)
        plan = engine._plan_epoch(sequences, 0.0)  # nothing waits: no split
        assert not plan.split
        budgets, prefills, decodes, events = [], [], [], []
        for index, s in enumerate(sequences):
            budget = min(s.remaining_prefill + s.remaining_decode, chunk)
            prefill = min(budget, s.remaining_prefill)
            decode = budget - prefill
            assert decode <= s.remaining_decode
            budgets.append(budget)
            prefills.append(prefill)
            decodes.append(decode)
            if (prefill and prefill == s.remaining_prefill) or (
                budget == s.remaining_tokens
            ):
                events.append(index)
        assert (plan.budgets, plan.prefill_takes, plan.decode_takes) == (
            budgets, prefills, decodes
        )
        assert plan.events == events
        assert list(plan.rows) == [
            [s.remaining_prefill for s in sequences],
            [s.remaining_decode for s in sequences],
            [s.context_length for s in sequences],
            [s.generated_tokens for s in sequences],
            [s.request.prefill_length for s in sequences],
        ]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_split_floors_at_one_token(self, data):
        """A split budget is ``max(int(f·b), 1)``, also where every budget
        truncates below one token, and the takes, events and doubled count
        follow the per-sequence rule of the scaled budgets."""
        count = data.draw(st.integers(1, 40))
        chunk = data.draw(st.integers(1, 300))
        column = st.lists(
            st.one_of(st.just(0), st.integers(1, 400)), min_size=count, max_size=count
        )
        prefills, decodes = data.draw(column), data.draw(column)
        # Every sequence keeps a token left, but now and then one has none
        # (and so no budget), which a split must leave at no tokens.
        decodes = [
            decode or int(not prefill) for prefill, decode in zip(prefills, decodes)
        ]
        if data.draw(st.integers(0, 3)) == 0:
            empty = data.draw(st.integers(0, count - 1))
            prefills[empty] = decodes[empty] = 0
        rows = PlanRows(
            prefills, decodes,
            data.draw(st.lists(st.integers(0, 6000), min_size=count, max_size=count)),
            [0] * count, [prefill + 1 for prefill in prefills],
        )
        plan = EpochPlan.derive(rows, chunk)
        assume(any(plan.budgets))
        fraction = data.draw(fractions_near(max(plan.budgets)))
        split = plan.truncated(fraction)
        assert split.split and split.rows is rows
        assert split.budgets == [
            max(int(fraction * budget), 1) if budget else 0 for budget in plan.budgets
        ]
        events = []
        for index, (budget, prefill, decode, remaining_prefill, remaining_decode) in (
            enumerate(zip(
                split.budgets, split.prefill_takes, split.decode_takes,
                rows.remaining_prefill, rows.remaining_decode,
            ))
        ):
            assert prefill == min(budget, remaining_prefill)
            assert decode == budget - prefill <= remaining_decode
            if (prefill and prefill == remaining_prefill) or (
                budget and budget == remaining_prefill + remaining_decode
            ):
                events.append(index)
        assert split.events == events
        assert _doubled_count(split.budgets, rows.context) == sum(
            budget * (2 * start + budget - 1)
            for budget, start in zip(split.budgets, rows.context)
        )

    @given(
        quantum=st.integers(1, 4096),
        k=st.integers(0, 2**40),
        offset=st.integers(-4096, 4096),
    )
    @settings(max_examples=300, deadline=None)
    def test_bin_key_rounds_like_rint(self, quantum, k, offset):
        """``round(s / 2q)``, the tally's bin index of a doubled start ``s``,
        is ``np.rint`` of the same quotient: half to even on every tie
        ``s ≡ q (mod 2q)``, and nearest elsewhere."""
        width = 2 * quantum
        tie = (2 * k + 1) * quantum
        assert round(tie / width) == k + (k % 2)
        for doubled in (tie, max(0, tie + offset)):
            assert round(doubled / width) == int(
                np.rint(np.array([doubled], dtype=np.int64) / width)[0]
            )


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
