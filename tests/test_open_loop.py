"""Open-loop (arrival-time-driven) serving: clock skipping, timestamps, latency.

The companion equivalence suite (:mod:`tests.test_engine_equivalence`) pins
the fast and scalar paths to each other; this file pins the *semantics*: the
clock jumps across idle gaps to the next arrival, completion and first-token
timestamps land at the end of the epoch that produced them, and the TTFT /
end-to-end latency distributions on :class:`RunResult` are built from them.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.workload.distributions import FixedLengthDistribution
from repro.workload.generator import WorkloadSpec
from repro.workload.streams import stream_from_spec

from .conftest import make_trace
from .test_engine_equivalence import build_engine
from repro.pipeline.tgp import TokenGrainedPipeline


def arrival_trace(arrivals, prefill=48, decode=16):
    """Fixed-length trace with explicit arrival times."""
    spec = WorkloadSpec(
        name="explicit-arrivals",
        distribution=FixedLengthDistribution(prefill_length=prefill, decode_length=decode),
        num_requests=len(arrivals),
        seed=0,
    )
    trace = stream_from_spec(spec).materialize()
    trace.requests = [
        type(request)(
            request_id=request.request_id,
            prefill_length=request.prefill_length,
            decode_length=request.decode_length,
            arrival_time=arrival,
        )
        for request, arrival in zip(trace.requests, arrivals)
    ]
    return trace


class TestIdleGapSkipping:
    @pytest.mark.parametrize("runner", ["run", "run_scalar"])
    def test_clock_jumps_to_next_arrival(self, runner, tiny_arch, small_wafer_config):
        """A long gap between arrivals must not stall or inflate epoch count."""
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        result = getattr(engine, runner)(arrival_trace([0.0, 100.0]))
        assert result.output_tokens == 2 * 16
        # The wall clock covers the gap, but no epochs were burned idling.
        assert result.total_time_s > 100.0
        assert result.extra["epochs"] < 20

    def test_late_sequence_admitted_at_its_arrival(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        engine.run(arrival_trace([0.0, 100.0]))
        late = engine.scheduler.completed[-1]
        assert late.request.arrival_time == 100.0
        assert late.admission_time >= 100.0
        assert late.completion_time > late.admission_time

    def test_capacity_stall_still_raises(self, tiny_arch, small_wafer_config):
        """A request that has arrived but cannot fit even alone is a real stall."""
        engine = build_engine(
            TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic",
            blocks_per_core=1, kv_cores=2, chunk=64,
        )
        with pytest.raises(SimulationError, match="cannot hold even a single"):
            engine.run(arrival_trace([5.0], prefill=5000, decode=4))

    def test_malformed_next_arrival_raises_typed_error(self, tiny_arch, small_wafer_config):
        """Regression: a scheduler reporting waiting work but no next arrival
        used to assign None into the clock; it must raise SimulationError."""
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        engine.scheduler.submit_all(arrival_trace([5.0]).requests)
        engine.scheduler.next_arrival_time = lambda: None
        with pytest.raises(SimulationError, match="no next arrival"):
            engine._admit_or_skip_idle(0.0)


class TestEpochGuards:
    def test_empty_epoch_close_raises_typed_error(self, tiny_arch, small_wafer_config):
        """Regression: _close_epoch divided by epoch_tokens unguarded, so an
        engine-invariant violation surfaced as a bare ZeroDivisionError."""
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        with pytest.raises(SimulationError, match="no tokens"):
            engine._close_epoch(0, 0.0, {}, [], 0, 0)


class TestSubEpochSplitting:
    """Epochs split at arrival boundaries instead of quantising admission."""

    def test_mid_epoch_arrival_splits_the_epoch(self, tiny_arch, small_wafer_config):
        # One long-prefill request keeps the wafer busy; measure its epoch
        # cadence, then land a second arrival far inside one of the epochs.
        probe = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        probe.run(arrival_trace([0.0], prefill=2000, decode=32))
        full_epoch = max(record.duration_s for record in probe.epochs)
        arrival = 2.5 * full_epoch

        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        result = engine.run(arrival_trace([0.0, arrival], prefill=2000, decode=32))
        assert result.extra["split_epochs"] >= 1
        late = next(
            s for s in engine.scheduler.completed if s.request.arrival_time == arrival
        )
        # Admission happens at the epoch boundary the split created: within a
        # couple of tokens of the arrival, not a whole chunk later.
        delay = late.admission_time - arrival
        assert 0.0 <= delay < full_epoch / 4

    def test_batch_trace_never_splits(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        result = engine.run(make_trace(num_requests=6, prefill=48, decode=16))
        assert result.extra["split_epochs"] == 0

    @pytest.mark.parametrize("runner", ["run", "run_scalar"])
    def test_progress_is_guaranteed_under_tiny_gaps(self, runner, tiny_arch, small_wafer_config):
        """Arrivals packed tighter than a single token's service time must not
        livelock the planner (every split epoch advances at least one token)."""
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        arrivals = [0.0] + [1e-12 * (i + 1) for i in range(5)]
        result = getattr(engine, runner)(arrival_trace(arrivals))
        assert result.output_tokens == len(arrivals) * 16
        assert len(engine.scheduler.completed) == len(arrivals)


class TestEpochEndTimestamps:
    def test_completion_is_stamped_at_epoch_end(self, tiny_arch, small_wafer_config):
        """Regression: completion used to carry the epoch-*start* clock, so a
        trace finishing in its first epoch reported completion_time == 0."""
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        engine.run(make_trace(num_requests=1, prefill=16, decode=8))
        sequence = engine.scheduler.completed[0]
        total_epoch_time = sum(record.duration_s for record in engine.epochs)
        assert sequence.completion_time == pytest.approx(total_epoch_time)
        assert sequence.completion_time > 0.0

    def test_first_token_before_completion(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        engine.run(make_trace(num_requests=4, prefill=48, decode=16))
        for sequence in engine.scheduler.completed:
            assert sequence.first_token_time is not None
            assert 0.0 < sequence.first_token_time <= sequence.completion_time
            assert sequence.ttft_s <= sequence.latency_s

    def test_prefill_only_sequences_have_no_first_token(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        result = engine.run(make_trace(num_requests=2, prefill=16, decode=0))
        for sequence in engine.scheduler.completed:
            assert sequence.first_token_time is None
            assert sequence.ttft_s is None
        assert result.ttft.count == 0
        assert result.latency.count == 2


class TestLatencyMetrics:
    def test_batch_trace_populates_latency_stats(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        result = engine.run(make_trace(num_requests=8, prefill=48, decode=16))
        assert result.latency.count == 8
        assert result.ttft.count == 8
        assert 0 < result.ttft.p50_s <= result.ttft.p95_s <= result.ttft.p99_s
        assert result.latency.p99_s <= result.latency.max_s
        assert result.ttft.mean_s <= result.latency.mean_s

    def test_latency_measured_from_arrival(self, tiny_arch, small_wafer_config):
        """The same service seen by a later-arriving request yields the same
        arrival-relative latency, not a larger absolute completion time."""
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        engine.run(arrival_trace([0.0, 1000.0]))
        first, second = engine.scheduler.completed
        assert second.completion_time > 1000.0
        assert second.latency_s == pytest.approx(first.latency_s, rel=0.5)
        assert second.latency_s < 100.0

    def test_queueing_increases_latency(self, tiny_arch, small_wafer_config):
        """With a single admission slot, later arrivals wait in queue and the
        tail of the latency distribution grows beyond TTFT of the head."""
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        engine.scheduler.max_active_sequences = 1
        result = engine.run(arrival_trace([0.0, 0.0, 0.0, 0.0]))
        assert result.latency.max_s > result.latency.p50_s
