"""Tests for length distributions, trace generation and sequence state."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.workload.distributions import (
    FixedLengthDistribution,
    UniformLengthDistribution,
    WikiTextLikeDistribution,
    get_distribution,
)
from repro.workload.generator import WorkloadSpec, generate_trace, make_workload
from repro.workload.streams import stream_from_spec
from repro.workload.requests import Request, Sequence, SequencePhase


class TestDistributions:
    def test_fixed_distribution(self):
        dist = FixedLengthDistribution(prefill_length=128, decode_length=2048)
        sample = dist.sample(np.random.default_rng(0))
        assert sample.prefill_length == 128
        assert sample.decode_length == 2048

    def test_fixed_distribution_validation(self):
        with pytest.raises(ConfigurationError):
            FixedLengthDistribution(prefill_length=0, decode_length=1)

    def test_wikitext_like_statistics(self):
        dist = WikiTextLikeDistribution()
        samples = dist.sample_many(2000, seed=1)
        prefills = [s.prefill_length for s in samples]
        assert all(dist.min_length <= p <= dist.max_length for p in prefills)
        median = float(np.median(prefills))
        assert 200 < median < 700
        # Heavy tail: the max should be several times the median.
        assert max(prefills) > 3 * median

    def test_wikitext_variance_exceeds_fixed(self):
        wiki = WikiTextLikeDistribution().sample_many(500, seed=0)
        fixed = FixedLengthDistribution(512, 512).sample_many(500, seed=0)
        assert np.std([s.prefill_length for s in wiki]) > np.std(
            [s.prefill_length for s in fixed]
        )

    def test_uniform_distribution_bounds(self):
        dist = UniformLengthDistribution(prefill_low=10, prefill_high=20, decode_low=1, decode_high=5)
        for sample in dist.sample_many(100, seed=0):
            assert 10 <= sample.prefill_length <= 20
            assert 1 <= sample.decode_length <= 5

    def test_named_lookup(self):
        assert get_distribution("lp128_ld2048").prefill_length == 128
        with pytest.raises(ConfigurationError):
            get_distribution("nonexistent")


class TestTraceGeneration:
    def test_trace_size(self):
        trace = generate_trace("lp2048_ld128", num_requests=10)
        assert len(trace) == 10
        assert trace.total_prefill_tokens == 10 * 2048
        assert trace.total_decode_tokens == 10 * 128

    def test_trace_deterministic_per_seed(self):
        a = generate_trace("wikitext2", num_requests=20, seed=5)
        b = generate_trace("wikitext2", num_requests=20, seed=5)
        assert [r.prefill_length for r in a] == [r.prefill_length for r in b]

    def test_trace_differs_across_seeds(self):
        a = generate_trace("wikitext2", num_requests=20, seed=1)
        b = generate_trace("wikitext2", num_requests=20, seed=2)
        assert [r.prefill_length for r in a] != [r.prefill_length for r in b]

    def test_request_ids_unique(self):
        trace = generate_trace("wikitext2", num_requests=50)
        ids = [r.request_id for r in trace]
        assert len(set(ids)) == 50

    def test_arrival_times_monotone(self):
        spec = WorkloadSpec(
            name="poisson",
            distribution=FixedLengthDistribution(64, 64),
            num_requests=20,
            arrival_rate_per_s=100.0,
        )
        trace = stream_from_spec(spec).materialize()
        arrivals = [r.arrival_time for r in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0

    def test_generate_trace_passes_arrival_rate(self):
        batch = generate_trace("lp128_ld2048", num_requests=10)
        open_loop = generate_trace("lp128_ld2048", num_requests=10, arrival_rate_per_s=50.0)
        assert all(r.arrival_time == 0.0 for r in batch)
        arrivals = [r.arrival_time for r in open_loop]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0
        assert open_loop.spec.arrival_rate_per_s == 50.0

    def test_arrival_rate_does_not_change_the_request_mix(self):
        """Arrivals come from an independent RNG stream: the open-loop trace
        must carry exactly the lengths of the batch trace it is compared to,
        even for distributions that consume the RNG per sample."""
        batch = generate_trace("wikitext2", num_requests=50, seed=3)
        open_loop = generate_trace("wikitext2", num_requests=50, seed=3, arrival_rate_per_s=40.0)
        assert [r.prefill_length for r in batch] == [r.prefill_length for r in open_loop]
        assert [r.decode_length for r in batch] == [r.decode_length for r in open_loop]

    def test_make_workload_passes_arrival_rate(self):
        spec = make_workload("wikitext2", num_requests=10, arrival_rate_per_s=8.0)
        assert spec.arrival_rate_per_s == 8.0

    def test_summary(self):
        trace = generate_trace("lp128_ld2048", num_requests=5)
        summary = trace.summary()
        assert summary["num_requests"] == 5
        assert summary["mean_prefill"] == 128

    def test_invalid_request_count(self):
        with pytest.raises(ConfigurationError):
            make_workload("wikitext2", num_requests=0)


class TestRequestValidation:
    def test_negative_decode_rejected(self):
        with pytest.raises(SchedulingError):
            Request(request_id=0, prefill_length=10, decode_length=-1)

    def test_zero_prefill_rejected(self):
        with pytest.raises(SchedulingError):
            Request(request_id=0, prefill_length=0, decode_length=1)

    def test_totals(self):
        request = Request(request_id=0, prefill_length=10, decode_length=5)
        assert request.total_tokens == 15
        assert request.final_context_length == 15


class TestSequenceLifecycle:
    def make(self, prefill=4, decode=3) -> Sequence:
        return Sequence(Request(request_id=1, prefill_length=prefill, decode_length=decode))

    def test_start_from_waiting(self):
        seq = self.make()
        seq.start(time=1.0)
        assert seq.phase is SequencePhase.PREFILL
        assert seq.admission_time == 1.0

    def test_cannot_start_twice(self):
        seq = self.make()
        seq.start()
        with pytest.raises(SchedulingError):
            seq.start()

    def test_advance_through_phases(self):
        seq = self.make(prefill=2, decode=2)
        seq.start()
        segments = [seq.advance_tokens(1) for _ in range(4)]
        assert segments == [
            [(SequencePhase.PREFILL, 1, 0)],
            [(SequencePhase.PREFILL, 1, 1)],
            [(SequencePhase.DECODE, 1, 2)],
            [(SequencePhase.DECODE, 1, 3)],
        ]
        assert seq.is_complete

    def test_advance_after_complete_rejected(self):
        seq = self.make(prefill=1, decode=0)
        seq.start()
        seq.apply_advance(1, 0)
        assert seq.is_complete
        with pytest.raises(SchedulingError):
            seq.apply_advance(0, 1)

    def test_bulk_advance_spans_phases(self):
        seq = self.make(prefill=4, decode=3)
        seq.start()
        segments = seq.advance_tokens(6)
        assert segments[0][0] is SequencePhase.PREFILL
        assert segments[0][1] == 4
        assert segments[1][0] is SequencePhase.DECODE
        assert segments[1][1] == 2
        assert seq.remaining_decode == 1

    def test_bulk_advance_respects_budget(self):
        seq = self.make(prefill=10, decode=10)
        seq.start()
        segments = seq.advance_tokens(3)
        assert sum(count for _, count, _ in segments) == 3
        assert seq.prefill_progress == 3

    def test_context_length_tracks_progress(self):
        seq = self.make(prefill=3, decode=2)
        seq.start()
        seq.advance_tokens(4)
        assert seq.context_length == 4

    def test_eviction_requires_recompute_but_not_regeneration(self):
        seq = self.make(prefill=4, decode=4)
        seq.start()
        seq.advance_tokens(6)  # 4 prefill + 2 decode
        discarded = seq.evict()
        assert discarded == 6
        assert seq.phase is SequencePhase.EVICTED
        assert seq.generated_tokens == 2
        # Re-admission: re-prefill prompt + 2 generated tokens, then decode 2 more.
        assert seq.remaining_prefill == 6
        assert seq.remaining_decode == 2
        seq.start()
        seq.advance_tokens(8)
        assert seq.is_complete
        assert seq.recomputed_tokens == 6

    def test_evict_from_waiting_rejected(self):
        seq = self.make()
        with pytest.raises(SchedulingError):
            seq.evict()

    def test_double_eviction_accumulates(self):
        seq = self.make(prefill=4, decode=4)
        seq.start()
        seq.advance_tokens(5)
        seq.evict()
        seq.start()
        seq.advance_tokens(2)
        seq.evict()
        assert seq.eviction_count == 2
        assert seq.recomputed_tokens == 7
