"""Lazy request streams: bitwise equivalence with the retired eager generators.

The load-bearing claims pinned here:

* :func:`multi_tenant_stream` / :func:`stream_from_spec` emit *bitwise* the
  requests the retired eager generators produced (inlined below as oracles)
  — same ids, lengths, arrival times, tenant fields — including under heavy
  arrival-time collisions, where the heap tie-break must reproduce the
  eager ``sort`` order exactly;
* the engine's two intakes agree: a :class:`StreamingTrace` pulled through
  ``attach_stream`` serves bit-for-bit like its materialised list submitted
  up front, across scheduling policies, open-loop arrivals, evictions,
  shedding, and both the fast and scalar engine paths;
* suspend/resume captures the stream cursor and the accumulator state, so a
  streaming run survives a JSON checkpoint round trip bit for bit, and a
  checkpoint of a materialised run still resumes through ``serve``;
* resident memory really is O(active sequences): the tracemalloc peak of a
  4x longer streaming run stays within a constant factor (slow test).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import DeploymentSpec, build_deployment, serve, stream_for, trace_for
from repro.errors import ConfigurationError
from repro.pipeline.checkpoint import EngineCheckpoint
from repro.pipeline.tgp import TokenGrainedPipeline
from repro.workload.distributions import FixedLengthDistribution, get_distribution
from repro.workload.generator import TenantSpec, Trace, WorkloadSpec
from repro.workload.requests import Request, SLOTarget
from repro.workload.streams import (
    StreamingTrace,
    multi_tenant_stream,
    stream_from_spec,
    workload_stream,
)

from .test_engine_equivalence import build_engine


def with_pipeline(spec, **overrides):
    """A spec with pipeline-config fields overridden (policy, shedding...)."""
    from dataclasses import replace

    pipeline = replace(spec.config.pipeline, **overrides)
    return replace(spec, config=replace(spec.config, pipeline=pipeline))


def materialised_oracle(tenants, seed=0):
    """The retired eager multi-tenant generator, inlined as the reference.

    Every trace is now drawn by the stream (``trace_for`` drains it), so the
    stream cannot serve as its own oracle; this reproduces the original
    draw-sort-enumerate algorithm request for request.
    """
    rows = []
    for index, tenant in enumerate(tenants):
        distribution = get_distribution(tenant.workload)
        length_rng = np.random.default_rng((seed, index))
        arrival_rng = np.random.default_rng((seed, index, 1))
        arrival = 0.0
        for order in range(tenant.num_requests):
            sample = distribution.sample(length_rng)
            if tenant.arrival_rate_per_s > 0:
                arrival += float(
                    arrival_rng.exponential(1.0 / tenant.arrival_rate_per_s)
                )
            rows.append(
                (arrival, index, order, sample.prefill_length, sample.decode_length)
            )
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return [
        Request(
            request_id=request_id,
            prefill_length=prefill,
            decode_length=decode,
            arrival_time=arrival,
            tenant=tenants[index].name,
            weight=tenants[index].weight,
            priority=tenants[index].priority,
        )
        for request_id, (arrival, index, _, prefill, decode) in enumerate(rows)
    ]


def single_tenant_oracle(spec):
    """The retired eager single-tenant generator loop, inlined as the reference."""
    rng = np.random.default_rng(spec.seed)
    arrival_rng = np.random.default_rng((spec.seed, 1))
    requests = []
    arrival = 0.0
    for request_id in range(spec.num_requests):
        sample = spec.distribution.sample(rng)
        if spec.arrival_rate_per_s > 0:
            arrival += float(arrival_rng.exponential(1.0 / spec.arrival_rate_per_s))
        requests.append(
            Request(
                request_id=request_id,
                prefill_length=sample.prefill_length,
                decode_length=sample.decode_length,
                arrival_time=arrival,
            )
        )
    return requests


TENANTS = (
    TenantSpec(name="interactive", workload="lp48_ld16", num_requests=40,
               arrival_rate_per_s=80.0, weight=3.0, priority=1),
    TenantSpec(name="batch", workload="lp96_ld32", num_requests=20,
               arrival_rate_per_s=20.0),
    TenantSpec(name="burst", workload="lp48_ld16", num_requests=15,
               arrival_rate_per_s=500.0),
)


class TestStreamBitwiseEquivalence:
    def test_multi_tenant_stream_matches_oracle(self):
        emitted = list(multi_tenant_stream(TENANTS, seed=7).stream)
        assert emitted == materialised_oracle(TENANTS, seed=7)

    def test_shim_trace_equals_oracle(self):
        spec = DeploymentSpec(model="llama-13b", workload="wikitext2",
                              tenants=TENANTS, seed=7)
        assert trace_for(spec).requests == materialised_oracle(TENANTS, seed=7)

    def test_single_tenant_stream_matches_generator(self):
        spec = WorkloadSpec(
            name="wikitext2",
            distribution=get_distribution("wikitext2"),
            num_requests=64,
            seed=11,
            arrival_rate_per_s=40.0,
        )
        eager = Trace(spec=spec, requests=single_tenant_oracle(spec))
        streaming = stream_from_spec(spec)
        assert streaming.materialize().requests == eager.requests
        # The drained stream's running means equal the list's.
        assert streaming.mean_prefill_length == eager.mean_prefill_length
        assert streaming.mean_decode_length == eager.mean_decode_length

    def test_collision_heavy_tie_break(self):
        """All-zero arrivals: every request ties, ids must follow sort order.

        Closed-loop tenants (rate 0) put every arrival at t=0.0, so the heap
        resolves *only* on the ``(tenant index, per-tenant order)`` tie-break
        — the regression this pins is a heap that breaks ties by insertion
        accident instead of the materialised sort key.
        """
        tenants = tuple(
            TenantSpec(name=f"t{i}", workload="lp48_ld16", num_requests=25)
            for i in range(6)
        )
        emitted = list(multi_tenant_stream(tenants, seed=3).stream)
        assert emitted == materialised_oracle(tenants, seed=3)
        # Explicitly: at a fully tied arrival time, pop order is tenant
        # index, then per-tenant order, and ids are assigned in that order.
        expected = [(f"t{i}", order) for i in range(6) for order in range(25)]
        assert [(r.tenant, r.request_id) for r in emitted] == [
            (name, rid) for rid, (name, _) in enumerate(expected)
        ]

    def test_mixed_collision_and_open_loop(self):
        tenants = (
            TenantSpec(name="closed_a", workload="lp48_ld16", num_requests=10),
            TenantSpec(name="open", workload="lp96_ld32", num_requests=30,
                       arrival_rate_per_s=200.0),
            TenantSpec(name="closed_b", workload="lp48_ld16", num_requests=10),
        )
        emitted = list(multi_tenant_stream(tenants, seed=5).stream)
        assert emitted == materialised_oracle(tenants, seed=5)

    def test_stream_state_accounting(self):
        streaming = multi_tenant_stream(TENANTS, seed=7)
        stream = streaming.stream
        assert stream.total == len(streaming) == 75
        assert not stream.exhausted
        first = stream.pop()
        assert stream.emitted == 1
        assert stream.prefill_tokens_emitted == first.prefill_length
        list(stream)
        assert stream.exhausted
        assert stream.emitted == 75
        assert stream.peek_arrival() is None
        with pytest.raises(ConfigurationError):
            stream.pop()

    def test_pending_arrivals_one_entry_per_tenant(self):
        stream = multi_tenant_stream(TENANTS, seed=7).stream
        pending = stream.pending_arrivals()
        assert sorted(name for name, _ in pending) == sorted(
            tenant.name for tenant in TENANTS
        )
        assert min(arrival for _, arrival in pending) == stream.peek_arrival()


class TestStreamingServeEquivalence:
    """Both engine intakes serve a spec bit for bit alike on one system:
    the stream pulled through ``attach_stream`` and its list submitted."""

    def assert_serve_matches(self, spec):
        system = build_deployment(spec)
        streamed = system.serve(stream_for(spec), workload_name=spec.label())
        submitted = system.serve(trace_for(spec), workload_name=spec.label())
        assert streamed.as_dict() == submitted.as_dict()

    def test_open_loop_fcfs(self):
        self.assert_serve_matches(DeploymentSpec(
            model="llama-13b", workload="lp128_ld512", num_requests=80,
            arrival_rate_per_s=50.0, seed=2,
        ))

    def test_multi_tenant_wfq_with_slo(self):
        spec = DeploymentSpec(
            model="llama-13b", workload="wikitext2", seed=4,
            tenants=(
                TenantSpec(name="interactive", workload="lp48_ld16",
                           num_requests=40, arrival_rate_per_s=60.0,
                           weight=4.0),
                TenantSpec(name="batch", workload="lp96_ld32",
                           num_requests=20, arrival_rate_per_s=15.0),
            ),
            slo=SLOTarget(ttft_s=0.5, latency_s=5.0, goodput_target=0.9),
        )
        spec = with_pipeline(spec, scheduling_policy="wfq")
        self.assert_serve_matches(spec)

    def test_multi_tenant_priority_policy(self):
        spec = DeploymentSpec(
            model="llama-13b", workload="wikitext2", seed=4,
            tenants=(
                TenantSpec(name="hi", workload="lp48_ld16", num_requests=30,
                           arrival_rate_per_s=80.0, priority=2),
                TenantSpec(name="lo", workload="lp48_ld16", num_requests=30,
                           arrival_rate_per_s=80.0),
            ),
        )
        spec = with_pipeline(spec, scheduling_policy="priority")
        self.assert_serve_matches(spec)

    def test_overload_with_shedding(self):
        spec = DeploymentSpec(
            model="llama-13b", workload="lp128_ld512", num_requests=80,
            arrival_rate_per_s=400.0, seed=6,
            slo=SLOTarget(ttft_s=0.4, latency_s=4.0, goodput_target=0.9),
        )
        spec = with_pipeline(spec, max_queue_depth=4)
        batch = serve(spec)
        assert batch.shed_requests > 0  # the scenario must actually shed
        self.assert_serve_matches(spec)

    def test_overload_with_retry_backoff(self):
        """Depth-shed candidates retrying with backoff pull identically."""
        spec = DeploymentSpec(
            model="llama-13b", workload="lp128_ld512", num_requests=80,
            arrival_rate_per_s=400.0, seed=6,
        )
        spec = with_pipeline(
            spec, max_queue_depth=8, shed_retries=2, shed_backoff_s=0.05
        )
        self.assert_serve_matches(spec)

    def test_fast_vs_scalar_parity_under_streaming(self, tiny_arch,
                                                   small_wafer_config):
        """Both engine paths consume the stream identically."""
        spec = WorkloadSpec(
            name="parity",
            distribution=FixedLengthDistribution(prefill_length=48,
                                                 decode_length=24),
            num_requests=40,
            seed=9,
            arrival_rate_per_s=120.0,
        )
        results = {}
        for runner in ("run", "run_scalar"):
            engine = build_engine(TokenGrainedPipeline, tiny_arch,
                                  small_wafer_config, "dynamic")
            results[runner] = getattr(engine, runner)(stream_from_spec(spec))
        fast, scalar = results["run"], results["run_scalar"]
        assert fast.as_dict() == scalar.as_dict()
        # ... and both equal the materialised run.
        engine = build_engine(TokenGrainedPipeline, tiny_arch,
                              small_wafer_config, "dynamic")
        batch = engine.run(stream_from_spec(spec).materialize())
        assert fast.as_dict() == batch.as_dict()


class TestStreamingCheckpointResume:
    SPEC = DeploymentSpec(
        model="llama-13b", workload="lp128_ld512", num_requests=80,
        arrival_rate_per_s=50.0, seed=2,
    )

    def test_suspend_resume_bitwise(self, tmp_path):
        uninterrupted = serve(self.SPEC)
        checkpoint = serve(self.SPEC, suspend_at_epoch=30)
        assert isinstance(checkpoint, EngineCheckpoint)
        assert checkpoint.stream_cursor >= 0
        assert checkpoint.accumulator is not None
        # Full JSON round trip, like the CLI's checkpoint file.
        path = tmp_path / "ckpt.json"
        checkpoint.save(path)
        restored = EngineCheckpoint.load(path)
        resumed = serve(self.SPEC, resume_from=restored)
        assert resumed.as_dict() == uninterrupted.as_dict()

    def test_streaming_checkpoint_needs_streaming_resume(self):
        checkpoint = serve(self.SPEC, suspend_at_epoch=30)
        system = build_deployment(self.SPEC)
        with pytest.raises(ConfigurationError, match="streaming run"):
            system.serve(trace_for(self.SPEC), resume_from=checkpoint)

    def test_batch_checkpoint_resumes_under_streaming_auto(self, tmp_path):
        """A checkpoint of a materialised run (cursor -1, e.g. a file an
        earlier ``serve --suspend-epoch`` wrote) resumes through ``serve``,
        whose stream drains to stand in for the submitted list."""
        system = build_deployment(self.SPEC)
        checkpoint = system.serve(trace_for(self.SPEC), suspend_at_epoch=30)
        assert checkpoint.stream_cursor == -1
        path = tmp_path / "ckpt.json"
        checkpoint.save(path)
        resumed = serve(self.SPEC, resume_from=EngineCheckpoint.load(path))
        assert resumed.as_dict() == serve(self.SPEC).as_dict()


class TestApiSurface:
    def test_stream_for_materialises_to_trace_for(self):
        spec = DeploymentSpec(
            model="llama-13b", workload="wikitext2", num_requests=50,
            arrival_rate_per_s=30.0, seed=8,
        )
        assert stream_for(spec).materialize().requests == \
            trace_for(spec).requests

    def test_stream_for_multi_tenant(self):
        spec = DeploymentSpec(
            model="llama-13b", workload="wikitext2",
            tenants=TENANTS, slo=SLOTarget(ttft_s=1.0, latency_s=10.0),
        )
        streaming = stream_for(spec)
        assert isinstance(streaming, StreamingTrace)
        assert streaming.slo == spec.slo
        assert streaming.materialize().requests == trace_for(spec).requests

    def test_workload_stream_iterates_lazily(self):
        streaming = workload_stream("wikitext2", num_requests=10, seed=1)
        first = next(iter(streaming))
        assert first.request_id == 0
        assert streaming.stream.emitted == 1


@pytest.mark.slow
class TestStreamingMemoryBudget:
    def test_peak_memory_is_o_active_not_o_trace(self, tiny_arch,
                                                 small_wafer_config):
        """4x the requests must not cost anywhere near 4x the peak memory.

        Runs the same open-loop fixed-length stream at N and 4N requests
        under tracemalloc and asserts the peak allocation grows by a small
        constant factor — the O(active sequences) claim.  A materialised
        trace (or any O(trace) bookkeeping, e.g. an unbounded epoch list or
        per-sequence stats samples) makes the 4N peak ~4x the N peak and
        fails loudly.
        """
        import tracemalloc

        def peak_for(num_requests: int) -> int:
            spec = WorkloadSpec(
                name="memory",
                distribution=FixedLengthDistribution(prefill_length=32,
                                                     decode_length=16),
                num_requests=num_requests,
                seed=0,
                arrival_rate_per_s=4000.0,
            )
            engine = build_engine(TokenGrainedPipeline, tiny_arch,
                                  small_wafer_config, "dynamic")
            tracemalloc.start()
            tracemalloc.reset_peak()
            engine.run(stream_from_spec(spec))
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        small = peak_for(25_000)
        large = peak_for(100_000)
        assert large < 2.0 * small, (
            f"peak grew {large / small:.2f}x for 4x the requests "
            f"({small} -> {large} bytes); the streaming path is holding "
            "O(trace) state"
        )
