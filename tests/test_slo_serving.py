"""Multi-tenant traces, SLO goodput accounting, and serving-latency properties.

Three layers are pinned here:

* the workload layer — :class:`TenantSpec` streams interleave deterministically
  and independently, tenant ids thread through to :class:`Sequence`;
* the result layer — per-tenant :class:`TenantStats` sum to the aggregate and
  goodput counts exactly the requests meeting the :class:`SLOTarget`;
* property-style serving invariants — TTFT / end-to-end latency are
  non-negative and monotone in arrival time under sub-epoch splitting.
"""

from __future__ import annotations

import pytest

from repro.api import DeploymentSpec, deployment
from repro.errors import ConfigurationError
from repro.pipeline.tgp import TokenGrainedPipeline
from repro.workload.distributions import FixedLengthDistribution
from repro.workload.generator import TenantSpec, WorkloadSpec
from repro.workload.requests import SLOTarget
from repro.workload.streams import multi_tenant_stream, stream_from_spec

from .test_engine_equivalence import build_engine

TENANTS = (
    TenantSpec(name="chat", workload="lp48_ld16", num_requests=8,
               arrival_rate_per_s=60.0),
    TenantSpec(name="batch", workload="lp96_ld32", num_requests=4,
               arrival_rate_per_s=15.0),
)


def staggered_trace(arrivals, prefill=48, decode=16):
    """Fixed-length single-tenant trace with explicit arrival times."""
    spec = WorkloadSpec(
        name="staggered",
        distribution=FixedLengthDistribution(prefill_length=prefill, decode_length=decode),
        num_requests=len(arrivals),
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


# ---------------------------------------------------------------------------
# Multi-tenant trace generation
# ---------------------------------------------------------------------------


class TestMultiTenantTrace:
    def test_deterministic(self):
        first = multi_tenant_stream(TENANTS, seed=7).materialize()
        second = multi_tenant_stream(TENANTS, seed=7).materialize()
        assert [
            (r.tenant, r.arrival_time, r.prefill_length, r.decode_length)
            for r in first
        ] == [
            (r.tenant, r.arrival_time, r.prefill_length, r.decode_length)
            for r in second
        ]

    def test_sorted_by_arrival_with_sequential_ids(self):
        trace = multi_tenant_stream(TENANTS, seed=0).materialize()
        arrivals = [request.arrival_time for request in trace]
        assert arrivals == sorted(arrivals)
        assert [request.request_id for request in trace] == list(range(len(trace)))

    def test_tenant_ids_thread_through(self):
        trace = multi_tenant_stream(TENANTS, seed=0).materialize()
        counts = {}
        for request in trace:
            counts[request.tenant] = counts.get(request.tenant, 0) + 1
        assert counts == {"chat": 8, "batch": 4}

    def test_tenant_streams_are_independent(self):
        """Changing one tenant's arrival rate must not perturb another
        tenant's sampled request lengths."""
        from dataclasses import replace

        base = multi_tenant_stream(TENANTS, seed=0).materialize()
        perturbed_tenants = (TENANTS[0], replace(TENANTS[1], arrival_rate_per_s=1.0))
        perturbed = multi_tenant_stream(perturbed_tenants, seed=0).materialize()

        def chat_lengths(trace):
            return [
                (r.prefill_length, r.decode_length, r.arrival_time)
                for r in sorted(trace, key=lambda r: r.arrival_time)
                if r.tenant == "chat"
            ]

        assert chat_lengths(base) == chat_lengths(perturbed)

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            multi_tenant_stream(
                (TENANTS[0], TENANTS[0]), seed=0
            ).materialize()

    def test_empty_tenants_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            multi_tenant_stream((), seed=0).materialize()

    def test_tenant_slos_attached(self):
        from dataclasses import replace

        slo = SLOTarget(ttft_s=0.1)
        tenants = (replace(TENANTS[0], slo=slo), TENANTS[1])
        trace = multi_tenant_stream(tenants, seed=0, slo=SLOTarget(ttft_s=9.0)).materialize()
        assert trace.slo_for("chat") == slo
        assert trace.slo_for("batch") == SLOTarget(ttft_s=9.0)


class TestSLOTarget:
    def test_met_by_checks_each_deadline(self):
        slo = SLOTarget(ttft_s=0.5, latency_s=2.0)
        assert slo.met_by(0.4, 1.9)
        assert not slo.met_by(0.6, 1.9)
        assert not slo.met_by(0.4, 2.1)

    def test_missing_samples_pass_vacuously(self):
        slo = SLOTarget(ttft_s=0.5, latency_s=2.0)
        assert slo.met_by(None, 1.0)  # prefill-only request: no TTFT
        assert slo.met_by(None, None)

    def test_validation(self):
        # SLOs are deployment configuration: invalid targets raise the spec
        # layer's typed ConfigurationError.
        with pytest.raises(ConfigurationError):
            SLOTarget(ttft_s=0.0)
        with pytest.raises(ConfigurationError):
            SLOTarget(latency_s=-1.0)
        with pytest.raises(ConfigurationError):
            SLOTarget(goodput_target=0.0)
        with pytest.raises(ConfigurationError):
            SLOTarget(goodput_target=1.5)


# ---------------------------------------------------------------------------
# Per-tenant stats and goodput on RunResult
# ---------------------------------------------------------------------------


class TestTenantStats:
    @pytest.fixture()
    def served(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        slo = SLOTarget(ttft_s=0.05, latency_s=0.5)
        trace = multi_tenant_stream(TENANTS, seed=1, slo=slo).materialize()
        return engine, engine.run(trace), slo

    def test_tenant_counts_sum_to_aggregate(self, served):
        engine, result, _ = served
        assert sum(stats.requests for stats in result.tenants.values()) == len(
            engine.scheduler.completed
        )
        assert sum(stats.ttft.count for stats in result.tenants.values()) == result.ttft.count
        assert (
            sum(stats.latency.count for stats in result.tenants.values())
            == result.latency.count
        )

    def test_tenant_means_recombine_to_aggregate(self, served):
        _, result, _ = served
        weighted = sum(
            stats.ttft.mean_s * stats.ttft.count for stats in result.tenants.values()
        )
        assert weighted / result.ttft.count == pytest.approx(result.ttft.mean_s)
        weighted = sum(
            stats.latency.mean_s * stats.latency.count
            for stats in result.tenants.values()
        )
        assert weighted / result.latency.count == pytest.approx(result.latency.mean_s)

    def test_goodput_matches_manual_count(self, served):
        engine, result, slo = served
        met = sum(
            1
            for sequence in engine.scheduler.completed
            if slo.met_by(sequence.ttft_s, sequence.latency_s)
        )
        assert result.goodput == pytest.approx(met / len(engine.scheduler.completed))
        # Aggregate goodput is the request-weighted mean of tenant goodputs.
        weighted = sum(
            stats.goodput * stats.requests for stats in result.tenants.values()
        )
        assert result.goodput == pytest.approx(
            weighted / sum(stats.requests for stats in result.tenants.values())
        )

    def test_no_slo_means_no_goodput(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        result = engine.run(multi_tenant_stream(TENANTS, seed=1).materialize())
        assert result.goodput is None
        assert all(stats.goodput is None for stats in result.tenants.values())

    def test_single_tenant_trace_collapses_to_default(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        result = engine.run(staggered_trace([0.0, 0.01, 0.02]))
        assert set(result.tenants) == {"default"}
        assert result.tenants["default"].requests == 3


# ---------------------------------------------------------------------------
# Property-style serving invariants under sub-epoch splitting
# ---------------------------------------------------------------------------


class TestLatencyProperties:
    #: arrival patterns covering idle gaps, mid-epoch landings and bursts
    ARRIVAL_SETS = [
        [0.0, 0.001, 0.002, 0.003],
        [0.0, 0.05, 0.1, 5.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0001, 3.0, 3.00001, 3.0001],
    ]

    @pytest.mark.parametrize("arrivals", ARRIVAL_SETS)
    @pytest.mark.parametrize("runner", ["run", "run_scalar"])
    def test_latencies_non_negative_and_ordered(
        self, arrivals, runner, tiny_arch, small_wafer_config
    ):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        getattr(engine, runner)(staggered_trace(arrivals))
        for sequence in engine.scheduler.completed:
            assert sequence.ttft_s is not None and sequence.ttft_s >= 0.0
            assert sequence.latency_s is not None and sequence.latency_s >= 0.0
            assert sequence.ttft_s <= sequence.latency_s
            assert sequence.admission_time >= sequence.request.arrival_time

    @pytest.mark.parametrize("arrivals", ARRIVAL_SETS)
    def test_service_monotone_in_arrival_order(
        self, arrivals, tiny_arch, small_wafer_config
    ):
        """FCFS over identical requests: a later arrival never produces its
        first token, nor completes, before an earlier one."""
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        engine.run(staggered_trace(arrivals))
        completed = sorted(
            engine.scheduler.completed, key=lambda s: s.request.request_id
        )
        first_tokens = [s.first_token_time for s in completed]
        completions = [s.completion_time for s in completed]
        assert first_tokens == sorted(first_tokens)
        assert completions == sorted(completions)

    def test_splitting_bounds_admission_delay(self, tiny_arch, small_wafer_config):
        """Every admission lands within one (split) epoch of its arrival:
        admission_time - arrival_time is bounded by the duration of the epoch
        that was running when the request arrived, not by a full chunk."""
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        arrivals = [0.0, 0.002, 0.004, 0.008, 0.016]
        engine.run(staggered_trace(arrivals, prefill=400, decode=32))
        max_epoch = max(record.duration_s for record in engine.epochs)
        for sequence in engine.scheduler.completed:
            delay = sequence.admission_time - sequence.request.arrival_time
            assert 0.0 <= delay <= max_epoch + 1e-12


# ---------------------------------------------------------------------------
# Spec / API integration
# ---------------------------------------------------------------------------


class TestDeploymentSpecTenants:
    def test_roundtrip_with_tenants_and_slo(self):
        spec = (
            deployment("llama-13b")
            .tenant("chat", "wikitext2", 20, 4.0, slo=SLOTarget(ttft_s=0.2))
            .tenant("batch", "lp2048_ld2048", 10, 1.0)
            .slo(ttft_s=1.0, latency_s=5.0, goodput_target=0.9)
            .concurrency(8)
            .build()
        )
        data = spec.to_dict()
        assert DeploymentSpec.from_dict(data) == spec
        assert data["tenants"][0]["slo"]["ttft_s"] == 0.2
        assert data["config"]["pipeline"]["max_active_sequences"] == 8

    def test_label_defaults_to_tenant_names(self):
        spec = (
            deployment("llama-13b")
            .tenant("chat", "wikitext2", 5)
            .tenant("batch", "lp128_ld128", 5)
            .build()
        )
        assert spec.label() == "chat+batch"

    def test_open_loop_tenants_rejected_on_closed_batch_baselines(self):
        builder = (
            deployment("llama-13b")
            .system("dgx-a100")
            .tenant("chat", "wikitext2", 5, arrival_rate_per_s=2.0)
        )
        with pytest.raises(ConfigurationError, match="arrival"):
            builder.build()

    def test_closed_batch_tenants_allowed_on_baselines(self):
        spec = (
            deployment("llama-13b")
            .system("dgx-a100")
            .tenant("chat", "wikitext2", 5)
            .build()
        )
        assert spec.tenants[0].arrival_rate_per_s == 0.0

    def test_tenants_exclude_spec_level_arrival_rate(self):
        with pytest.raises(ConfigurationError, match="arrival_rate_per_s"):
            (
                deployment("llama-13b")
                .arrival_rate(4.0)
                .tenant("chat", "wikitext2", 5)
                .build()
            )

    def test_duplicate_tenants_rejected_at_spec_level(self):
        with pytest.raises(ConfigurationError, match="unique"):
            (
                deployment("llama-13b")
                .tenant("chat", "wikitext2", 5)
                .tenant("chat", "lp128_ld128", 5)
                .build()
            )


# ---------------------------------------------------------------------------
# Scheduling-policy invariants at the serving level
# ---------------------------------------------------------------------------


POLICY_TENANTS = (
    TenantSpec(name="chat", workload="lp48_ld16", num_requests=8,
               arrival_rate_per_s=60.0, weight=2.0, priority=1),
    TenantSpec(name="batch", workload="lp96_ld32", num_requests=4,
               arrival_rate_per_s=15.0),
)

ALL_POLICIES = ("fcfs", "wfq", "priority")


class TestPolicyServingInvariants:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_tenant_stats_sum_to_aggregate(self, policy, tiny_arch, small_wafer_config):
        """The per-tenant accounting contract of PR 4 holds under every
        admission policy: tenant counts/samples recombine to the aggregate."""
        engine = build_engine(
            TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic",
            scheduling_policy=policy,
        )
        slo = SLOTarget(ttft_s=0.05, latency_s=0.5)
        result = engine.run(
            multi_tenant_stream(POLICY_TENANTS, seed=1, slo=slo).materialize()
        )
        completed = engine.scheduler.completed
        assert len(completed) == sum(t.num_requests for t in POLICY_TENANTS)
        assert sum(stats.requests for stats in result.tenants.values()) == len(completed)
        assert sum(s.ttft.count for s in result.tenants.values()) == result.ttft.count
        assert (
            sum(s.latency.count for s in result.tenants.values())
            == result.latency.count
        )
        weighted = sum(
            stats.goodput * stats.requests for stats in result.tenants.values()
        )
        assert result.goodput == pytest.approx(
            weighted / sum(stats.requests for stats in result.tenants.values())
        )

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_every_request_completes(self, policy, tiny_arch, small_wafer_config):
        """No policy drops or starves work to completion: the full trace is
        served (for priority, the aging bound is what guarantees this)."""
        engine = build_engine(
            TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic",
            scheduling_policy=policy,
        )
        trace = multi_tenant_stream(POLICY_TENANTS, seed=2).materialize()
        result = engine.run(trace)
        assert len(engine.scheduler.completed) == len(trace)
        assert result.output_tokens == trace.total_decode_tokens

    def test_wfq_single_tenant_is_fcfs_bitwise(self, tiny_arch, small_wafer_config):
        """With one tenant there is nothing to arbitrate: wfq must reproduce
        fcfs bit for bit (regression anchor for the degenerate case)."""
        from .test_engine_equivalence import assert_bitwise_equal

        fcfs = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        wfq = build_engine(
            TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic",
            scheduling_policy="wfq",
        )
        arrivals = [0.0, 0.002, 0.004, 0.008, 0.016]
        assert_bitwise_equal(
            fcfs.run(staggered_trace(arrivals, prefill=400, decode=32)),
            wfq.run(staggered_trace(arrivals, prefill=400, decode=32)),
        )

    def test_wfq_is_work_conserving_in_serving(self, tiny_arch, small_wafer_config):
        """No idle epoch while any tenant has arrived work: every recorded
        epoch advances tokens, and the clock only jumps across gaps where
        *nothing* had arrived."""
        engine = build_engine(
            TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic",
            scheduling_policy="wfq",
        )
        trace = multi_tenant_stream(POLICY_TENANTS, seed=3).materialize()
        engine.run(trace)
        assert all(record.tokens > 0 for record in engine.epochs)
        # Completions never stall past the last arrival plus total service.
        last_completion = max(s.completion_time for s in engine.scheduler.completed)
        busy_bound = sum(r.duration_s for r in engine.epochs)
        last_arrival = max(r.arrival_time for r in trace)
        assert last_completion <= last_arrival + busy_bound + 1e-9


class TestPolicySpec:
    def test_scheduler_builder_round_trips(self):
        spec = (
            deployment("llama-13b")
            .scheduler("wfq")
            .tenant("chat", "wikitext2", 20, 4.0, weight=3.0, priority=2)
            .tenant("batch", "lp2048_ld2048", 10, 1.0)
            .concurrency(8)
            .build()
        )
        data = spec.to_dict()
        assert data["config"]["pipeline"]["scheduling_policy"] == "wfq"
        assert data["tenants"][0]["weight"] == 3.0
        assert data["tenants"][0]["priority"] == 2
        assert DeploymentSpec.from_dict(data) == spec

    def test_scheduler_builder_aging_rate(self):
        spec = (
            deployment("llama-13b").scheduler("priority", aging_rate=0.5).build()
        )
        assert spec.config.pipeline.scheduling_policy == "priority"
        assert spec.config.pipeline.priority_aging_rate == 0.5
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_policy_rejected_in_builder(self):
        with pytest.raises(ConfigurationError, match="unknown scheduling policy"):
            deployment("llama-13b").scheduler("lifo")

    def test_unknown_policy_rejected_in_config(self):
        from repro.pipeline.engine import PipelineConfig

        with pytest.raises(ConfigurationError, match="unknown scheduling policy"):
            PipelineConfig(scheduling_policy="lifo")

    def test_default_policy_is_fcfs(self):
        spec = deployment("llama-13b").build()
        assert spec.config.pipeline.scheduling_policy == "fcfs"


class TestTenantQuotaServing:
    """End-to-end quota semantics: caps bind per tenant, impossible fits shed.

    The KV quota is a *static* entitlement, so two classes of request can
    never be served under it: a zero-quota tenant's (rejected at admission
    while holding nothing) and one whose own working set exceeds the cap
    (detected when growth fails with no same-tenant victim left).  Both must
    shed permanently — counted against the tenant's goodput — instead of
    livelocking the epoch loop, and must never disturb the other tenant.
    """

    def _pressure_tenants(self, batch_quota):
        return (
            TenantSpec(name="chat", workload="lp200_ld32", num_requests=4,
                       arrival_rate_per_s=2000.0, weight=2.0, priority=1),
            TenantSpec(name="batch", workload="lp320_ld48", num_requests=3,
                       arrival_rate_per_s=800.0, kv_quota=batch_quota),
        )

    def _serve(self, tiny_arch, small_wafer_config, batch_quota):
        engine = build_engine(
            TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic",
            blocks_per_core=2, kv_cores=24, chunk=64,
        )
        trace = multi_tenant_stream(
            self._pressure_tenants(batch_quota), seed=11,
            slo=SLOTarget(ttft_s=0.5, latency_s=2.0),
        ).materialize()
        return engine, engine.run(trace)

    def test_zero_quota_tenant_shed_at_admission(self, tiny_arch, small_wafer_config):
        engine, result = self._serve(tiny_arch, small_wafer_config, 0.0)
        assert result.tenants["batch"].shed == 3
        assert result.tenants["batch"].goodput == 0.0
        assert result.tenants["chat"].shed == 0
        assert result.tenants["chat"].ttft.count == 4
        assert engine.kv_manager.stats.quota_rejections > 0

    def test_quota_below_working_set_sheds_mid_flight(self, tiny_arch, small_wafer_config):
        """A cap that admits a sequence but can never hold its full context
        sheds it once growth proves the fit impossible -- the run completes."""
        engine, result = self._serve(tiny_arch, small_wafer_config, 0.5)
        assert result.tenants["batch"].shed == 3
        assert result.tenants["chat"].shed == 0
        assert result.tenants["chat"].ttft.count == 4
        # The shed happened mid-flight, after a real admission and growth.
        assert engine.kv_manager.stats.quota_blocked_growths > 0
        assert engine.scheduler.stats.shed_requests == 3

    def test_quota_holding_full_working_set_serves_everyone(
        self, tiny_arch, small_wafer_config
    ):
        """A cap with room for one full batch working set serves all requests
        -- quota pressure queues the tenant intra-tenant, nothing is shed."""
        engine, result = self._serve(tiny_arch, small_wafer_config, 0.75)
        assert result.tenants["batch"].shed == 0
        assert result.tenants["batch"].ttft.count == 3
        assert result.tenants["chat"].ttft.count == 4
