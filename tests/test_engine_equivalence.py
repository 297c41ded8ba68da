"""Equivalence of the array-based epoch engine and the retained scalar loop.

The fast path (:meth:`PipelineEngine.run`) advances all active sequences per
epoch with flat numpy arrays and accumulates energy per quantized context bin;
the retained reference (:meth:`PipelineEngine.run_scalar`) walks one sequence
at a time.  Both share the epoch-closing arithmetic, so every ``RunResult``
field must match **bit for bit** -- across all three pipeline modes, both KV
policies, and under eviction pressure.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.kvcache.manager import DistributedKVCacheManager
from repro.kvcache.static import StaticKVCacheManager
from repro.pipeline.blocked import BlockedTokenGrainedPipeline
from repro.pipeline.checkpoint import EngineCheckpoint
from repro.pipeline.engine import PipelineConfig, PipelineEngine
from repro.pipeline.sequence_grained import SequenceGrainedPipeline
from repro.pipeline.stages import TokenCostModel
from repro.pipeline.tgp import TokenGrainedPipeline
from repro.workload.distributions import UniformLengthDistribution
from repro.workload.generator import WorkloadSpec
from repro.workload.streams import multi_tenant_stream, stream_from_spec

from .conftest import make_trace

ENGINES = [TokenGrainedPipeline, SequenceGrainedPipeline, BlockedTokenGrainedPipeline]
KV_POLICIES = ["dynamic", "static"]


def build_engine(engine_cls, arch, wafer_config, kv_policy, *, blocks_per_core=256,
                 kv_cores=48, chunk=32, scheduling_policy="fcfs",
                 max_active=None, preemptive=False):
    cost_model = TokenCostModel(arch=arch, wafer_config=wafer_config)
    if kv_policy == "dynamic":
        kv_manager = DistributedKVCacheManager(
            arch, kv_core_ids=list(range(kv_cores)), blocks_per_core=blocks_per_core
        )
    else:
        kv_manager = StaticKVCacheManager(
            arch, kv_core_ids=kv_cores, blocks_per_core=blocks_per_core
        )
    config = PipelineConfig(
        chunk_tokens=chunk, context_quantum=32, scheduling_policy=scheduling_policy,
        max_active_sequences=max_active, preemptive=preemptive,
    )
    return engine_cls(arch, cost_model, kv_manager, config=config)


def assert_bitwise_equal(fast, scalar):
    assert fast.total_tokens == scalar.total_tokens
    assert fast.output_tokens == scalar.output_tokens
    assert fast.evictions == scalar.evictions
    assert fast.recomputed_tokens == scalar.recomputed_tokens
    # Floating-point fields must be *exactly* equal, not approximately.
    assert fast.total_time_s == scalar.total_time_s
    assert fast.utilization == scalar.utilization
    assert fast.energy.compute_j == scalar.energy.compute_j
    assert fast.energy.on_chip_memory_j == scalar.energy.on_chip_memory_j
    assert fast.energy.off_chip_memory_j == scalar.energy.off_chip_memory_j
    assert fast.energy.communication_j == scalar.energy.communication_j
    # Latency distributions are derived from the per-epoch timestamps, so
    # they expose any divergence in completion/first-token stamping.
    assert fast.ttft.as_dict() == scalar.ttft.as_dict()
    assert fast.latency.as_dict() == scalar.latency.as_dict()
    assert fast.extra["epochs"] == scalar.extra["epochs"]


def assert_kv_state_equal(fast_engine, scalar_engine):
    """Both paths leave the KV manager in the same state."""
    assert fast_engine.kv_manager.stats == scalar_engine.kv_manager.stats
    assert (
        fast_engine.kv_manager.snapshot_state()
        == scalar_engine.kv_manager.snapshot_state()
    )


def mixed_trace(num_requests=10, seed=3, arrival_rate_per_s=0.0):
    spec = WorkloadSpec(
        name="mixed",
        distribution=UniformLengthDistribution(
            prefill_low=8, prefill_high=96, decode_low=4, decode_high=32
        ),
        num_requests=num_requests,
        seed=seed,
        arrival_rate_per_s=arrival_rate_per_s,
    )
    return stream_from_spec(spec).materialize()


class PlanRowsCheck:
    """What :func:`plan_rows_check` saw: plans, plans on carried rows, and
    every plan whose rows differ from a fresh read of its snapshot."""

    def __init__(self) -> None:
        self.plans = 0
        self.carried = 0
        self.mismatches: list[tuple[int, list, list]] = []

    def assert_held(self) -> None:
        assert not self.mismatches, self.mismatches[:3]
        assert self.carried, "no plan reused carried rows"


@pytest.fixture
def plan_rows_check(monkeypatch):
    """Compare every ``_plan_epoch``'s rows with the sequences' own counters.

    The fast path carries the plan rows of the sequences still active from
    one epoch to the next; they must equal what a fresh read of the
    snapshot gives.  Mismatches are recorded rather than raised, so a run on
    a daemon's worker thread reports them too.
    """
    check = PlanRowsCheck()
    plan_epoch = PipelineEngine._plan_epoch

    def checked(engine, snapshot, time_s):
        carried = engine._carried
        check.carried += (
            carried is not None and carried[1] == engine.scheduler.departures
        )
        plan = plan_epoch(engine, snapshot, time_s)
        fresh = [
            [s.remaining_prefill for s in snapshot],
            [s.remaining_decode for s in snapshot],
            [s.context_length for s in snapshot],
            [s.generated_tokens for s in snapshot],
            [s.request.prefill_length for s in snapshot],
        ]
        if list(plan.rows) != fresh:
            check.mismatches.append((check.plans, list(plan.rows), fresh))
        check.plans += 1
        return plan

    monkeypatch.setattr(PipelineEngine, "_plan_epoch", checked)
    return check


class TestArrayEngineMatchesScalar:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("kv_policy", KV_POLICIES)
    def test_fixed_length_trace(self, engine_cls, kv_policy, tiny_arch, small_wafer_config):
        fast = build_engine(engine_cls, tiny_arch, small_wafer_config, kv_policy)
        scalar = build_engine(engine_cls, tiny_arch, small_wafer_config, kv_policy)
        result_fast = fast.run(make_trace(num_requests=8, prefill=48, decode=16))
        result_scalar = scalar.run_scalar(make_trace(num_requests=8, prefill=48, decode=16))
        assert_bitwise_equal(result_fast, result_scalar)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("kv_policy", KV_POLICIES)
    def test_mixed_length_trace(self, engine_cls, kv_policy, tiny_arch, small_wafer_config):
        fast = build_engine(engine_cls, tiny_arch, small_wafer_config, kv_policy)
        scalar = build_engine(engine_cls, tiny_arch, small_wafer_config, kv_policy)
        assert_bitwise_equal(fast.run(mixed_trace()), scalar.run_scalar(mixed_trace()))

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_under_eviction_pressure(self, engine_cls, tiny_arch, small_wafer_config):
        """An undersized cache exercises eviction + re-prefill in both paths."""
        kwargs = dict(blocks_per_core=2, kv_cores=24, chunk=64)
        fast = build_engine(engine_cls, tiny_arch, small_wafer_config, "dynamic", **kwargs)
        scalar = build_engine(engine_cls, tiny_arch, small_wafer_config, "dynamic", **kwargs)
        trace_args = dict(num_requests=6, prefill=300, decode=64)
        result_fast = fast.run(make_trace(**trace_args))
        result_scalar = scalar.run_scalar(make_trace(**trace_args))
        assert result_fast.evictions > 0  # the scenario actually thrashes
        assert_bitwise_equal(result_fast, result_scalar)

    def test_epoch_records_match(self, tiny_arch, small_wafer_config):
        fast = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        scalar = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        fast.run(mixed_trace())
        scalar.run_scalar(mixed_trace())
        assert [dataclasses.astuple(r) for r in fast.epochs] == [
            dataclasses.astuple(r) for r in scalar.epochs
        ]

    def test_prefill_only_requests(self, tiny_arch, small_wafer_config):
        fast = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        scalar = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        result_fast = fast.run(make_trace(num_requests=3, prefill=16, decode=0))
        result_scalar = scalar.run_scalar(make_trace(num_requests=3, prefill=16, decode=0))
        assert result_fast.output_tokens == 0
        assert result_fast.ttft.count == 0  # no output tokens -> no TTFT samples
        assert_bitwise_equal(result_fast, result_scalar)


class TestOpenLoopEquivalence:
    """Fast vs. scalar must stay bitwise-equal under nonzero arrival rates."""

    #: slow (idle gaps dominate) and bursty (nearly closed-batch)
    ARRIVAL_RATES = [0.5, 500.0]

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("kv_policy", KV_POLICIES)
    @pytest.mark.parametrize("rate", ARRIVAL_RATES)
    def test_arrival_driven_trace(
        self, engine_cls, kv_policy, rate, tiny_arch, small_wafer_config
    ):
        fast = build_engine(engine_cls, tiny_arch, small_wafer_config, kv_policy)
        scalar = build_engine(engine_cls, tiny_arch, small_wafer_config, kv_policy)
        result_fast = fast.run(mixed_trace(arrival_rate_per_s=rate))
        result_scalar = scalar.run_scalar(mixed_trace(arrival_rate_per_s=rate))
        assert result_fast.ttft.count > 0
        assert result_fast.latency.p99_s > 0
        assert_bitwise_equal(result_fast, result_scalar)

    def test_arrival_driven_under_eviction_pressure(self, tiny_arch, small_wafer_config):
        kwargs = dict(blocks_per_core=2, kv_cores=24, chunk=64)
        fast = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic", **kwargs)
        scalar = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic", **kwargs)
        spec = WorkloadSpec(
            name="pressure",
            distribution=UniformLengthDistribution(
                prefill_low=200, prefill_high=320, decode_low=32, decode_high=64
            ),
            num_requests=6,
            seed=7,
            # bursty: arrivals land faster than sequences drain, so the
            # undersized cache still thrashes
            arrival_rate_per_s=2000.0,
        )
        result_fast = fast.run(stream_from_spec(spec).materialize())
        result_scalar = scalar.run_scalar(stream_from_spec(spec).materialize())
        assert result_fast.evictions > 0  # the scenario actually thrashes
        assert_bitwise_equal(result_fast, result_scalar)

    def test_zero_rate_reduces_to_batch(self, tiny_arch, small_wafer_config):
        """arrival_rate_per_s == 0 is the regression anchor: identical to batch."""
        open_loop = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        batch = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        result_open = open_loop.run(mixed_trace(arrival_rate_per_s=0.0))
        result_batch = batch.run(mixed_trace())
        assert result_open.extra["split_epochs"] == 0
        assert_bitwise_equal(result_open, result_batch)


class TestSubEpochSplitEquivalence:
    """Fast vs. scalar must stay bitwise-equal when epochs split at arrivals.

    The split boundary is the one place *planned* floating-point arithmetic
    feeds back into the simulation (truncated integer budgets), so these
    traces are tuned to actually split — asserted via ``split_epochs`` — and
    every RunResult field must still match bit for bit.
    """

    def _splitting_trace(self, arch, wafer_config):
        """Explicit arrivals landing mid-epoch, measured off a probe run.

        Request lengths stay within the tiny arch's max_context so the trace
        also fits the static KV manager's fixed per-sequence reservation.
        """
        from repro.workload.distributions import FixedLengthDistribution

        lengths = FixedLengthDistribution(180, 24)
        probe = build_engine(TokenGrainedPipeline, arch, wafer_config, "dynamic")
        probe.run(
            stream_from_spec(
                WorkloadSpec(name="probe", distribution=lengths, num_requests=1)
            ).materialize()
        )
        full_epoch = max(record.duration_s for record in probe.epochs)
        arrivals = [0.0, 1.4 * full_epoch, 2.7 * full_epoch, 6.3 * full_epoch]
        spec = WorkloadSpec(
            name="mid-epoch",
            distribution=lengths,
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

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("kv_policy", KV_POLICIES)
    def test_mid_epoch_arrivals(self, engine_cls, kv_policy, tiny_arch, small_wafer_config):
        fast = build_engine(engine_cls, tiny_arch, small_wafer_config, kv_policy)
        scalar = build_engine(engine_cls, tiny_arch, small_wafer_config, kv_policy)
        result_fast = fast.run(self._splitting_trace(tiny_arch, small_wafer_config))
        result_scalar = scalar.run_scalar(self._splitting_trace(tiny_arch, small_wafer_config))
        assert result_fast.extra["split_epochs"] > 0  # the scenario splits
        assert result_fast.extra["split_epochs"] == result_scalar.extra["split_epochs"]
        assert_bitwise_equal(result_fast, result_scalar)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_mid_epoch_arrivals_under_eviction_pressure(
        self, engine_cls, tiny_arch, small_wafer_config
    ):
        kwargs = dict(blocks_per_core=2, kv_cores=24, chunk=64)

        def pressure_spec(rate: float) -> WorkloadSpec:
            return WorkloadSpec(
                name="split-pressure",
                distribution=UniformLengthDistribution(
                    prefill_low=200, prefill_high=320, decode_low=32, decode_high=64
                ),
                num_requests=8,
                seed=11,
                arrival_rate_per_s=rate,
            )

        # Probe the closed-batch service time of the same mix on the same
        # undersized cache, then offer the trace over half that window so
        # arrivals land inside busy (thrashing) epochs rather than all at
        # t=0 or in idle gaps.
        probe = build_engine(engine_cls, tiny_arch, small_wafer_config, "dynamic", **kwargs)
        probe_result = probe.run(stream_from_spec(pressure_spec(0.0)).materialize())
        rate = 2 * 8 / probe_result.total_time_s

        fast = build_engine(engine_cls, tiny_arch, small_wafer_config, "dynamic", **kwargs)
        scalar = build_engine(engine_cls, tiny_arch, small_wafer_config, "dynamic", **kwargs)
        result_fast = fast.run(stream_from_spec(pressure_spec(rate)).materialize())
        result_scalar = scalar.run_scalar(stream_from_spec(pressure_spec(rate)).materialize())
        assert result_fast.evictions > 0  # the scenario actually thrashes
        assert result_fast.extra["split_epochs"] > 0  # and actually splits
        assert_bitwise_equal(result_fast, result_scalar)

    def test_multi_tenant_trace_equivalence(self, tiny_arch, small_wafer_config):
        """Per-tenant stats and goodput are part of the bitwise contract."""
        from repro.workload.generator import TenantSpec
        from repro.workload.requests import SLOTarget

        tenants = (
            TenantSpec(name="a", workload="lp64_ld16", num_requests=6,
                       arrival_rate_per_s=50.0),
            TenantSpec(name="b", workload="lp96_ld8", num_requests=4,
                       arrival_rate_per_s=20.0),
        )
        slo = SLOTarget(ttft_s=0.5, latency_s=2.0)
        fast = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        scalar = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        def trace():
            return multi_tenant_stream(tenants, seed=3, slo=slo).materialize()

        result_fast = fast.run(trace())
        result_scalar = scalar.run_scalar(trace())
        assert_bitwise_equal(result_fast, result_scalar)
        assert result_fast.goodput == result_scalar.goodput
        assert set(result_fast.tenants) == {"a", "b"}
        for name in result_fast.tenants:
            assert (
                result_fast.tenants[name].as_dict()
                == result_scalar.tenants[name].as_dict()
            )


class TestPolicyEquivalence:
    """Fast vs. scalar stay bitwise-equal under every scheduling policy.

    The policies reorder *admission* only; both engine paths drive the same
    shared scheduler, so reordering must never open a gap between them —
    including when arrivals land mid-epoch and the split boundary follows
    the policy's (not FCFS's) next-candidate arrival.
    """

    POLICIES = ["fcfs", "wfq", "priority"]

    def _policy_trace(self, seed=3):
        from repro.workload.generator import TenantSpec
        from repro.workload.requests import SLOTarget

        tenants = (
            TenantSpec(name="chat", workload="lp64_ld16", num_requests=6,
                       arrival_rate_per_s=50.0, weight=2.0, priority=1),
            TenantSpec(name="batch", workload="lp96_ld8", num_requests=4,
                       arrival_rate_per_s=20.0),
        )
        return multi_tenant_stream(
            tenants, seed=seed, slo=SLOTarget(ttft_s=0.5, latency_s=2.0)
        ).materialize()

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_multi_tenant_bitwise(self, engine_cls, policy, tiny_arch, small_wafer_config):
        fast = build_engine(engine_cls, tiny_arch, small_wafer_config, "dynamic",
                            scheduling_policy=policy)
        scalar = build_engine(engine_cls, tiny_arch, small_wafer_config, "dynamic",
                              scheduling_policy=policy)
        result_fast = fast.run(self._policy_trace())
        result_scalar = scalar.run_scalar(self._policy_trace())
        assert_bitwise_equal(result_fast, result_scalar)
        assert result_fast.goodput == result_scalar.goodput
        for name in result_fast.tenants:
            assert (
                result_fast.tenants[name].as_dict()
                == result_scalar.tenants[name].as_dict()
            )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_under_eviction_pressure(self, policy, tiny_arch, small_wafer_config):
        """Policy-ordered admission composes with eviction + re-admission."""
        kwargs = dict(blocks_per_core=2, kv_cores=24, chunk=64,
                      scheduling_policy=policy)
        from repro.workload.generator import TenantSpec

        # Arrival rates sized to the tiny system's service rate so arrivals
        # land inside busy (thrashing) epochs rather than in idle gaps.
        tenants = (
            TenantSpec(name="chat", workload="lp200_ld32", num_requests=4,
                       arrival_rate_per_s=2000.0, priority=1),
            TenantSpec(name="batch", workload="lp320_ld48", num_requests=3,
                       arrival_rate_per_s=800.0),
        )
        fast = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                            "dynamic", **kwargs)
        scalar = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                              "dynamic", **kwargs)
        result_fast = fast.run(multi_tenant_stream(tenants, seed=11).materialize())
        result_scalar = scalar.run_scalar(multi_tenant_stream(tenants, seed=11).materialize())
        assert result_fast.evictions > 0  # the scenario actually thrashes
        assert result_fast.extra["split_epochs"] > 0  # and actually splits
        assert_bitwise_equal(result_fast, result_scalar)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("quota", [0.25, 0.5])
    def test_quota_bound_bitwise(self, policy, quota, tiny_arch, small_wafer_config):
        """Every policy x quota combination keeps fast and scalar bitwise.

        The undersized cache plus a tight batch-tenant quota makes the quota
        the binding constraint (not global pressure): admissions and growths
        fail quota-bound, evict-and-requeue churns, and both paths must agree.
        """
        from repro.workload.generator import TenantSpec

        kwargs = dict(blocks_per_core=2, kv_cores=24, chunk=64,
                      scheduling_policy=policy)
        tenants = (
            TenantSpec(name="chat", workload="lp200_ld32", num_requests=4,
                       arrival_rate_per_s=2000.0, weight=2.0, priority=1),
            TenantSpec(name="batch", workload="lp320_ld48", num_requests=3,
                       arrival_rate_per_s=800.0, kv_quota=quota),
        )
        fast = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                            "dynamic", **kwargs)
        scalar = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                              "dynamic", **kwargs)
        result_fast = fast.run(multi_tenant_stream(tenants, seed=11).materialize())
        result_scalar = scalar.run_scalar(multi_tenant_stream(tenants, seed=11).materialize())
        # The quota actually bound: the manager attributed refusals to it.
        stats = fast.kv_manager.stats
        assert stats.quota_rejections + stats.quota_blocked_growths > 0
        assert (
            stats.quota_rejections
            == scalar.kv_manager.stats.quota_rejections
        )
        assert (
            stats.quota_blocked_growths
            == scalar.kv_manager.stats.quota_blocked_growths
        )
        assert_bitwise_equal(result_fast, result_scalar)
        for name in result_fast.tenants:
            assert (
                result_fast.tenants[name].as_dict()
                == result_scalar.tenants[name].as_dict()
            )

    def test_fcfs_policy_config_is_default(self, tiny_arch, small_wafer_config):
        """An explicit fcfs policy reproduces the default engine bit for bit
        (the FCFS anchor of the policy subsystem)."""
        default = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic")
        explicit = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "dynamic", scheduling_policy="fcfs")
        assert_bitwise_equal(
            default.run(self._policy_trace()), explicit.run(self._policy_trace())
        )


def staggered_preemption_trace(seed=7, chat_quota=None, batch_quota=None):
    """Batch floods the concurrency cap first; weighted chat arrives mid-run.

    Rates are sized to the tiny system's millisecond-scale service times:
    the three long batch decodes monopolise the cap-2 active set while all
    four chat arrivals land mid-decode, so a preemptive policy must displace
    a resident batch sequence for every chat admission.
    """
    from repro.workload.generator import TenantSpec
    from repro.workload.requests import SLOTarget

    tenants = (
        TenantSpec(name="chat", workload="lp64_ld16", num_requests=4,
                   arrival_rate_per_s=1500.0, weight=8.0, priority=1,
                   kv_quota=chat_quota),
        TenantSpec(name="batch", workload="lp96_ld512", num_requests=3,
                   arrival_rate_per_s=3000.0, kv_quota=batch_quota),
    )
    return multi_tenant_stream(
        tenants, seed=seed, slo=SLOTarget(ttft_s=0.5, latency_s=2.0)
    ).materialize()


class TestPreemptionEquivalence:
    """Preemptive scheduling keeps fast and scalar bitwise-equal.

    Preemption moves evictions from the admission path into the policy's
    ``select_victim`` hook: a high-ranked arrival displaces a resident
    low-ranked sequence (KV dropped, victim re-queued with its decoded
    tokens preserved as recompute debt).  Both engine paths drive the same
    scheduler, so the preempt-evict-requeue cycle must never open a gap.
    """

    def _staggered_trace(self, seed=7, chat_quota=None, batch_quota=None):
        return staggered_preemption_trace(
            seed=seed, chat_quota=chat_quota, batch_quota=batch_quota
        )

    @staticmethod
    def _preemptions(result):
        return sum(t.preemptions for t in result.tenants.values())

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("policy", ["wfq", "priority"])
    def test_preemptive_bitwise(self, engine_cls, policy, tiny_arch, small_wafer_config):
        kwargs = dict(scheduling_policy=policy, max_active=2, preemptive=True)
        fast = build_engine(engine_cls, tiny_arch, small_wafer_config, "dynamic", **kwargs)
        scalar = build_engine(engine_cls, tiny_arch, small_wafer_config, "dynamic", **kwargs)
        result_fast = fast.run(self._staggered_trace())
        result_scalar = scalar.run_scalar(self._staggered_trace())
        assert self._preemptions(result_fast) > 0  # the scenario actually preempts
        assert_bitwise_equal(result_fast, result_scalar)
        for name in result_fast.tenants:
            assert (
                result_fast.tenants[name].as_dict()
                == result_scalar.tenants[name].as_dict()
            )

    def test_preemptive_fcfs_is_inert(self, tiny_arch, small_wafer_config):
        """FCFS never selects a victim: the knob is bitwise-inert under it."""
        trace = self._staggered_trace

        def run(preemptive):
            engine = build_engine(
                TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic",
                scheduling_policy="fcfs", max_active=2, preemptive=preemptive,
            )
            return engine.run(trace())

        on, off = run(True), run(False)
        assert self._preemptions(on) == 0
        assert_bitwise_equal(on, off)

    @pytest.mark.parametrize("policy", ["wfq", "priority"])
    @pytest.mark.parametrize("quota", [None, 0.5])
    def test_preemption_composes_with_quota_bitwise(
        self, policy, quota, tiny_arch, small_wafer_config
    ):
        """Preemption + a batch quota: both pressure paths stay in lockstep."""
        kwargs = dict(scheduling_policy=policy, max_active=2, preemptive=True,
                      blocks_per_core=8, kv_cores=24, chunk=64)
        fast = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                            "dynamic", **kwargs)
        scalar = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                              "dynamic", **kwargs)
        result_fast = fast.run(self._staggered_trace(batch_quota=quota))
        result_scalar = scalar.run_scalar(self._staggered_trace(batch_quota=quota))
        assert self._preemptions(result_fast) > 0
        assert_bitwise_equal(result_fast, result_scalar)
        for name in result_fast.tenants:
            assert (
                result_fast.tenants[name].as_dict()
                == result_scalar.tenants[name].as_dict()
            )


class TestKVStateEquivalence:
    """The KV manager's state is part of the fast == scalar contract.

    Equal ``RunResult`` fields alone would let a high-water mark raised at
    the wrong moment or a stale allocation token count through, so these
    runs also compare ``kv_manager.stats`` and ``snapshot_state()`` at the
    end, and the whole engine checkpoint -- KV occupancy, allocation token
    counts, page tables, scheduler and sequence state -- at epoch
    boundaries spread over the run.
    """

    #: undersized cache: growth crosses blocks, fails and evicts
    PRESSURE = dict(blocks_per_core=2, kv_cores=24, chunk=64)

    @pytest.fixture(autouse=True)
    def _plan_rows(self, plan_rows_check):
        self.plan_rows = plan_rows_check

    def _check(self, build, trace_fn, fault_plan=None):
        fast, scalar = build(), build()
        result = fast.run(trace_fn(), fault_plan=fault_plan)
        assert_bitwise_equal(
            result, scalar.run_scalar(trace_fn(), fault_plan=fault_plan)
        )
        assert_kv_state_equal(fast, scalar)
        epochs = result.extra["epochs"]
        for suspend_at in range(1, epochs, max(1, epochs // 8)):
            fast_checkpoint, scalar_checkpoint = (
                getattr(build(), method)(
                    trace_fn(), fault_plan=fault_plan, suspend_at_epoch=suspend_at
                )
                for method in ("run", "run_scalar")
            )
            assert isinstance(fast_checkpoint, EngineCheckpoint)
            assert fast_checkpoint.as_dict() == scalar_checkpoint.as_dict()
        # Every fast plan built on carried rows saw the sequences' state.
        self.plan_rows.assert_held()
        return fast, result

    def test_eviction_pressure(self, tiny_arch, small_wafer_config):
        def build():
            return build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "dynamic", **self.PRESSURE)

        _, result = self._check(
            build, lambda: make_trace(num_requests=6, prefill=300, decode=64)
        )
        assert result.evictions > 0

    def test_quota_and_preemption(self, tiny_arch, small_wafer_config):
        def build():
            return build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "dynamic", scheduling_policy="wfq", max_active=2,
                                preemptive=True, blocks_per_core=8, kv_cores=24,
                                chunk=64)

        _, result = self._check(
            build, lambda: staggered_preemption_trace(batch_quota=0.5)
        )
        assert sum(t.preemptions for t in result.tenants.values()) > 0

    def test_mid_epoch_split(self, tiny_arch, small_wafer_config):
        from repro.workload.generator import TenantSpec

        tenants = (
            TenantSpec(name="chat", workload="lp200_ld32", num_requests=4,
                       arrival_rate_per_s=2000.0),
            TenantSpec(name="batch", workload="lp320_ld48", num_requests=3,
                       arrival_rate_per_s=800.0),
        )

        def build():
            return build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "dynamic", **self.PRESSURE)

        _, result = self._check(
            build, lambda: multi_tenant_stream(tenants, seed=11).materialize()
        )
        assert result.extra["split_epochs"] > 0
        assert result.evictions > 0

    def test_kv_core_fault_plan(self, tiny_arch, small_wafer_config):
        from repro.sim.faults import FaultPlan

        plan = FaultPlan.parse("kv_block@1e-06,kv_core@0.0001,stall@0.0002:0:0.01")

        def build():
            return build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "dynamic", **self.PRESSURE)

        fast, result = self._check(
            build, lambda: make_trace(num_requests=6, prefill=300, decode=64),
            fault_plan=plan,
        )
        assert result.faults.kv_core_failures == 1
        assert fast.kv_manager.failed_cores


class TestCarriedPlanRows:
    """Carried plan rows stay exact across a checkpoint resume and a live
    daemon replay (the :class:`TestKVStateEquivalence` runs check them
    under eviction, preemption, splits and KV-core faults)."""

    def test_checkpoint_resume(self, plan_rows_check, tiny_arch, small_wafer_config):
        def build():
            return build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "dynamic", scheduling_policy="wfq", max_active=2,
                                preemptive=True)

        baseline = build().run(staggered_preemption_trace())
        checkpoint = build().run(staggered_preemption_trace(), suspend_at_epoch=5)
        assert isinstance(checkpoint, EngineCheckpoint)
        resumed = build().run(staggered_preemption_trace(), resume_from=checkpoint)
        assert_bitwise_equal(baseline, resumed)
        plan_rows_check.assert_held()

    def test_daemon_replay(self, plan_rows_check):
        from repro import api
        from repro.serving import serve_via_daemon

        spec = (
            api.deployment("llama-13b").workload("lp128_ld2048").requests(8)
            .arrival_rate(20.0).build()
        )
        assert serve_via_daemon(spec) == api.serve(spec).as_dict()
        plan_rows_check.assert_held()


class TestCompletionInTokenGrainedClose:
    """A sequence that completes in an epoch still counts in that epoch's
    token-grained close: its prefill take streamed through the pipeline,
    although the rows carried into the next epoch drop it."""

    def test_completion_shares_the_close(
        self, plan_rows_check, tiny_arch, small_wafer_config
    ):
        from repro.workload.generator import TenantSpec

        # At chunk 4 the short request prefills and completes in the first
        # epoch, ahead of the long one, which is still prefilling.  The two
        # keep fewer tokens in flight than the 12-stage pipeline holds, so
        # each of them moves the epoch's utilization and duration.
        tenants = (
            TenantSpec(name="short", workload="lp2_ld1", num_requests=1),
            TenantSpec(name="long", workload="lp6_ld4", num_requests=1),
        )

        def build():
            return build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "dynamic", chunk=4)

        fast, scalar = build(), build()
        result = fast.run(multi_tenant_stream(tenants).materialize())
        assert_bitwise_equal(
            result, scalar.run_scalar(multi_tenant_stream(tenants).materialize())
        )
        assert_kv_state_equal(fast, scalar)
        assert [dataclasses.astuple(r) for r in fast.epochs] == [
            dataclasses.astuple(r) for r in scalar.epochs
        ]
        first = fast.epochs[0]
        assert (first.active_sequences, first.tokens) == (2, 7)
        assert first.utilization < 1.0
        plan_rows_check.assert_held()


#: (prompt, output) lengths of the generated tenants' fixed-length requests.
#: Under the dynamic KV policy the first tenant's requests outgrow one
#: 256-token KV block, so growth can fail and evict; under the static policy
#: every request fits the tiny model's 256-token context.
GENERATED_LENGTHS = {
    "long": (st.integers(230, 320), st.integers(32, 96)),
    "any": (st.integers(1, 320), st.integers(0, 96)),
    "static": (st.integers(1, 160), st.integers(0, 80)),
}


class TestGeneratedConfigs:
    """Fast == scalar on generated engine setups, not only hand-picked ones:
    every strategy, dynamic or static KV, each scheduling policy, preemption
    on or off, a concurrency cap, a chunk size, a cache from pressured to
    roomy, and open- or closed-loop traces of one or two tenants.  A setup
    that cannot serve its trace must fail the same way on both paths."""

    @given(data=st.data())
    # the fixtures are read-only, and the plan-rows check accumulates
    # across examples: every example must leave it without a mismatch
    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_fast_matches_scalar(
        self, plan_rows_check, tiny_arch, small_wafer_config, data
    ):
        from repro.errors import SimulationError
        from repro.workload.generator import TenantSpec

        draw = data.draw
        engine_cls = draw(st.sampled_from(ENGINES))
        kv_policy = draw(st.sampled_from(KV_POLICIES))
        kv_cores, blocks_per_core = draw(
            st.sampled_from([(24, 2), (48, 2), (24, 4), (48, 64)])
        )
        config = dict(
            blocks_per_core=blocks_per_core,
            kv_cores=kv_cores,
            chunk=draw(st.sampled_from([4, 16, 32, 64, 128])),
            scheduling_policy=draw(st.sampled_from(["fcfs", "wfq", "priority"])),
            max_active=draw(st.one_of(st.none(), st.integers(1, 6))),
            preemptive=draw(st.booleans()),
        )
        lengths = [GENERATED_LENGTHS[kind] for kind in (
            ("static", "static") if kv_policy == "static" else ("long", "any")
        )]
        tenants = tuple(
            TenantSpec(
                name=f"tenant{index}",
                workload=f"lp{draw(lengths[index][0])}_ld{draw(lengths[index][1])}",
                num_requests=draw(st.integers(3, 8)),
                arrival_rate_per_s=draw(
                    st.sampled_from([0.0, 300.0, 3000.0, 30000.0])
                ),
                weight=draw(st.sampled_from([1.0, 4.0])),
                priority=draw(st.integers(0, 2)),
            )
            for index in range(draw(st.integers(1, 2)))
        )
        seed = draw(st.integers(0, 2**16))

        def build():
            return build_engine(engine_cls, tiny_arch, small_wafer_config,
                                kv_policy, **config)

        fast, scalar = build(), build()
        outcomes = []
        for run in (fast.run, scalar.run_scalar):
            trace = multi_tenant_stream(tenants, seed=seed).materialize()
            try:
                outcomes.append(run(trace))
            except SimulationError as error:
                outcomes.append(f"{type(error).__name__}: {error}")
        result_fast, result_scalar = outcomes
        if isinstance(result_fast, str) or isinstance(result_scalar, str):
            assert result_fast == result_scalar
            event("raised")  # --hypothesis-show-statistics reports the mix
        else:
            event(f"served; splits {bool(result_fast.extra['split_epochs'])}, "
                  f"evictions {bool(result_fast.evictions)}")
            assert_bitwise_equal(result_fast, result_scalar)
            assert result_fast.extra == result_scalar.extra
            assert {name: t.as_dict() for name, t in result_fast.tenants.items()} == {
                name: t.as_dict() for name, t in result_scalar.tenants.items()
            }
        assert_kv_state_equal(fast, scalar)
        assert not plan_rows_check.mismatches, plan_rows_check.mismatches[:3]


class TestCheckpointResume:
    """Suspend-at-epoch + resume reproduces the uninterrupted run bit for bit.

    The checkpoint snapshots the full engine state (clock, energy, scheduler
    queues, KV residency); a resumed run must therefore be indistinguishable
    from one that never stopped -- across both engine paths, every scheduling
    policy, and under eviction pressure.  Checkpoints also survive a JSON
    round trip, which is what the CLI writes to disk.
    """

    POLICIES = ["fcfs", "wfq", "priority"]

    def _policy_trace(self, seed=3):
        from repro.workload.generator import TenantSpec
        from repro.workload.requests import SLOTarget

        tenants = (
            TenantSpec(name="chat", workload="lp64_ld16", num_requests=6,
                       arrival_rate_per_s=50.0, weight=2.0, priority=1),
            TenantSpec(name="batch", workload="lp96_ld8", num_requests=4,
                       arrival_rate_per_s=20.0),
        )
        return multi_tenant_stream(
            tenants, seed=seed, slo=SLOTarget(ttft_s=0.5, latency_s=2.0)
        ).materialize()

    def _suspend_resume(self, build, method, trace_fn, suspend_at):
        import json

        from repro.pipeline.checkpoint import EngineCheckpoint

        baseline = getattr(build(), method)(trace_fn())
        checkpoint = getattr(build(), method)(
            trace_fn(), suspend_at_epoch=suspend_at
        )
        assert isinstance(checkpoint, EngineCheckpoint), (
            "run finished before the suspend epoch; the scenario is too short "
            "to exercise resume"
        )
        # The CLI persists checkpoints as JSON: the round trip must be exact.
        restored = EngineCheckpoint.from_dict(
            json.loads(json.dumps(checkpoint.as_dict()))
        )
        resumed = getattr(build(), method)(trace_fn(), resume_from=restored)
        assert_bitwise_equal(baseline, resumed)
        return baseline, resumed

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("method", ["run", "run_scalar"])
    def test_engine_paths_bitwise(self, engine_cls, method, tiny_arch, small_wafer_config):
        def build():
            return build_engine(engine_cls, tiny_arch, small_wafer_config, "dynamic")

        self._suspend_resume(build, method, mixed_trace, suspend_at=2)

    @pytest.mark.parametrize("method", ["run", "run_scalar"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_scheduling_policies_bitwise(self, method, policy, tiny_arch, small_wafer_config):
        def build():
            return build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "dynamic", scheduling_policy=policy)

        baseline, resumed = self._suspend_resume(
            build, method, self._policy_trace, suspend_at=2
        )
        assert baseline.goodput == resumed.goodput
        for name in baseline.tenants:
            assert (
                baseline.tenants[name].as_dict() == resumed.tenants[name].as_dict()
            )

    @pytest.mark.parametrize("method", ["run", "run_scalar"])
    def test_under_eviction_pressure(self, method, tiny_arch, small_wafer_config):
        """Resume restores KV residency exactly even while the cache thrashes."""
        kwargs = dict(blocks_per_core=2, kv_cores=24, chunk=64)

        def build():
            return build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "dynamic", **kwargs)

        def trace_fn():
            return make_trace(num_requests=6, prefill=300, decode=64)

        baseline, _ = self._suspend_resume(build, method, trace_fn, suspend_at=3)
        assert baseline.evictions > 0  # the scenario actually thrashes

    @pytest.mark.parametrize("method", ["run", "run_scalar"])
    def test_resumed_page_tables_continue_bitwise(self, method, tiny_arch,
                                                  small_wafer_config):
        """KV placements rebuilt from a checkpoint's page tables are exact.

        A run resumed from the JSON round trip and suspended again later
        must reach the uninterrupted run's checkpoint at that epoch, KV
        occupancy and page tables included.
        """
        def build():
            return build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "dynamic", blocks_per_core=2, kv_cores=24, chunk=64)

        def trace_fn():
            return make_trace(num_requests=6, prefill=300, decode=64)

        checkpoint = getattr(build(), method)(trace_fn(), suspend_at_epoch=3)
        restored = EngineCheckpoint.from_dict(
            json.loads(json.dumps(checkpoint.as_dict()))
        )
        assert any(restored.kv["page_tables"])  # resident placements ride along
        later = getattr(build(), method)(
            trace_fn(), resume_from=restored, suspend_at_epoch=6
        )
        direct = getattr(build(), method)(trace_fn(), suspend_at_epoch=6)
        assert later.as_dict() == direct.as_dict()

    def test_static_kv_policy_bitwise(self, tiny_arch, small_wafer_config):
        def build():
            return build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "static")

        self._suspend_resume(build, "run", mixed_trace, suspend_at=2)

    @pytest.mark.parametrize("method", ["run", "run_scalar"])
    @pytest.mark.parametrize("policy", ["wfq", "priority"])
    def test_mid_preemption_bitwise(self, method, policy, tiny_arch, small_wafer_config):
        """Suspending inside the preemption churn window resumes bit for bit.

        The checkpoint must capture a preempted victim sitting back at the
        front of its tenant queue with recompute debt — state that only
        exists while preemptive scheduling is mid-flight.
        """
        def build():
            return build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "dynamic", scheduling_policy=policy,
                                max_active=2, preemptive=True)

        baseline, resumed = self._suspend_resume(
            build, method, staggered_preemption_trace, suspend_at=5
        )
        preempted = sum(t.preemptions for t in baseline.tenants.values())
        assert preempted > 0  # the scenario actually preempts
        for name in baseline.tenants:
            assert (
                baseline.tenants[name].as_dict() == resumed.tenants[name].as_dict()
            )

    @pytest.mark.parametrize("method", ["run", "run_scalar"])
    def test_mid_preemption_with_quota_bitwise(self, method, tiny_arch, small_wafer_config):
        """Tenant quota occupancy survives the checkpoint round trip."""
        def build():
            return build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                                "dynamic", scheduling_policy="wfq",
                                max_active=2, preemptive=True,
                                blocks_per_core=8, kv_cores=24, chunk=64)

        def trace_fn():
            return staggered_preemption_trace(batch_quota=0.5)

        baseline, _ = self._suspend_resume(build, method, trace_fn, suspend_at=5)
        assert sum(t.preemptions for t in baseline.tenants.values()) > 0

    def test_suspend_past_end_returns_result(self, tiny_arch, small_wafer_config):
        """A suspend epoch the run never reaches degrades to a normal run."""
        build = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config,
                             "dynamic")
        baseline = build_engine(
            TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic"
        ).run(mixed_trace())
        result = build.run(mixed_trace(), suspend_at_epoch=10_000)
        assert_bitwise_equal(baseline, result)
