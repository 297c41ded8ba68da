"""Runtime fault injection and graceful overload shedding.

Covers the fault-plan data model (parse / dict round trips / validation), the
injector's engine-level semantics (determinism, KV recompute, admission
stalls, capability checks against the KV policy), the system-level path where
all four fault kinds -- including weight-core replacement chains -- flow
through the recovery model, and the overload shedder (deadline-aware early
rejection must *raise* goodput past saturation, and all knobs default off).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.pipeline.engine import PipelineConfig
from repro.pipeline.tgp import TokenGrainedPipeline
from repro.sim.faults import FaultEvent, FaultPlan, make_fault_plan
from repro.workload.distributions import UniformLengthDistribution
from repro.workload.generator import WorkloadSpec
from repro.workload.streams import stream_from_spec
from repro.workload.requests import SLOTarget

from .conftest import make_trace
from .test_engine_equivalence import assert_bitwise_equal, build_engine, mixed_trace


class TestFaultPlanDataModel:
    def test_parse_compact_syntax(self):
        plan = FaultPlan.parse("kv_core@0.5,stall@1.0:0:0.25,kv_block@0.75:3")
        assert [event.kind for event in plan.events] == ["kv_core", "kv_block", "stall"]
        assert plan.events[2].duration_s == 0.25
        assert plan.events[1].target == 3

    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time_s=2.0, kind="stall", duration_s=0.1),
                FaultEvent(time_s=1.0, kind="kv_block"),
            )
        )
        assert [event.time_s for event in plan.events] == [1.0, 2.0]

    def test_dict_round_trip(self):
        plan = FaultPlan.parse("weight_core@0.25:1,stall@0.5:0:0.125")
        restored = FaultPlan.from_dict(json.loads(json.dumps(plan.as_dict())))
        assert restored == plan

    @pytest.mark.parametrize(
        "text",
        ["nope@0.5", "kv_core@-1.0", "kv_core", "kv_core@x", "stall@1.0:0:-2"],
    )
    def test_malformed_plans_rejected(self, text):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(text)

    def test_make_fault_plan_shape(self):
        plan = make_fault_plan(2.0, 2.0, kinds=("kv_block", "stall"))
        assert len(plan) == 4
        assert [event.time_s for event in plan.events] == [0.5, 1.0, 1.5, 2.0]
        assert [event.kind for event in plan.events] == [
            "kv_block", "stall", "kv_block", "stall",
        ]
        # Targets walk forward so successive events hit different cores.
        assert [event.target for event in plan.events] == [0, 1, 2, 3]
        assert make_fault_plan(0.0, 1.0) == FaultPlan()


#: undersized cache so every KV core holds blocks and any kv_block hit
#: actually destroys resident state
PRESSURE = dict(blocks_per_core=2, kv_cores=24, chunk=64)


def pressure_trace():
    return make_trace(num_requests=6, prefill=300, decode=64)


class TestEngineFaultInjection:
    def _run(self, tiny_arch, small_wafer_config, plan, method="run"):
        engine = build_engine(
            TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic", **PRESSURE
        )
        return getattr(engine, method)(pressure_trace(), fault_plan=plan)

    def test_no_plan_is_bitwise_noop(self, tiny_arch, small_wafer_config):
        """An empty plan serves identically to no plan at all."""
        baseline = self._run(tiny_arch, small_wafer_config, None)
        empty = self._run(tiny_arch, small_wafer_config, FaultPlan())
        assert_bitwise_equal(baseline, empty)
        assert baseline.faults is None

    def test_kv_block_loss_forces_recompute(self, tiny_arch, small_wafer_config):
        plan = FaultPlan.parse("kv_block@1e-06")
        result = self._run(tiny_arch, small_wafer_config, plan)
        assert result.faults is not None
        assert result.faults.injected == 1
        assert result.faults.kv_block_losses == 1
        assert result.faults.recovered_sequences > 0
        assert result.faults.recompute_tokens > 0
        # Capacity is untouched: a transient block loss fails no core, so the
        # run still completes every request.
        assert result.ttft.count == 6

    def test_stall_freezes_admission(self, tiny_arch, small_wafer_config):
        plan = FaultPlan.parse("stall@1e-06:0:0.05")
        result = self._run(tiny_arch, small_wafer_config, plan)
        assert result.faults.admission_stalls == 1
        assert result.faults.stall_time_s == 0.05

    def test_injection_is_deterministic(self, tiny_arch, small_wafer_config):
        plan = FaultPlan.parse("kv_block@1e-06,kv_core@0.0001,stall@0.0002:0:0.01")
        first = self._run(tiny_arch, small_wafer_config, plan)
        second = self._run(tiny_arch, small_wafer_config, plan)
        assert_bitwise_equal(first, second)
        assert first.faults.as_dict() == second.faults.as_dict()

    @pytest.mark.parametrize("method", ["run", "run_scalar"])
    def test_lone_sequence_kv_livelock_fails_fast(
        self, tiny_arch, small_wafer_config, method
    ):
        """Failing cores 5, 6, 7 and 10 leaves sequence 0, alone, no room
        for the growth after its first chunk.  Each stall evicts it, and it
        is re-admitted to re-prefill the same chunk.  Those re-prefill epochs
        process tokens, so only a completion may reset the stall count:
        the run fails with the KV-fit error instead of spinning to the
        epoch limit."""
        plan = FaultPlan.parse(
            "kv_core@1e-06:5,kv_core@0.0001:5,kv_core@0.0002:30,kv_core@0.0003:47"
        )
        with pytest.raises(SimulationError, match="does not fit"):
            self._run(tiny_arch, small_wafer_config, plan, method)

    def test_kv_core_events_pick_the_historical_cores(
        self, tiny_arch, small_wafer_config
    ):
        """Each kv_core event fails ``healthy[target % len(healthy)]``, the
        healthy cores listed in KV-core order at the moment it fires."""
        plan = FaultPlan.parse(
            "kv_core@1e-06:5,kv_core@0.0001:5,kv_core@0.0002:30,kv_core@0.0003:47"
        )
        engine = build_engine(
            TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic"
        )
        kv = engine.kv_manager
        chosen = []
        fail_core = kv.fail_core

        def recording(core_id):
            chosen.append(core_id)
            return fail_core(core_id)

        kv.fail_core = recording
        result = engine.run(mixed_trace(), fault_plan=plan)
        expected = []
        for event in plan.events:
            healthy = [c for c in kv.kv_core_ids if c not in expected]
            expected.append(healthy[event.target % len(healthy)])
        assert result.faults.kv_core_failures == len(plan) == len(chosen)
        assert chosen == expected
        assert kv.failed_cores == set(expected)

    def test_fast_and_scalar_paths_agree(self, tiny_arch, small_wafer_config):
        plan = FaultPlan.parse("kv_block@1e-06,stall@0.0001:0:0.01")
        fast = self._run(tiny_arch, small_wafer_config, plan, method="run")
        scalar = self._run(tiny_arch, small_wafer_config, plan, method="run_scalar")
        assert_bitwise_equal(fast, scalar)
        assert fast.faults.as_dict() == scalar.faults.as_dict()

    def test_static_kv_rejects_core_faults(self, tiny_arch, small_wafer_config):
        engine = build_engine(
            TokenGrainedPipeline, tiny_arch, small_wafer_config, "static"
        )
        with pytest.raises(ConfigurationError):
            engine.run(mixed_trace(), fault_plan=FaultPlan.parse("kv_core@0.1"))

    def test_weight_core_needs_recovery_hook(self, tiny_arch, small_wafer_config):
        """A bare engine has no remapping model, so weight faults are refused."""
        engine = build_engine(
            TokenGrainedPipeline, tiny_arch, small_wafer_config, "dynamic"
        )
        with pytest.raises(ConfigurationError):
            engine.run(mixed_trace(), fault_plan=FaultPlan.parse("weight_core@0.1"))


class TestSystemFaultInjection:
    """All four fault kinds through the built system's recovery model."""

    PLAN = "weight_core@0.0001,kv_core@0.0002,kv_block@0.0003,stall@0.0004:0:0.001"

    def _serve(self, small_wafer_config, tiny_arch, plan=None, **kwargs):
        from repro.core.system import OuroborosSystem
        from repro.sim.engine import OuroborosSystemConfig

        config = OuroborosSystemConfig(
            wafer=small_wafer_config,
            anneal_iterations=0,
            model_defects=False,
            pipeline=PipelineConfig(
                chunk_tokens=16, context_quantum=16, max_active_sequences=4
            ),
        )
        system = OuroborosSystem(tiny_arch, config, auto_scale_wafers=False)
        trace = make_trace(num_requests=16, prefill=32, decode=16)
        return system.serve(
            trace,
            fault_plan=FaultPlan.parse(plan) if plan else None,
            **kwargs,
        )

    def test_all_kinds_inject_and_recover(self, small_wafer_config, tiny_arch):
        result = self._serve(small_wafer_config, tiny_arch, plan=self.PLAN)
        stats = result.faults
        assert stats.injected == 4
        assert stats.weight_core_failures == 1
        assert stats.kv_core_failures == 1
        assert stats.kv_block_losses == 1
        assert stats.admission_stalls == 1
        assert stats.recovery_latency_s > 0  # the replacement chain cost time
        baseline = self._serve(small_wafer_config, tiny_arch)
        assert result.total_time_s > baseline.total_time_s

    def test_deterministic_across_runs(self, small_wafer_config, tiny_arch):
        first = self._serve(small_wafer_config, tiny_arch, plan=self.PLAN)
        second = self._serve(small_wafer_config, tiny_arch, plan=self.PLAN)
        assert_bitwise_equal(first, second)
        assert first.faults.as_dict() == second.faults.as_dict()

    def test_resume_mid_fault_plan_is_bitwise(self, small_wafer_config, tiny_arch):
        """Checkpointing between fault events replays the rest on resume."""
        from repro.pipeline.checkpoint import EngineCheckpoint

        baseline = self._serve(small_wafer_config, tiny_arch, plan=self.PLAN)
        checkpoint = self._serve(
            small_wafer_config, tiny_arch, plan=self.PLAN, suspend_at_epoch=3
        )
        assert isinstance(checkpoint, EngineCheckpoint)
        restored = EngineCheckpoint.from_dict(
            json.loads(json.dumps(checkpoint.as_dict()))
        )
        resumed = self._serve(
            small_wafer_config, tiny_arch, plan=self.PLAN, resume_from=restored
        )
        assert_bitwise_equal(baseline, resumed)
        assert baseline.faults.as_dict() == resumed.faults.as_dict()


class TestOverloadShedding:
    SLO = SLOTarget(ttft_s=0.002, latency_s=1.0, goodput_target=0.95)

    def _overload_trace(self, rate_per_s=8250.0):
        spec = WorkloadSpec(
            name="overload",
            distribution=UniformLengthDistribution(
                prefill_low=32, prefill_high=96, decode_low=4, decode_high=32
            ),
            num_requests=120,
            seed=3,
            arrival_rate_per_s=rate_per_s,
        )
        trace = stream_from_spec(spec).materialize()
        trace.slo = self.SLO
        return trace

    def _engine(self, tiny_arch, small_wafer_config, **shed):
        from repro.kvcache.manager import DistributedKVCacheManager
        from repro.pipeline.stages import TokenCostModel

        config = PipelineConfig(
            chunk_tokens=32, context_quantum=32, max_active_sequences=2, **shed
        )
        kv_manager = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(48)), blocks_per_core=256
        )
        cost_model = TokenCostModel(arch=tiny_arch, wafer_config=small_wafer_config)
        return TokenGrainedPipeline(tiny_arch, cost_model, kv_manager, config=config)

    def test_deadline_shedding_raises_goodput_past_saturation(
        self, tiny_arch, small_wafer_config
    ):
        no_shed = self._engine(tiny_arch, small_wafer_config).run(
            self._overload_trace()
        )
        shed = self._engine(
            tiny_arch, small_wafer_config, shed_deadline=True, shed_headroom_s=0.0008
        ).run(self._overload_trace())
        assert shed.shed_requests > 0
        assert no_shed.shed_requests == 0
        # The whole point: dropping hopeless requests early frees the wafer
        # for requests that can still meet their deadline.
        assert shed.goodput > no_shed.goodput
        # Shed requests count against goodput -- the denominator includes them.
        assert shed.goodput < 1.0

    def test_shed_knobs_default_off_bitwise(self, tiny_arch, small_wafer_config):
        """Explicitly-disabled shedding reproduces the default engine exactly."""
        default = self._engine(tiny_arch, small_wafer_config).run(
            self._overload_trace()
        )
        explicit = self._engine(
            tiny_arch,
            small_wafer_config,
            shed_deadline=False,
            shed_headroom_s=0.0,
            max_queue_depth=None,
            shed_retries=0,
            shed_backoff_s=0.0,
        ).run(self._overload_trace())
        assert_bitwise_equal(default, explicit)
        assert default.shed_requests == explicit.shed_requests == 0

    def test_depth_bound_with_retries(self, tiny_arch, small_wafer_config):
        """A bounded queue with backoff sheds without deadlocking admission."""
        result = self._engine(
            tiny_arch,
            small_wafer_config,
            shed_deadline=True,
            shed_headroom_s=0.0008,
            max_queue_depth=4,
            shed_retries=2,
            shed_backoff_s=0.001,
        ).run(self._overload_trace())
        assert result.shed_requests > 0
        # Every request was either served or accounted as shed.
        served = result.ttft.count
        assert served + result.shed_requests == 120

    def test_fast_and_scalar_agree_with_shedding(self, tiny_arch, small_wafer_config):
        fast = self._engine(
            tiny_arch, small_wafer_config, shed_deadline=True, shed_headroom_s=0.0008
        ).run(self._overload_trace())
        scalar = self._engine(
            tiny_arch, small_wafer_config, shed_deadline=True, shed_headroom_s=0.0008
        ).run_scalar(self._overload_trace())
        assert_bitwise_equal(fast, scalar)
        assert fast.shed_requests == scalar.shed_requests


class TestCLIErrorSurface:
    """ReproError subclasses surface as one-line errors with exit code 2."""

    def test_malformed_fault_plan_exits_2(self, capsys):
        from repro.cli import main

        code = main(["serve", "llama-13b", "--fault-plan", "bogus@0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "bogus" in captured.err
        assert "Traceback" not in captured.err

    def test_faults_with_baselines_exits_2(self, capsys):
        from repro.cli import main

        code = main(
            ["serve", "llama-13b", "--baselines", "--fault-plan", "kv_block@0.5"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
