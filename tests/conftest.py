"""Shared fixtures: a small wafer and a tiny model so unit tests stay fast."""

from __future__ import annotations

import signal
import threading

import pytest

from repro.hardware.config import CoreConfig, CrossbarConfig, DieConfig, WaferConfig
from repro.hardware.energy import EnergyModel
from repro.hardware.wafer import Wafer
from repro.models.architectures import ModelArch
from repro.pipeline.engine import PipelineConfig
from repro.sim.engine import OuroborosSystemConfig
from repro.workload.distributions import FixedLengthDistribution
from repro.workload.generator import Trace, WorkloadSpec
from repro.workload.streams import stream_from_spec

#: wall-clock budget, in seconds, of one test outside the ``slow`` tier.  The
#: slowest fast test takes ~2.5 s, so a test that runs this long is stuck
#: (a livelocked epoch loop, a wait that never returns), not slow.
FAST_TEST_BUDGET_S = 30


@pytest.fixture(autouse=True)
def fast_test_budget(request):
    """Fail a test not marked ``slow`` once it runs past its budget.

    ``pytest-timeout`` is not a dependency, so this arms ``ITIMER_REAL``
    directly (POSIX, main thread only) and restores the previous SIGALRM
    handler afterwards.
    """
    if (
        request.node.get_closest_marker("slow") is not None
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def expire(signum, frame):
        pytest.fail(
            f"test ran past its {FAST_TEST_BUDGET_S} s budget (mark it slow "
            "if it is meant to take this long)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, FAST_TEST_BUDGET_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def small_wafer_config() -> WaferConfig:
    """A 2x2-die wafer with 4x4 cores per die (64 cores total)."""
    die = DieConfig(core=CoreConfig(), rows=4, cols=4, width_mm=10.0, height_mm=10.0)
    return WaferConfig(die=die, die_rows=2, die_cols=2, wafer_side_mm=30.0)


@pytest.fixture
def small_wafer(small_wafer_config) -> Wafer:
    return Wafer(small_wafer_config)


@pytest.fixture
def tiny_arch() -> ModelArch:
    """A 2-block toy transformer whose per-layer weights fit single cores."""
    return ModelArch(
        name="Tiny-0.01B",
        num_blocks=2,
        hidden_size=256,
        num_heads=4,
        ffn_hidden_size=512,
        vocab_size=1000,
        max_context=256,
    )


@pytest.fixture
def small_arch() -> ModelArch:
    """A slightly larger toy model that needs several cores per layer."""
    return ModelArch(
        name="Small-0.4B",
        num_blocks=4,
        hidden_size=2048,
        num_heads=16,
        ffn_hidden_size=8192,
        vocab_size=8000,
        max_context=1024,
    )


@pytest.fixture
def energy_model() -> EnergyModel:
    return EnergyModel()


@pytest.fixture
def crossbar_config() -> CrossbarConfig:
    return CrossbarConfig()


@pytest.fixture
def small_system_config(small_wafer_config) -> OuroborosSystemConfig:
    """System configuration bound to the small wafer, fast pipeline settings."""
    return OuroborosSystemConfig(
        wafer=small_wafer_config,
        anneal_iterations=0,
        model_defects=False,
        pipeline=PipelineConfig(chunk_tokens=64, context_quantum=64),
    )


def make_trace(
    num_requests: int = 8, prefill: int = 32, decode: int = 16, seed: int = 0
) -> Trace:
    """Deterministic fixed-length trace used across integration tests."""
    spec = WorkloadSpec(
        name=f"fixed-{prefill}-{decode}",
        distribution=FixedLengthDistribution(prefill_length=prefill, decode_length=decode),
        num_requests=num_requests,
        seed=seed,
    )
    return stream_from_spec(spec).materialize()


@pytest.fixture
def small_trace() -> Trace:
    return make_trace()
