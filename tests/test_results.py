"""Tests for the shared result dataclasses."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.results import EXACT_SAMPLE_LIMIT, EnergyBreakdown, LatencyStats, P2Quantile, RunResult


class TestLatencyStats:
    def test_empty_samples(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.mean_s == 0.0
        assert stats.p99_s == 0.0

    def test_single_sample(self):
        stats = LatencyStats.from_samples([0.25])
        assert stats.count == 1
        assert stats.mean_s == 0.25
        assert stats.p50_s == 0.25
        assert stats.p99_s == 0.25
        assert stats.max_s == 0.25

    def test_percentiles_are_ordered(self):
        stats = LatencyStats.from_samples([float(i) for i in range(1, 101)])
        assert stats.mean_s == pytest.approx(50.5)
        assert stats.p50_s <= stats.p95_s <= stats.p99_s <= stats.max_s
        assert stats.p50_s == pytest.approx(50.5)
        assert stats.max_s == 100.0

    def test_as_dict(self):
        data = LatencyStats.from_samples([1.0, 2.0, 3.0]).as_dict()
        assert data["count"] == 3
        assert data["mean_s"] == pytest.approx(2.0)
        assert set(data) == {"count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s"}


@st.composite
def latency_samples(draw):
    """1 to ``EXACT_SAMPLE_LIMIT`` non-negative samples: many ties (a few
    distinct values) or spread over many orders of magnitude."""
    size = draw(st.one_of(st.integers(1, 12), st.integers(1, EXACT_SAMPLE_LIMIT)))
    if draw(st.booleans()):
        pool = draw(st.lists(
            st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=4
        ))
        picks = draw(st.lists(
            st.integers(0, len(pool) - 1), min_size=size, max_size=size
        ))
        return [pool[pick] for pick in picks]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-9, 9, size)
    return (rng.random(size) * scale).tolist()


class TestExactPercentiles:
    """The p50/p95/p99 of an exact accumulator are ``np.percentile``'s, bit
    for bit, without calling it."""

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=np.float64).tobytes()

    @given(samples=latency_samples())
    @settings(max_examples=300, deadline=None)
    def test_from_samples_matches_numpy(self, samples):
        stats = LatencyStats.from_samples(samples)
        expected = np.percentile(np.asarray(samples), (50.0, 95.0, 99.0))
        assert self._bits([stats.p50_s, stats.p95_s, stats.p99_s]) == self._bits(expected)

    @given(
        samples=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=4),
        p=st.sampled_from([0.5, 0.95, 0.99, 0.1, 0.37]),
    )
    @settings(max_examples=300, deadline=None)
    def test_p2_warmup_matches_numpy(self, samples, p):
        estimator = P2Quantile(p)
        for sample in samples:
            estimator.add(sample)
        expected = np.percentile(np.asarray(samples), p * 100.0)
        assert self._bits(estimator.value()) == self._bits(expected)

    def test_nan_sample_gives_nan_like_numpy(self):
        stats = LatencyStats.from_samples([0.5, float("nan"), 0.25])
        assert np.isnan([stats.p50_s, stats.p95_s, stats.p99_s]).all()

    def test_serve_leaves_numpy_ma_unimported(self):
        """``np.percentile``'s first call imports ``numpy.ma``, ~11 ms inside
        a process's first timed serve; the exact path no longer does."""
        code = (
            "import sys\n"
            "from repro import api\n"
            "spec = api.deployment('llama-13b').workload('wikitext2', 20).build()\n"
            "result = api.serve(spec)\n"
            "assert result.ttft.count == 20, result.ttft\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=25, check=True,
        )
        assert done.stdout.strip() == "False"


class TestEnergyBreakdown:
    def test_total(self):
        energy = EnergyBreakdown(1.0, 2.0, 3.0, 4.0)
        assert energy.total_j == 10.0

    def test_addition(self):
        a = EnergyBreakdown(1.0, 1.0, 1.0, 1.0)
        b = EnergyBreakdown(2.0, 0.0, 0.0, 0.0)
        total = a + b
        assert total.compute_j == 3.0
        assert total.total_j == 6.0

    def test_scaled(self):
        energy = EnergyBreakdown(1.0, 2.0, 3.0, 4.0).scaled(0.5)
        assert energy.total_j == 5.0

    def test_fractions_sum_to_one(self):
        energy = EnergyBreakdown(1.0, 2.0, 3.0, 4.0)
        assert sum(energy.fractions().values()) == pytest.approx(1.0)

    def test_fractions_of_zero_energy(self):
        assert all(value == 0.0 for value in EnergyBreakdown().fractions().values())

    def test_as_dict(self):
        data = EnergyBreakdown(1.0, 0.0, 0.0, 0.0).as_dict()
        assert data["compute_j"] == 1.0
        assert data["total_j"] == 1.0


class TestRunResult:
    def make(self, time_s=2.0, output=100, total=200) -> RunResult:
        return RunResult(
            system="test",
            model="tiny",
            workload="unit",
            total_time_s=time_s,
            total_tokens=total,
            output_tokens=output,
            energy=EnergyBreakdown(compute_j=1.0),
        )

    def test_throughput(self):
        result = self.make()
        assert result.throughput_tokens_per_s == 50.0
        assert result.total_throughput_tokens_per_s == 100.0

    def test_zero_time_throughput(self):
        assert self.make(time_s=0.0).throughput_tokens_per_s == 0.0

    def test_energy_per_output_token(self):
        assert self.make().energy_per_output_token_j == pytest.approx(0.01)

    def test_zero_output_energy(self):
        assert self.make(output=0).energy_per_output_token_j == 0.0

    def test_as_dict_round_trip(self):
        data = self.make().as_dict()
        assert data["system"] == "test"
        assert data["throughput_tokens_per_s"] == 50.0
        assert "energy" in data
        assert data["ttft"]["count"] == 0
        assert data["latency"]["count"] == 0

    def test_default_latency_stats_are_empty(self):
        result = self.make()
        assert result.ttft.count == 0
        assert result.latency.count == 0

    def test_fault_and_shed_accounting_in_dict(self):
        from repro.results import FaultStats

        result = self.make()
        result.faults = FaultStats(injected=3, kv_block_losses=2, admission_stalls=1)
        result.shed_requests = 4
        data = result.as_dict()
        assert data["faults"]["injected"] == 3
        assert data["faults"]["kv_block_losses"] == 2
        assert data["shed_requests"] == 4
        # No fault plan -> the field stays None, not an all-zero dict.
        assert self.make().as_dict()["faults"] is None


class TestFaultStats:
    def test_dict_round_trip(self):
        import json

        from repro.results import FaultStats

        stats = FaultStats(
            injected=5,
            kv_core_failures=1,
            weight_core_failures=1,
            kv_block_losses=2,
            admission_stalls=1,
            recovered_sequences=4,
            recompute_tokens=128,
            recovery_latency_s=0.25,
            stall_time_s=0.05,
        )
        data = json.loads(json.dumps(stats.as_dict()))
        assert FaultStats(**data) == stats


class TestEngineCheckpointSnapshot:
    def make(self):
        from repro.pipeline.checkpoint import EngineCheckpoint

        return EngineCheckpoint(
            next_epoch_index=7,
            time_s=1.25,
            energy={"compute_j": 3.5, "communication_j": 0.125},
            processed_tokens=4096,
            utilization_time=1.0,
            stalled_epochs=1,
            split_epochs=2,
            epochs=[{"index": 0, "time_s": 0.5}],
            sequences={"0": {"phase": "decode"}},
            scheduler={"queue": [1, 2]},
            kv={"blocks": {"0": [1, 2, 3]}},
        )

    def test_dict_round_trip(self):
        from repro.pipeline.checkpoint import EngineCheckpoint

        checkpoint = self.make()
        assert EngineCheckpoint.from_dict(checkpoint.as_dict()) == checkpoint

    def test_json_round_trip_is_exact(self):
        """Floats survive the on-disk JSON encoding bit for bit."""
        import json

        from repro.pipeline.checkpoint import EngineCheckpoint

        checkpoint = self.make()
        restored = EngineCheckpoint.from_dict(
            json.loads(json.dumps(checkpoint.as_dict()))
        )
        assert restored == checkpoint
        assert restored.time_s == checkpoint.time_s
        assert restored.energy == checkpoint.energy

    def test_version_mismatch_rejected(self):
        from repro.errors import ConfigurationError
        from repro.pipeline.checkpoint import EngineCheckpoint

        data = self.make().as_dict()
        data["version"] = 999
        with pytest.raises(ConfigurationError):
            EngineCheckpoint.from_dict(data)
