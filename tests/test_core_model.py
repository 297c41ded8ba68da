"""Tests for the CIM core cost model."""

import pytest

from repro.hardware.core import CIMCore


@pytest.fixture
def core():
    return CIMCore(core_id=0)


class TestCompute:
    def test_gemv_cost_single_crossbar_tile(self, core):
        cost = core.gemv_cost(input_dim=1024, output_dim=128)
        assert cost.cycles == 256
        assert cost.macs == 1024 * 128

    def test_gemv_cost_parallel_tiles_same_latency(self, core):
        one_tile = core.gemv_cost(input_dim=1024, output_dim=128)
        many_tiles = core.gemv_cost(input_dim=1024, output_dim=128 * 16)
        # 16 tiles fit in 32 crossbars -> still one wave.
        assert many_tiles.latency_s == pytest.approx(one_tile.latency_s, rel=0.05)
        assert many_tiles.energy_j > one_tile.energy_j

    def test_gemv_cost_waves_when_oversubscribed(self, core):
        one_wave = core.gemv_cost(input_dim=1024, output_dim=128 * 32)
        two_waves = core.gemv_cost(input_dim=1024 * 2, output_dim=128 * 32)
        assert two_waves.latency_s > one_wave.latency_s

    def test_gemv_energy_scales_with_macs(self, core):
        small = core.gemv_cost(input_dim=512, output_dim=128)
        large = core.gemv_cost(input_dim=1024, output_dim=256)
        assert large.energy_j > small.energy_j

    def test_sfu_cost(self, core):
        cost = core.sfu_cost(elements=640)
        assert cost.latency_s == pytest.approx(10 / 1e9)
        assert cost.energy_j > 0

    def test_sfu_zero_elements(self, core):
        cost = core.sfu_cost(elements=0)
        assert cost.latency_s == 0.0

    def test_buffer_write_energy(self, core):
        assert core.buffer_write_cost(1024) > 0
        assert core.buffer_write_cost(2048) == pytest.approx(
            2 * core.buffer_write_cost(1024)
        )
