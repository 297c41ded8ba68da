"""Tests for the crossbar cost model (GEMV and write costs, Fig. 11 area)."""

import pytest

from repro.hardware.crossbar import (
    Crossbar,
    effective_sram_ratio,
    throughput_vs_activation_ratio,
)


@pytest.fixture
def crossbar():
    return Crossbar()


class TestGemvCost:
    def test_full_gemv_cycles(self, crossbar):
        cost = crossbar.gemv_cost()
        assert cost.cycles == 256
        assert cost.macs == 1024 * 128

    def test_partial_rows_fewer_cycles(self, crossbar):
        full = crossbar.gemv_cost()
        partial = crossbar.gemv_cost(active_rows=128)
        assert partial.cycles < full.cycles
        assert partial.energy_j < full.energy_j

    def test_zero_rows_zero_cost(self, crossbar):
        cost = crossbar.gemv_cost(active_rows=0)
        assert cost.cycles == 0
        assert cost.energy_j == 0.0

    def test_rows_clamped_to_array(self, crossbar):
        cost = crossbar.gemv_cost(active_rows=10_000)
        assert cost.cycles == crossbar.gemv_cost().cycles

    def test_energy_scales_with_active_fraction(self, crossbar):
        half = crossbar.gemv_cost(active_cols=64)
        full = crossbar.gemv_cost(active_cols=128)
        assert half.energy_j == pytest.approx(full.energy_j / 2, rel=0.01)

    def test_latency_matches_cycles(self, crossbar):
        cost = crossbar.gemv_cost()
        assert cost.latency_s == pytest.approx(cost.cycles / 300e6)

    def test_write_cost_positive(self, crossbar):
        cost = crossbar.write_cost(1024)
        assert cost.cycles == 32
        assert cost.energy_j > 0


class TestAreaTradeoff:
    def test_effective_sram_ratio_reference_is_one(self):
        assert effective_sram_ratio(1 / 32) == pytest.approx(1.0)

    def test_higher_ratio_less_sram(self):
        assert effective_sram_ratio(1 / 8) < 1.0

    def test_lower_ratio_more_sram(self):
        assert effective_sram_ratio(1 / 128) > 1.0

    def test_throughput_peaks_at_paper_ratio(self):
        ratios = [1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128]
        curve = throughput_vs_activation_ratio(ratios)
        best = max(curve, key=curve.get)
        assert best == pytest.approx(1 / 32)
        assert curve[best] == pytest.approx(1.0)

    def test_throughput_curve_normalized(self):
        curve = throughput_vs_activation_ratio([1 / 16, 1 / 32, 1 / 64])
        assert max(curve.values()) == pytest.approx(1.0)
        assert all(0 < value <= 1.0 for value in curve.values())

    def test_curve_monotone_on_each_side_of_peak(self):
        ratios = [1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256]
        curve = throughput_vs_activation_ratio(ratios)
        ordered = [curve[r] for r in sorted(ratios)]  # ascending ratio
        peak_index = ordered.index(max(ordered))
        assert all(
            ordered[i] <= ordered[i + 1] for i in range(peak_index)
        )
        assert all(
            ordered[i] >= ordered[i + 1] for i in range(peak_index, len(ordered) - 1)
        )
