"""Tests for the mesh network-on-wafer model."""

import pytest

from repro.hardware.noc import NoCConfig, NoCModel


@pytest.fixture
def noc(small_wafer):
    return NoCModel(small_wafer)


class TestRouting:
    def test_same_core_zero(self, noc):
        assert noc.route_hops(5, 5) == (0, 0)

    def test_xy_route_matches_manhattan(self, noc, small_wafer):
        a = small_wafer.core_id_at(0, 0)
        b = small_wafer.core_id_at(2, 5)
        hops, crossings = noc.route_hops(a, b)
        assert hops == 7
        assert crossings == 1

    def test_transfer_cost_zero_bytes(self, noc):
        cost = noc.transfer_cost(0, 1, 0)
        assert cost.latency_s == 0.0
        assert cost.energy_j == 0.0

    def test_transfer_latency_components(self, noc, small_wafer):
        a = small_wafer.core_id_at(0, 0)
        b = small_wafer.core_id_at(0, 2)
        config = NoCConfig()
        cost = noc.transfer_cost(a, b, 1024)
        expected = 2 * config.per_hop_latency_s + 1024 / config.link_bandwidth_bytes_per_s
        assert cost.latency_s == pytest.approx(expected)

    def test_transfer_energy_scales_with_bytes(self, noc):
        small = noc.transfer_cost(0, 3, 512)
        large = noc.transfer_cost(0, 3, 2048)
        assert large.energy_j == pytest.approx(4 * small.energy_j)

    def test_die_crossing_adds_latency_and_energy(self, noc, small_wafer):
        same_die = noc.transfer_cost(
            small_wafer.core_id_at(0, 0), small_wafer.core_id_at(0, 3), 1024
        )
        cross_die = noc.transfer_cost(
            small_wafer.core_id_at(0, 1), small_wafer.core_id_at(0, 4), 1024
        )
        assert cross_die.latency_s > same_die.latency_s
        assert cross_die.energy_j > same_die.energy_j

