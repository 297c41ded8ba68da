"""Tests for wafer geometry, capacities, S-shaped ordering and defects."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hardware.config import DieConfig, WaferConfig
from repro.hardware.wafer import Wafer
from repro.hardware.yieldmodel import DefectMap


def boustrophedon(wafer, band_height=1):
    """The S-shaped order as a per-core loop: the reference for the array build."""
    if band_height < 1:
        band_height = 1
    order = []
    num_bands = (wafer.core_rows + band_height - 1) // band_height
    for band in range(num_bands):
        row_start = band * band_height
        row_end = min(wafer.core_rows, row_start + band_height)
        cols = range(wafer.core_cols) if band % 2 == 0 else reversed(range(wafer.core_cols))
        for index, col in enumerate(cols):
            rows = (
                range(row_start, row_end)
                if index % 2 == 0
                else reversed(range(row_start, row_end))
            )
            for row in rows:
                order.append(wafer.core_id_at(row, col))
    return order


@st.composite
def wafers(draw, max_defects=0):
    """Small wafers of any die grid and die shape, optionally with defects."""
    die = DieConfig(rows=draw(st.integers(1, 5)), cols=draw(st.integers(1, 5)))
    config = WaferConfig(
        die=die, die_rows=draw(st.integers(1, 3)), die_cols=draw(st.integers(1, 3))
    )
    defects = draw(
        st.frozensets(
            st.integers(0, config.cores_per_wafer - 1), max_size=max_defects
        )
    )
    return Wafer(
        config,
        defect_map=DefectMap(
            defects, core_yield=1.0, total_cores=config.cores_per_wafer
        ),
    )


class TestGeometry:
    def test_num_cores(self, small_wafer):
        assert small_wafer.num_cores == 64

    def test_coordinate_roundtrip(self, small_wafer):
        for core_id in (0, 7, 8, 63):
            coord = small_wafer.coordinate_of(core_id)
            assert small_wafer.core_id_at(coord.row, coord.col) == core_id

    def test_coordinate_out_of_range(self, small_wafer):
        with pytest.raises(ConfigurationError):
            small_wafer.coordinate_of(64)
        with pytest.raises(ConfigurationError):
            small_wafer.core_id_at(100, 0)

    def test_manhattan_distance(self, small_wafer):
        a = small_wafer.core_id_at(0, 0)
        b = small_wafer.core_id_at(3, 5)
        assert small_wafer.manhattan(a, b) == 8
        assert small_wafer.manhattan(a, a) == 0

    def test_die_membership(self, small_wafer):
        # 4x4 cores per die; core (0,0) and (0,3) same die, (0,4) next die.
        a = small_wafer.core_id_at(0, 0)
        b = small_wafer.core_id_at(0, 3)
        c = small_wafer.core_id_at(0, 4)
        assert small_wafer.same_die(a, b)
        assert not small_wafer.same_die(a, c)
        assert small_wafer.die_crossings(a, c) == 1

    def test_die_of(self, small_wafer):
        core = small_wafer.core_id_at(5, 6)
        die = small_wafer.die_of(core)
        assert die.coordinate.row == 1
        assert die.coordinate.col == 1

    def test_neighbors_interior(self, small_wafer):
        core = small_wafer.core_id_at(3, 3)
        assert len(small_wafer.neighbors(core)) == 4

    def test_neighbors_corner(self, small_wafer):
        assert len(small_wafer.neighbors(0)) == 2

    def test_neighbors_are_adjacent(self, small_wafer):
        core = small_wafer.core_id_at(2, 2)
        for neighbor in small_wafer.neighbors(core):
            assert small_wafer.manhattan(core, neighbor) == 1

    def test_capacities(self, small_wafer):
        assert small_wafer.sram_bytes == 64 * 4 * 1024 * 1024
        assert small_wafer.usable_sram_bytes == small_wafer.sram_bytes
        assert small_wafer.peak_ops_per_second > 0

    @given(wafer=wafers(max_defects=3))
    @settings(max_examples=40, deadline=None)
    def test_geometry_is_shared_read_only_and_exact(self, wafer):
        """Every wafer of one shape reads one read-only geometry, whatever
        its defects; its arrays and coordinate tuples are each core's
        coordinates and die."""
        geometry = wafer.geometry()
        assert Wafer(wafer.config).geometry() is geometry
        arrays = (geometry.rows, geometry.cols, geometry.die_rows, geometry.die_cols)
        assert not any(array.flags.writeable for array in arrays)
        assert geometry.coordinates == tuple(tuple(a.tolist()) for a in arrays)
        rows, cols, die_rows, die_cols = geometry.coordinates
        for core_id in range(wafer.num_cores):
            coordinate = wafer.coordinate_of(core_id)
            die = wafer.die_of(core_id).coordinate
            assert (rows[core_id], cols[core_id]) == (coordinate.row, coordinate.col)
            assert (die_rows[core_id], die_cols[core_id]) == (die.row, die.col)


class TestSShapedOrder:
    def test_covers_all_cores_once(self, small_wafer):
        order = small_wafer.s_shaped_order()
        assert sorted(order) == list(range(64))

    def test_consecutive_cores_adjacent(self, small_wafer):
        order = small_wafer.s_shaped_order()
        distances = [
            small_wafer.manhattan(a, b) for a, b in zip(order, order[1:])
        ]
        assert max(distances) == 1

    def test_banded_order_covers_all_cores(self, small_wafer):
        order = small_wafer.s_shaped_order(band_height=3)
        assert sorted(order) == list(range(64))

    def test_banded_order_keeps_slices_compact(self, small_wafer):
        order = small_wafer.s_shaped_order(band_height=4)
        slice_cores = order[:16]
        coords = [small_wafer.coordinate_of(c) for c in slice_cores]
        row_span = max(c.row for c in coords) - min(c.row for c in coords)
        col_span = max(c.col for c in coords) - min(c.col for c in coords)
        assert row_span <= 4
        assert col_span <= 4

    def test_band_height_below_one_clamped(self, small_wafer):
        assert small_wafer.s_shaped_order(band_height=0) == small_wafer.s_shaped_order(1)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), wafer=wafers())
    def test_array_order_matches_the_per_core_loop(self, data, wafer):
        band_height = data.draw(st.integers(0, wafer.core_rows + 1))
        order = wafer.s_shaped_order(band_height)
        assert order == boustrophedon(wafer, band_height)
        assert all(type(core) is int for core in order)

    def test_default_wafer_orders_match_the_per_core_loop(self):
        wafer = Wafer()
        for band_height in (1, 19, wafer.core_rows, wafer.core_rows + 1):
            assert wafer.s_shaped_order(band_height) == boustrophedon(wafer, band_height)


class TestDefects:
    def test_no_defect_map_all_healthy(self, small_wafer):
        assert small_wafer.num_healthy_cores == 64
        assert not small_wafer.is_defective(0)

    def test_defect_map_applied(self, small_wafer_config):
        defects = DefectMap(
            defective_cores=frozenset({3, 10}), core_yield=0.99, total_cores=64
        )
        wafer = Wafer(small_wafer_config, defect_map=defects)
        assert wafer.is_defective(3)
        assert not wafer.is_defective(4)
        assert wafer.num_healthy_cores == 62
        assert 3 not in wafer.healthy_core_ids()

    def test_mismatched_defect_map_rejected(self, small_wafer_config):
        defects = DefectMap(
            defective_cores=frozenset(), core_yield=1.0, total_cores=100
        )
        with pytest.raises(ConfigurationError):
            Wafer(small_wafer_config, defect_map=defects)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), wafer=wafers(max_defects=12))
    def test_healthy_filter_matches_the_defect_map(self, data, wafer):
        """Every defect lookup of the wafer agrees with its defect map."""
        defective = wafer.defect_map.defective_cores
        core_ids = data.draw(
            st.lists(st.integers(0, wafer.num_cores - 1), max_size=40)
        )
        assert wafer.healthy(core_ids) == [c for c in core_ids if c not in defective]
        assert wafer.healthy_mask(core_ids).tolist() == [
            c not in defective for c in core_ids
        ]
        assert [wafer.is_defective(c) for c in core_ids] == [
            c in defective for c in core_ids
        ]
        band_height = data.draw(st.integers(0, wafer.core_rows + 1))
        assert wafer.healthy_s_shaped_order(band_height) == [
            c for c in boustrophedon(wafer, band_height) if c not in defective
        ]
        assert wafer.healthy_core_ids() == [
            c for c in range(wafer.num_cores) if c not in defective
        ]

    def test_healthy_filter_names_the_first_id_outside_the_wafer(self, small_wafer):
        with pytest.raises(ConfigurationError, match="core id 64 outside"):
            small_wafer.healthy([3, 64, -1, 70])
        with pytest.raises(ConfigurationError, match="core id -1 outside"):
            small_wafer.healthy([3, -1, 64])
        # The mask itself reads an id outside the wafer as not healthy.
        assert small_wafer.healthy_mask([3, 64, -1]).tolist() == [True, False, False]
        assert small_wafer.healthy([]) == []

    def test_defect_ids_outside_the_wafer_mark_nothing(self, small_wafer_config):
        wafer = Wafer(
            small_wafer_config,
            defect_map=DefectMap(frozenset({-1, 5, 64}), core_yield=0.9, total_cores=64),
        )
        assert wafer.healthy([5, 63, 0]) == [63, 0]
        assert wafer.is_defective(5) and not wafer.is_defective(63)
        with pytest.raises(ConfigurationError, match="core id 64 outside"):
            wafer.is_defective(64)
