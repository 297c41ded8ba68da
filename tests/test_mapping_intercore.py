"""Tests for the inter-core mapper (greedy + annealing) and whole-model mapping."""

import hashlib
import itertools
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.system import OuroborosSystem
from repro.errors import ConfigurationError, MappingError
from repro.hardware.wafer import Wafer
from repro.hardware.yieldmodel import DefectMap
from repro.mapping.intercore import BlockMapper, _apply_pattern, map_model
from repro.mapping.objective import MappingProblem, Placement, evaluate_placement
from repro.units import MB

GOLDEN_MAPPING = Path(__file__).parent / "fixtures" / "llama13b_mapping.json"


def mapping_digest(mapping) -> dict:
    """What the golden fixture pins of a whole-wafer mapping."""
    blocks = [
        [block.weight_core_ids, block.kv_core_ids] for block in mapping.block_mappings
    ]
    placements = [
        [[str(tile), core] for tile, core in block.placement.assignment.items()]
        for block in mapping.block_mappings
    ]
    return {
        "blocks": len(blocks),
        "weight_cores": len(mapping.weight_core_ids),
        "kv_cores": len(mapping.kv_core_ids),
        "core_ids_sha256": hashlib.sha256(json.dumps(blocks).encode()).hexdigest(),
        "placement_sha256": hashlib.sha256(json.dumps(placements).encode()).hexdigest(),
        "total_cost": mapping.total_cost().as_dict(),
        "activation_route_hops": mapping.activation_route_hops,
    }


def replicate_per_slot(wafer, tiles, region, pattern):
    """Pattern replication as a per-slot loop asking the wafer about each core:
    the reference ``_apply_pattern`` must reproduce."""
    used = set()
    assignment = {}
    fallback = iter(core for core in region if not wafer.is_defective(core))
    for tile, index in zip(tiles, pattern):
        core = region[index] if index < len(region) else None
        if core is None or wafer.is_defective(core) or core in used:
            core = next((c for c in fallback if c not in used), None)
            if core is None:
                raise MappingError("not enough healthy cores to replicate the pattern")
        assignment[tile] = core
        used.add(core)
    return assignment


@pytest.fixture
def tiny_problem(tiny_arch):
    return MappingProblem.from_arch(tiny_arch, core_weight_capacity_bytes=4 * MB)


class TestBlockMapper:
    def test_greedy_places_all_tiles(self, tiny_problem, small_wafer):
        mapper = BlockMapper(tiny_problem, small_wafer)
        mapping = mapper.map_block(list(range(16)))
        assert len(mapping.weight_core_ids) == len(tiny_problem.tiles())
        assert set(mapping.weight_core_ids) <= set(range(16))

    def test_kv_cores_are_leftover_region_cores(self, tiny_problem, small_wafer):
        mapper = BlockMapper(tiny_problem, small_wafer)
        mapping = mapper.map_block(list(range(16)))
        assert set(mapping.kv_core_ids) == set(range(16)) - set(mapping.weight_core_ids)

    def test_insufficient_region_rejected(self, tiny_problem, small_wafer):
        mapper = BlockMapper(tiny_problem, small_wafer)
        with pytest.raises(MappingError):
            mapper.map_block([0, 1])

    def test_defective_cores_skipped(self, tiny_problem, small_wafer_config):
        wafer = Wafer(
            small_wafer_config,
            defect_map=DefectMap(frozenset({0, 1}), core_yield=0.97, total_cores=64),
        )
        mapper = BlockMapper(tiny_problem, wafer)
        mapping = mapper.map_block(list(range(16)))
        assert 0 not in mapping.weight_core_ids
        assert 1 not in mapping.weight_core_ids

    def test_annealing_does_not_worsen_cost(self, tiny_problem, small_wafer):
        region = list(range(16))
        greedy_only = BlockMapper(tiny_problem, small_wafer, anneal_iterations=0)
        annealed = BlockMapper(tiny_problem, small_wafer, anneal_iterations=150, seed=1)
        greedy_cost = greedy_only.map_block(region).cost.total
        annealed_cost = annealed.map_block(region).cost.total
        assert annealed_cost <= greedy_cost * 1.0001

    def test_annealing_reaches_brute_force_optimum_on_tiny_instance(
        self, tiny_problem, small_wafer
    ):
        """On a 4-tile/6-core instance the annealer should match brute force."""
        region = [0, 1, 2, 8, 9, 10]
        tiles = tiny_problem.tiles()
        best = min(
            evaluate_placement(
                tiny_problem, Placement(dict(zip(tiles, perm))), small_wafer
            ).total
            for perm in itertools.permutations(region, len(tiles))
        )
        mapper = BlockMapper(tiny_problem, small_wafer, anneal_iterations=400, seed=3)
        result = mapper.map_block(region)
        assert result.cost.total <= best * 1.10

    def test_mapping_deterministic_for_seed(self, tiny_problem, small_wafer):
        region = list(range(16))
        a = BlockMapper(tiny_problem, small_wafer, anneal_iterations=50, seed=7).map_block(region)
        b = BlockMapper(tiny_problem, small_wafer, anneal_iterations=50, seed=7).map_block(region)
        assert a.weight_core_ids == b.weight_core_ids


class TestMapModel:
    def test_map_model_covers_all_blocks(self, tiny_arch, small_wafer):
        mapping = map_model(tiny_arch, small_wafer)
        assert len(mapping.block_mappings) == tiny_arch.num_blocks
        assert mapping.num_weight_cores == 4 * tiny_arch.num_blocks

    def test_weight_and_kv_cores_disjoint(self, tiny_arch, small_wafer):
        mapping = map_model(tiny_arch, small_wafer)
        assert set(mapping.weight_core_ids).isdisjoint(mapping.kv_core_ids)

    def test_no_core_reused_across_blocks(self, tiny_arch, small_wafer):
        mapping = map_model(tiny_arch, small_wafer)
        cores = mapping.weight_core_ids
        assert len(cores) == len(set(cores))

    def test_model_too_large_rejected(self, small_arch, small_wafer):
        # Small-0.3B needs far more weight cores than the 64-core test wafer has.
        with pytest.raises(MappingError):
            map_model(small_arch, small_wafer)

    def test_single_block_model_has_no_handoff(self, tiny_arch, small_wafer):
        mapping = map_model(replace(tiny_arch, num_blocks=1), small_wafer)
        assert mapping.inter_block_cost == 0.0
        assert mapping.total_cost().total == mapping.block_mappings[0].cost.total

    def test_activation_route_hops_positive(self, tiny_arch, small_wafer):
        mapping = map_model(tiny_arch, small_wafer)
        assert mapping.activation_route_hops >= 1.0

    def test_total_cost_aggregates_blocks(self, tiny_arch, small_wafer):
        mapping = map_model(tiny_arch, small_wafer)
        assert mapping.total_cost().total >= sum(
            block.cost.total for block in mapping.block_mappings
        )
        assert mapping.byte_hops_per_token() == mapping.total_cost().total

    def test_defects_respected(self, tiny_arch, small_wafer_config):
        defective = frozenset({0, 5, 20})
        wafer = Wafer(
            small_wafer_config,
            defect_map=DefectMap(defective, core_yield=0.95, total_cores=64),
        )
        mapping = map_model(tiny_arch, wafer)
        assert not defective & set(mapping.weight_core_ids)

    def test_average_hops_per_transfer(self, tiny_arch, small_wafer):
        mapping = map_model(tiny_arch, small_wafer)
        assert mapping.average_hops_per_transfer() > 0


class TestColdBuild:
    def test_default_llama_mapping_matches_golden(self):
        mapping = OuroborosSystem("llama-13b").built.mappings[0]
        golden = json.loads(GOLDEN_MAPPING.read_text())
        golden.pop("_about")
        assert mapping_digest(mapping) == golden

    def test_cold_build_asks_the_wafer_nothing_per_core(self, monkeypatch):
        """A cold llama-13b build, its pipeline and its summary filter cores
        with arrays: no ``Wafer.is_defective`` or ``Wafer.core_id_at`` call."""
        calls = {"is_defective": 0, "core_id_at": 0}
        for name in calls:
            original = getattr(Wafer, name)

            def counted(self, *args, name=name, original=original):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(Wafer, name, counted)
        built = OuroborosSystem("llama-13b").built
        built.make_pipeline()
        built.summary()
        assert calls == {"is_defective": 0, "core_id_at": 0}

    def test_core_lists_are_derived_once(self, tiny_arch, small_wafer):
        mapping = map_model(tiny_arch, small_wafer)
        assert mapping.weight_core_ids is mapping.weight_core_ids
        assert mapping.kv_core_ids is mapping.kv_core_ids
        for block in mapping.block_mappings:
            assert block.kv_core_ids is block.kv_core_ids
            assert set(block.kv_core_ids) == (
                set(block.region_core_ids) - set(block.weight_core_ids)
            )


class TestApplyPattern:
    @settings(
        max_examples=200,
        deadline=None,
        # The fixtures are read-only: a problem and a wafer config.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        defects=st.frozensets(st.integers(0, 63), max_size=16),
        region=st.lists(st.integers(0, 63), max_size=10),
        pattern=st.lists(st.integers(0, 11), min_size=4, max_size=4),
    )
    def test_matches_the_per_slot_loop(
        self, tiny_problem, small_wafer_config, defects, region, pattern
    ):
        """Regions with defects, repeated cores or too few cores, and patterns
        past the region's end or with repeated slots, divert exactly as the
        per-slot loop does; the rest take their slots."""
        wafer = Wafer(
            small_wafer_config,
            defect_map=DefectMap(defects, core_yield=0.9, total_cores=64),
        )
        tiles = tiny_problem.tiles()
        try:
            expected = replicate_per_slot(wafer, tiles, region, pattern)
        except MappingError:
            with pytest.raises(MappingError):
                _apply_pattern(tiny_problem, wafer, tiles, region, pattern)
            return
        mapping = _apply_pattern(tiny_problem, wafer, tiles, region, pattern)
        assert list(mapping.placement.assignment.items()) == list(expected.items())
        assert mapping.cost == evaluate_placement(tiny_problem, Placement(expected), wafer)
        assert mapping.region_core_ids == region


class TestChecksKept:
    """An id outside the wafer still raises ConfigurationError wherever the
    mapper filters or checks cores, and the checks keep their order."""

    def test_greedy_rejects_an_id_outside_the_wafer(self, tiny_problem, small_wafer):
        mapper = BlockMapper(tiny_problem, small_wafer)
        with pytest.raises(ConfigurationError, match="core id 64 outside"):
            mapper.greedy([0, 1, 64, 2, 3, 70])

    def test_anneal_rejects_an_id_outside_the_wafer(self, tiny_problem, small_wafer):
        mapper = BlockMapper(tiny_problem, small_wafer, anneal_iterations=10)
        placement = mapper.greedy(list(range(8)))
        with pytest.raises(ConfigurationError, match="core id 99 outside"):
            mapper.anneal(placement, list(range(8)) + [99])

    def test_apply_pattern_rejects_an_id_outside_the_wafer(
        self, tiny_problem, small_wafer
    ):
        tiles = tiny_problem.tiles()
        with pytest.raises(ConfigurationError, match="core id 64 outside"):
            _apply_pattern(tiny_problem, small_wafer, tiles, [0, 1, 64, 3], [0, 1, 2, 3])

    def test_validate_rejects_an_id_outside_the_wafer(self, tiny_problem, small_wafer):
        tiles = tiny_problem.tiles()
        placement = Placement(dict(zip(tiles, [0, 1, 2, 64])))
        with pytest.raises(ConfigurationError, match="core id 64 outside"):
            placement.validate(small_wafer)

    def test_validate_names_the_first_offending_tile(
        self, tiny_problem, small_wafer_config
    ):
        wafer = Wafer(
            small_wafer_config,
            defect_map=DefectMap(frozenset({5}), core_yield=0.9, total_cores=64),
        )
        tiles = tiny_problem.tiles()
        cases = [
            ([1, 1, 64, 2], MappingError, "more than one tile"),
            ([1, 64, 1, 2], ConfigurationError, "core id 64 outside"),
            ([1, 5, 64, 2], MappingError, "defective core 5"),
            ([1, -3, 5, 2], ConfigurationError, "core id -3 outside"),
            ([1, 2, 3, 4], None, None),
        ]
        for cores, error, message in cases:
            placement = Placement(dict(zip(tiles, cores)))
            if error is None:
                placement.validate(wafer)
                continue
            with pytest.raises(error, match=message):
                placement.validate(wafer)
