"""Tests for the replacement-chain fault-tolerance scheme."""

import pytest

from repro.errors import MappingError
from repro.hardware.wafer import Wafer
from repro.hardware.yieldmodel import DefectMap
from repro.kvcache.manager import DistributedKVCacheManager
from repro.mapping.fault_tolerance import FaultToleranceManager
from repro.mapping.intercore import map_model
from repro.workload.requests import Request, Sequence


@pytest.fixture
def mapped_system(tiny_arch, small_wafer):
    mapping = map_model(tiny_arch, small_wafer)
    kv_manager = DistributedKVCacheManager(
        tiny_arch, kv_core_ids=mapping.kv_core_ids, blocks_per_core=16
    )
    ft = FaultToleranceManager(small_wafer, mapping, kv_manager=kv_manager)
    return mapping, kv_manager, ft


def admit_one(kv_manager, seq_id=0):
    seq = Sequence(Request(request_id=seq_id, prefill_length=32, decode_length=8))
    seq.start()
    assert kv_manager.try_admit(seq)
    return seq


class TestRoles:
    def test_initial_roles(self, mapped_system):
        mapping, _, ft = mapped_system
        weight_core = mapping.weight_core_ids[0]
        kv_core = mapping.kv_core_ids[0]
        assert ft.role_of(weight_core) == "weight"
        assert ft.role_of(kv_core) == "kv"

    def test_weight_and_kv_sets_match_mapping(self, mapped_system):
        mapping, _, ft = mapped_system
        assert ft.weight_cores == set(mapping.weight_core_ids)
        assert ft.kv_cores == set(mapping.kv_core_ids)


class TestKVCoreFailure:
    def test_kv_core_failure_only_recomputes_local_sequences(self, mapped_system):
        mapping, kv_manager, ft = mapped_system
        seq = admit_one(kv_manager)
        used_cores = set()
        for table in kv_manager.page_tables:
            used_cores.update(table.cores_of(seq.sequence_id))
        failed = next(iter(used_cores))
        result = ft.fail_core(failed)
        assert result.failed_core == failed
        assert result.reclaimed_kv_core is None
        assert seq.sequence_id in result.affected_sequences
        assert ft.role_of(failed) == "failed"

    def test_unused_kv_core_failure_affects_nothing(self, mapped_system):
        mapping, kv_manager, ft = mapped_system
        admit_one(kv_manager)
        used = set()
        for table in kv_manager.page_tables:
            used.update(table.cores_of(0))
        unused = next(core for core in mapping.kv_core_ids if core not in used)
        result = ft.fail_core(unused)
        assert result.affected_sequences == []


class TestWeightCoreFailure:
    def test_replacement_chain_built(self, mapped_system):
        mapping, _, ft = mapped_system
        failed = mapping.weight_core_ids[0]
        result = ft.fail_core(failed)
        assert result.chain[0] == failed
        assert result.reclaimed_kv_core is not None
        assert result.chain[-1] == result.reclaimed_kv_core
        assert result.chain_length >= 1

    def test_chain_is_mesh_connected(self, mapped_system, small_wafer):
        mapping, _, ft = mapped_system
        result = ft.fail_core(mapping.weight_core_ids[0])
        for a, b in zip(result.chain, result.chain[1:]):
            assert small_wafer.manhattan(a, b) == 1

    def test_roles_updated_after_recovery(self, mapped_system):
        mapping, _, ft = mapped_system
        failed = mapping.weight_core_ids[0]
        result = ft.fail_core(failed)
        assert ft.role_of(failed) == "failed"
        assert ft.role_of(result.reclaimed_kv_core) == "weight"
        assert len(ft.weight_cores) == len(mapping.weight_core_ids)

    def test_recovery_latency_sub_millisecond(self, mapped_system):
        mapping, _, ft = mapped_system
        result = ft.fail_core(mapping.weight_core_ids[0])
        assert 0 < result.recovery_latency_s < 1e-3
        assert result.moved_weight_bytes > 0

    def test_double_failure_rejected(self, mapped_system):
        mapping, _, ft = mapped_system
        failed = mapping.weight_core_ids[0]
        ft.fail_core(failed)
        with pytest.raises(MappingError):
            ft.fail_core(failed)

    def test_multiple_failures_supported(self, mapped_system):
        mapping, _, ft = mapped_system
        for core in mapping.weight_core_ids[:3]:
            result = ft.fail_core(core)
            assert result.reclaimed_kv_core is not None
        assert len(ft.failed_cores) == 3

    def test_unassigned_core_failure_is_noop(self, small_wafer, tiny_arch):
        mapping = map_model(tiny_arch, small_wafer)
        ft = FaultToleranceManager(small_wafer, mapping)
        # Fabricate an unassigned core by removing it from the KV set.
        spare = mapping.kv_core_ids[-1]
        ft._kv_cores.discard(spare)
        result = ft.fail_core(spare)
        assert result.chain == []
        assert result.recovery_latency_s == 0.0


class _NoScan(list):
    """A KV core list that fails any membership scan."""

    def __contains__(self, core):
        raise AssertionError(f"scanned the KV core list for core {core}")


def test_fault_paths_ask_the_kv_manager_by_core_index(mapped_system):
    """Failing a KV core and a weight core looks each core up in the KV
    manager's core index, never by scanning its KV core list."""
    mapping, kv_manager, ft = mapped_system
    kv_manager.kv_core_ids = _NoScan(kv_manager.kv_core_ids)
    seq = admit_one(kv_manager)
    used = sorted(kv_manager.page_tables[0].cores_of(seq.sequence_id))
    result = ft.fail_core(used[0])
    assert seq.sequence_id in result.affected_sequences
    assert used[0] in kv_manager.failed_cores
    result = ft.fail_core(mapping.weight_core_ids[0])
    assert result.reclaimed_kv_core in kv_manager.failed_cores
    assert kv_manager.holds_core(result.reclaimed_kv_core)
    assert not kv_manager.holds_core(mapping.weight_core_ids[1])


def test_weight_recovery_skips_kv_cores_the_kv_manager_failed():
    """A ``kv_core`` fault fails its core through the KV manager alone; a
    later weight-core chain must neither reclaim nor cross that dead core.
    On llama-13b's default build the nearest KV core to weight core 3 is
    KV core 5."""
    from repro import api
    from repro.experiments.common import ExperimentSettings

    spec = ExperimentSettings(num_requests=1).deployment("llama-13b", "wikitext2")
    built = api.build_deployment(spec).built
    kv_manager = built.make_pipeline().kv_manager
    ft = FaultToleranceManager(built.wafers[0], built.mappings[0], kv_manager=kv_manager)
    assert (ft.role_of(3), ft.role_of(5)) == ("weight", "kv")
    kv_manager.fail_core(5)
    result = ft.fail_core(3)
    assert result.reclaimed_kv_core is not None
    assert result.reclaimed_kv_core != 5
    assert 5 not in result.chain
    assert result.chain[-1] == result.reclaimed_kv_core


def per_core_filter_recovery(ft, core_id):
    """The reclaimed KV core and chain of a weight-core failure, found the
    way recovery used to filter cores: ``Wafer.is_defective`` for every KV
    core and every chain step, the first nearest candidate winning.  None
    when the greedy chain is blocked."""
    wafer = ft.wafer
    dead = set(ft.failed_cores)
    candidates = [
        kv for kv in ft._kv_cores if kv not in dead and not wafer.is_defective(kv)
    ]
    target = min(candidates, key=lambda kv: wafer.manhattan(kv, core_id))
    chain, visited = [core_id], {core_id}
    while chain[-1] != target:
        neighbors = [
            n for n in wafer.neighbors(chain[-1])
            if n not in visited and n not in dead and not wafer.is_defective(n)
        ]
        if not neighbors:
            return None
        chain.append(min(neighbors, key=lambda n: wafer.manhattan(n, target)))
        visited.add(chain[-1])
    return target, chain


def test_weight_recovery_reads_defects_as_one_set(
    tiny_arch, small_wafer_config, monkeypatch
):
    """On a wafer whose defects include the KV core right of each weight
    core, recovery reclaims the core and builds the chain the per-core filter
    did (routing round the defects, or blocked), without asking the wafer
    about each KV core."""
    mapping = map_model(tiny_arch, Wafer(small_wafer_config))
    kv_cores = set(mapping.kv_core_ids)
    defects = frozenset(
        core + 1 for core in mapping.weight_core_ids if core + 1 in kv_cores
    )
    wafer = Wafer(
        small_wafer_config,
        defect_map=DefectMap(
            defects, core_yield=1.0, total_cores=small_wafer_config.cores_per_wafer
        ),
    )
    healthy = Wafer(small_wafer_config)
    checked = changed = longest = 0
    for weight_core in sorted(mapping.weight_core_ids):
        expected = per_core_filter_recovery(
            FaultToleranceManager(wafer, mapping), weight_core
        )
        changed += expected != per_core_filter_recovery(
            FaultToleranceManager(healthy, mapping), weight_core
        )
        calls = []
        is_defective = Wafer.is_defective

        def counted(self, core_id, is_defective=is_defective):
            calls.append(core_id)
            return is_defective(self, core_id)

        monkeypatch.setattr(Wafer, "is_defective", counted)
        ft = FaultToleranceManager(wafer, mapping)
        if expected is None:
            with pytest.raises(MappingError, match="blocked"):
                ft.fail_core(weight_core)
            monkeypatch.undo()
            continue
        result = ft.fail_core(weight_core)
        monkeypatch.undo()
        assert (result.reclaimed_kv_core, result.chain) == expected
        assert result.reclaimed_kv_core not in defects
        assert not defects & set(result.chain)
        assert len(calls) < len(kv_cores)
        checked += 1
        longest = max(longest, result.chain_length)
    assert checked > 3 and changed and longest > 2
