"""Tests for the distributed dynamic KV-cache manager and its static baseline."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import ConfigurationError, KVCacheError
from repro.experiments.common import DECODER_MODELS, ExperimentSettings
from repro.kvcache.manager import DistributedKVCacheManager, _slot_counts
from repro.kvcache.pagetable import PageTable
from repro.kvcache.static import StaticKVCacheManager
from repro.pipeline.checkpoint import EngineCheckpoint
from repro.pipeline.engine import PipelineConfig
from repro.pipeline.stages import TokenCostModel
from repro.pipeline.tgp import TokenGrainedPipeline
from repro.sim.faults import FaultEvent, FaultPlan
from repro.workload.requests import Request, Sequence

from .test_engine_equivalence import mixed_trace

#: page tables and checkpoint of a fixed admit/grow/release scenario, recorded
#: while the manager still kept one page-table object per transformer block
GOLDEN_PAGE_TABLES = Path(__file__).parent / "fixtures" / "kv_page_tables.json"


def make_sequence(
    seq_id: int, prefill: int = 64, decode: int = 64, tenant: str | None = None
) -> Sequence:
    kwargs = {"tenant": tenant} if tenant is not None else {}
    seq = Sequence(Request(
        request_id=seq_id, prefill_length=prefill, decode_length=decode, **kwargs
    ))
    seq.start()
    return seq


@pytest.fixture
def manager(tiny_arch):
    # 2 blocks x 2 groups -> 4 groups over 32 KV cores, 16 blocks per core.
    return DistributedKVCacheManager(
        tiny_arch, kv_core_ids=list(range(32)), blocks_per_core=16, threshold=0.0
    )


class TestConstruction:
    def test_requires_cores(self, tiny_arch):
        with pytest.raises(ConfigurationError):
            DistributedKVCacheManager(tiny_arch, kv_core_ids=[])

    def test_invalid_threshold(self, tiny_arch):
        with pytest.raises(ConfigurationError):
            DistributedKVCacheManager(tiny_arch, kv_core_ids=[0, 1], threshold=1.5)

    def test_tokens_per_block_from_head_dim(self, manager, tiny_arch):
        assert manager.tokens_per_block == 16384 // tiny_arch.head_dim

    def test_total_blocks(self, manager):
        assert manager.total_blocks == 32 * 16

    def test_page_tables_per_block(self, manager, tiny_arch):
        assert len(manager.page_tables) == tiny_arch.num_blocks


class TestAdmission:
    def test_admit_reserves_blocks(self, manager, tiny_arch):
        seq = make_sequence(0)
        assert manager.try_admit(seq)
        slots = 2 * tiny_arch.num_blocks * tiny_arch.kv_heads
        assert manager.used_blocks == slots
        assert manager.blocks_held(0) == slots
        assert 0 in manager.resident_sequences

    def test_admit_registers_page_tables(self, manager, tiny_arch):
        seq = make_sequence(0)
        manager.try_admit(seq)
        for table in manager.page_tables:
            placements = table.lookup(0)
            assert len(placements) == tiny_arch.kv_heads

    def test_double_admit_rejected(self, manager):
        seq = make_sequence(0)
        manager.try_admit(seq)
        with pytest.raises(KVCacheError):
            manager.try_admit(seq)

    def test_admission_fails_when_full(self, manager):
        admitted = 0
        while manager.try_admit(make_sequence(admitted)):
            admitted += 1
            if admitted > 1000:
                pytest.fail("manager never filled up")
        assert admitted == manager.max_concurrent_sequences(1)
        assert manager.stats.failed_admissions >= 1

    def test_consecutive_sequences_use_different_cores(self, manager):
        manager.try_admit(make_sequence(0))
        manager.try_admit(make_sequence(1))
        table = manager.page_tables[0]
        cores_a = set(table.cores_of(0))
        cores_b = set(table.cores_of(1))
        assert cores_a != cores_b

    def test_heads_spread_across_cores(self, manager, tiny_arch):
        manager.try_admit(make_sequence(0))
        placements = manager.page_tables[0].lookup(0)
        k_cores = [p.k_core for p in placements]
        assert len(set(k_cores)) == tiny_arch.kv_heads


class TestGrowthAndRelease:
    def test_growth_within_first_block_free(self, manager):
        seq = make_sequence(0)
        manager.try_admit(seq)
        before = manager.used_blocks
        assert manager.append_tokens(seq, manager.tokens_per_block)
        assert manager.used_blocks == before

    def test_growth_allocates_new_blocks(self, manager, tiny_arch):
        seq = make_sequence(0)
        manager.try_admit(seq)
        before = manager.used_blocks
        assert manager.append_tokens(seq, manager.tokens_per_block + 1)
        slots = 2 * tiny_arch.num_blocks * tiny_arch.kv_heads
        assert manager.used_blocks == before + slots

    def test_growth_tracks_tokens(self, manager):
        seq = make_sequence(0)
        manager.try_admit(seq)
        manager.append_tokens(seq, 10)
        manager.append_tokens(seq, 1)
        assert manager.tokens_cached(0) == 11

    def test_growth_of_unknown_sequence_rejected(self, manager):
        with pytest.raises(KVCacheError):
            manager.append_tokens(make_sequence(5), 1)

    def test_growth_fails_when_exhausted(self, tiny_arch):
        manager = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(32)), blocks_per_core=2
        )
        seq = make_sequence(0)
        assert manager.try_admit(seq)
        huge = manager.tokens_per_block * 10
        assert not manager.append_tokens(seq, huge)
        assert manager.stats.failed_growths == 1

    def test_release_returns_blocks(self, manager):
        seq = make_sequence(0)
        manager.try_admit(seq)
        manager.append_tokens(seq, manager.tokens_per_block * 3)
        manager.release(seq)
        assert manager.used_blocks == 0
        assert manager.resident_sequences == []

    def test_release_unknown_is_noop(self, manager):
        manager.release(make_sequence(9))
        assert manager.used_blocks == 0

    def test_utilization_and_peak(self, manager):
        seq = make_sequence(0)
        manager.try_admit(seq)
        assert 0 < manager.utilization <= 1
        assert manager.stats.peak_used_blocks == manager.used_blocks


class TestSizingEdgeCases:
    def test_capacity_bytes_matches_block_geometry(self, manager, tiny_arch):
        expected = (
            manager.total_blocks
            * manager.tokens_per_block
            * tiny_arch.head_dim
            * manager.element_bytes
        )
        assert manager.capacity_bytes == expected

    def test_capacity_bytes_shrinks_with_failed_cores(self, manager):
        before = manager.capacity_bytes
        manager.fail_core(manager.kv_core_ids[0])
        per_core = manager.blocks_per_core * manager.tokens_per_block * \
            manager.arch.head_dim * manager.element_bytes
        assert manager.capacity_bytes == before - per_core

    def test_max_concurrent_zero_when_all_cores_failed(self, tiny_arch):
        manager = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(4)), blocks_per_core=16
        )
        for core in list(manager.kv_core_ids):
            manager.fail_core(core)
        assert manager.total_blocks == 0
        assert manager.max_concurrent_sequences(1) == 0
        assert manager.capacity_bytes == 0
        assert manager.utilization == 0.0

    def test_max_concurrent_zero_when_context_exceeds_capacity(self, tiny_arch):
        manager = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(4)), blocks_per_core=2
        )
        huge_context = manager.tokens_per_block * manager.total_blocks * 10
        assert manager.max_concurrent_sequences(huge_context) == 0

    def test_max_concurrent_handles_non_positive_context(self, manager):
        # Degenerate context lengths behave like a single-block reservation.
        assert manager.max_concurrent_sequences(0) == manager.max_concurrent_sequences(1)
        assert manager.max_concurrent_sequences(-5) == manager.max_concurrent_sequences(1)

    def test_admission_rejected_when_all_cores_failed(self, tiny_arch):
        manager = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(4)), blocks_per_core=16
        )
        for core in list(manager.kv_core_ids):
            manager.fail_core(core)
        assert not manager.try_admit(make_sequence(0))
        assert manager.stats.failed_admissions == 1

    def test_used_blocks_consistent_after_growth_and_failure(self, manager):
        seq = make_sequence(0)
        manager.try_admit(seq)
        manager.append_tokens(seq, manager.tokens_per_block + 1)
        used_before = manager.used_blocks
        victim = manager.page_tables[0].cores_of(0)[0]
        manager.fail_core(victim)
        # The failed core's blocks leave both the total and the free pool.
        assert manager.total_blocks == (manager.num_kv_cores - 1) * manager.blocks_per_core
        assert 0 < manager.used_blocks <= used_before
        manager.release(seq)
        assert manager.used_blocks == 0

    def test_static_max_concurrent_zero_when_sequence_oversized(self, tiny_arch):
        manager = StaticKVCacheManager(
            tiny_arch, kv_core_ids=2, blocks_per_core=1,
            reserved_context=tiny_arch.max_context,
        )
        assert manager.blocks_per_sequence() > manager.total_blocks
        assert manager.max_concurrent_sequences() == 0

    def test_static_capacity_bytes(self, tiny_arch):
        manager = StaticKVCacheManager(tiny_arch, kv_core_ids=32, blocks_per_core=16)
        expected = (
            manager.total_blocks
            * manager.tokens_per_block
            * tiny_arch.head_dim
            * manager.element_bytes
        )
        assert manager.capacity_bytes == expected


class TestRingSelectionEquivalence:
    """Admission's ring walk over every ring-row group -- one group of ring
    columns, or one group per row after failures -- hands out exactly what
    the per-row reference walk ``_select_cores`` does."""

    @staticmethod
    def _reference(manager, heads):
        pointer = manager._ring_pointer
        return [
            manager._select_cores(row, pointer, heads)
            for row in manager._ring_matrix.tolist()
        ]

    @staticmethod
    def _selection(manager):
        """The cores the next admission takes, one row per (block, K/V)."""
        walked = manager._walk()
        if walked is None:
            return None
        rows = np.atleast_2d(walked[0])[manager._row_group]
        return np.take_along_axis(manager._ring_matrix, rows, axis=1)

    def test_fast_selection_matches_walk_when_heads_exceed_group(self, tiny_arch):
        # 8 cores / 4 groups -> group size 2 < kv_heads: the column walk must
        # reproduce the walk's pad-with-first-usable behaviour exactly.
        manager = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(8)), blocks_per_core=16
        )
        heads = tiny_arch.kv_heads
        assert group_count(manager) == 1
        assert heads > manager._ring_width
        for admitted in range(3):
            assert self._selection(manager).tolist() == self._reference(manager, heads)
            assert manager.try_admit(make_sequence(admitted))

    @pytest.mark.parametrize("kv_cores", [3, 8, 32])
    def test_group_walk_matches_per_group_walk(self, tiny_arch, kv_cores):
        """With failed and threshold-starved cores, the vectorised walk of all
        groups hands out exactly what the per-row walk does (3 cores: fewer
        than the 4 ring rows, one group per row from the start, and a core in
        two rows needs more blocks to admit several sequences)."""
        manager = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(kv_cores)),
            blocks_per_core=64 if kv_cores < 4 else 8, threshold=0.5,
        )
        heads = tiny_arch.kv_heads
        admitted = 0
        while manager.try_admit(make_sequence(admitted)):
            admitted += 1
            if admitted % 3 == 0:
                manager.fail_core(manager.kv_core_ids[admitted % kv_cores])
            walked = self._selection(manager)
            expected = self._reference(manager, heads)
            if walked is None:
                assert None in expected
            else:
                assert walked.tolist() == expected
        assert admitted > 1
        assert manager.failed_cores
        assert group_count(manager) > 1

    def test_fast_selection_matches_walk_after_pointer_advance(self, manager, tiny_arch):
        heads = tiny_arch.kv_heads
        for admitted in range(5):  # the pointer wraps round the 8-wide ring
            manager.try_admit(make_sequence(admitted))
            assert group_count(manager) == 1
            assert self._selection(manager).tolist() == self._reference(manager, heads)

    @pytest.mark.parametrize("kv_cores", [16, 42])
    def test_column_walk_skips_starved_columns(self, tiny_arch, kv_cores):
        """Above a threshold the column walk skips full columns, padding when
        fewer than ``kv_heads`` remain, until none is usable."""
        manager = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(kv_cores)), blocks_per_core=8,
            threshold=0.25,
        )
        heads = tiny_arch.kv_heads
        sequences = [make_sequence(i) for i in range(200)]
        admitted = 0
        while True:
            walked = self._selection(manager)
            expected = self._reference(manager, heads)
            if walked is None:
                assert expected == [None] * len(expected)
                break
            assert walked.tolist() == expected
            assert manager.try_admit(sequences[admitted])
            # Uneven growth starves some columns before others.
            manager.append_tokens(
                sequences[admitted], (admitted % 3) * manager.tokens_per_block
            )
            admitted += 1
        assert group_count(manager) == 1
        assert not manager.try_admit(sequences[admitted])

    @pytest.mark.parametrize("kv_cores", [24, 42])
    def test_one_group_admission_records_the_walk(self, tiny_arch, kv_cores):
        """With at least ``kv_heads`` usable columns, one-group admission
        skips the slot count and the fit check: it records the walked columns,
        sorted, with the shared one-slot counts.  The record equals what the
        walk and its slot counts give, as padded admissions' records do."""
        manager = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(kv_cores)), blocks_per_core=8,
            threshold=0.25,
        )
        heads = tiny_arch.kv_heads
        distinct = []
        for admitted in range(200):
            walked = manager._walk()
            if walked is None:
                break
            walked = walked[0]
            distinct.append(len(manager._usable_columns()) >= heads)
            units, counts = _slot_counts(walked, manager._ring_width)
            sequence = make_sequence(admitted)
            if not manager.try_admit(sequence):
                assert not distinct[-1]  # a padded walk that does not fit
                break
            allocation = manager._allocations[admitted]
            assert allocation.placement.tolist() == walked.tolist()
            assert allocation.units.tolist() == units.tolist()
            assert allocation.unit_counts.tolist() == counts.tolist()
            most = int(counts.max())
            assert allocation.max_slots == most
            assert allocation.slots_per_core == (most if counts.min() == most else 0)
            assert (allocation.unit_counts is manager._one_slot_each) == distinct[-1]
            manager.append_tokens(sequence, uneven_growth(manager, admitted))
        assert True in distinct and False in distinct
        assert not manager._one_slot_each.flags.writeable


class TestPageTableCheckpointContract:
    """Page tables are views built from per-sequence placements on lookup;
    the checkpoint format and every lookup answer stay what they were."""

    CORES = list(range(100, 132))

    def _manager(self, tiny_arch):
        return DistributedKVCacheManager(
            tiny_arch, kv_core_ids=self.CORES, blocks_per_core=16
        )

    def _scenario(self, tiny_arch):
        manager = self._manager(tiny_arch)
        sequences = [make_sequence(i) for i in range(5)]
        for i in (0, 1, 2):
            assert manager.try_admit(sequences[i])
        manager.append_tokens(sequences[0], manager.tokens_per_block + 1)
        manager.release(sequences[1])
        assert manager.try_admit(sequences[3])
        manager.append_tokens(sequences[3], 5)
        assert manager.try_admit(sequences[4])
        return manager

    @pytest.fixture
    def golden(self):
        return json.loads(GOLDEN_PAGE_TABLES.read_text())

    def test_snapshot_matches_golden(self, tiny_arch, golden):
        snapshot = json.loads(json.dumps(self._scenario(tiny_arch).snapshot_state()))
        assert snapshot["page_tables"] == golden["snapshot"]["page_tables"]
        assert snapshot == golden["snapshot"]

    def test_restored_golden_answers_lookups(self, tiny_arch, golden):
        restored = self._manager(tiny_arch)
        restored.restore_state(golden["snapshot"])
        for manager in (self._scenario(tiny_arch), restored):
            for block, tables in golden["lookup"].items():
                table = manager.page_tables[int(block)]
                for seq, placements in tables.items():
                    assert [
                        [p.head, p.k_core, p.v_core]
                        for p in table.lookup(int(seq))
                    ] == placements
                    assert table.cores_of(int(seq)) == golden["cores_of"][block][seq]
            for core, residents in golden["sequences_on_core"].items():
                assert manager.sequences_on_core(int(core)) == residents
        assert restored.snapshot_state() == golden["snapshot"]

    def test_admission_and_release_write_no_table(self, tiny_arch, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a page table was written")

        monkeypatch.setattr(PageTable, "register_heads", refuse)
        monkeypatch.setattr(PageTable, "remove", refuse)
        manager = self._scenario(tiny_arch)
        assert len(manager.page_tables[0]) == len(manager.resident_sequences)


class TestThreshold:
    def test_threshold_reserves_headroom(self, tiny_arch):
        no_reserve = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(32)), blocks_per_core=16, threshold=0.0
        )
        reserve = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(32)), blocks_per_core=16, threshold=0.5
        )

        def fill(manager):
            count = 0
            while manager.try_admit(make_sequence(count)):
                count += 1
                if count > 500:
                    break
            return count

        assert fill(reserve) < fill(no_reserve)


class TestFailures:
    def test_fail_core_reports_affected_sequences(self, manager):
        seq = make_sequence(0)
        manager.try_admit(seq)
        cores = manager.page_tables[0].cores_of(0)
        affected = manager.fail_core(cores[0])
        assert 0 in affected
        assert cores[0] in manager.failed_cores

    def test_fail_unknown_core_rejected(self, manager):
        with pytest.raises(KVCacheError):
            manager.fail_core(10_000)

    def test_failed_core_reduces_capacity(self, manager):
        before = manager.total_blocks
        manager.fail_core(manager.kv_core_ids[0])
        assert manager.total_blocks == before - manager.blocks_per_core

    def test_failed_core_not_used_for_new_sequences(self, manager):
        failed = manager.kv_core_ids[0]
        manager.fail_core(failed)
        manager.try_admit(make_sequence(0))
        for table in manager.page_tables:
            if table.contains(0):
                assert failed not in table.cores_of(0)


class TestStaticManager:
    def test_blocks_per_sequence_worst_case(self, tiny_arch):
        manager = StaticKVCacheManager(tiny_arch, kv_core_ids=32, blocks_per_core=64)
        expected_slots = 2 * tiny_arch.num_blocks * tiny_arch.kv_heads
        per_slot = -(-tiny_arch.max_context // manager.tokens_per_block)
        assert manager.blocks_per_sequence() == expected_slots * per_slot

    def test_static_admits_fewer_than_dynamic(self, tiny_arch):
        static = StaticKVCacheManager(tiny_arch, kv_core_ids=32, blocks_per_core=16)
        dynamic = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(32)), blocks_per_core=16
        )
        assert static.max_concurrent_sequences() <= dynamic.max_concurrent_sequences(1)

    def test_static_growth_bounded_by_reserved_context(self, tiny_arch):
        manager = StaticKVCacheManager(
            tiny_arch, kv_core_ids=32, blocks_per_core=1024, reserved_context=32
        )
        seq = make_sequence(0, prefill=16, decode=32)
        assert manager.try_admit(seq)
        seq.advance_tokens(16)
        assert manager.append_tokens(seq, 16)
        assert not manager.append_tokens(seq, 64)

    def test_static_release(self, tiny_arch):
        manager = StaticKVCacheManager(tiny_arch, kv_core_ids=32, blocks_per_core=1024)
        seq = make_sequence(0)
        manager.try_admit(seq)
        manager.release(seq)
        assert manager.used_blocks == 0

    def test_static_double_admit_rejected(self, tiny_arch):
        manager = StaticKVCacheManager(tiny_arch, kv_core_ids=32, blocks_per_core=1024)
        seq = make_sequence(0)
        manager.try_admit(seq)
        with pytest.raises(KVCacheError):
            manager.try_admit(seq)

    def test_static_requires_cores(self, tiny_arch):
        with pytest.raises(ConfigurationError):
            StaticKVCacheManager(tiny_arch, kv_core_ids=0)


class TestTenantQuotas:
    """Per-tenant KV block caps: exact fits, zero quotas, checkpoint survival.

    The fixture manager has 32 cores x 16 blocks = 512 configured blocks and
    the tiny arch reserves 2 blocks x 4 heads x 2 (K/V) = 16 block slots per
    admission, so a quota of 16/512 is the exact working set of one
    single-block-per-slot sequence.
    """

    RESERVE = 16  # 2 transformer blocks x 4 KV heads x 2 (K and V)
    CAPACITY = 512

    def test_quota_zero_rejects_every_admission(self, manager):
        manager.set_tenant_quotas({"batch": 0.0})
        seq = make_sequence(0, tenant="batch")
        assert not manager.try_admit(seq)
        assert manager.stats.quota_rejections == 1
        assert manager.last_failure_quota_bound
        assert manager.tenant_used_blocks("batch") == 0
        assert manager.used_blocks == 0

    def test_unlisted_tenant_is_uncapped(self, manager):
        manager.set_tenant_quotas({"batch": 0.0})
        assert manager.try_admit(make_sequence(1, tenant="chat"))
        assert manager.tenant_quota_blocks("chat") is None
        assert manager.tenant_used_blocks("chat") == 0  # uncapped: not tracked

    def test_quota_equal_to_working_set_admits_exactly(self, manager):
        """A cap of exactly one sequence's reserve admits it -- and nothing more."""
        manager.set_tenant_quotas({"batch": self.RESERVE / self.CAPACITY})
        assert manager.tenant_quota_blocks("batch") == self.RESERVE
        assert manager.try_admit(make_sequence(0, tenant="batch"))
        assert manager.tenant_used_blocks("batch") == self.RESERVE
        # The tenant sits exactly at its cap: a second admission is
        # quota-bound even though the cache itself has plenty of room.
        assert not manager.try_admit(make_sequence(1, tenant="batch"))
        assert manager.stats.quota_rejections == 1
        assert manager.last_failure_quota_bound
        assert manager.total_blocks - manager.used_blocks >= self.RESERVE

    def test_growth_past_quota_is_blocked_and_attributed(self, manager):
        manager.set_tenant_quotas({"batch": self.RESERVE / self.CAPACITY})
        seq = make_sequence(0, prefill=16, decode=16, tenant="batch")
        assert manager.try_admit(seq)
        # Growth inside the first block per slot allocates nothing new.
        assert manager.append_tokens(seq, manager.tokens_per_block)
        assert manager.tenant_used_blocks("batch") == self.RESERVE
        # Crossing the block boundary needs another 16 blocks: quota-bound.
        assert not manager.append_tokens(seq, 1)
        assert manager.stats.quota_blocked_growths == 1
        assert manager.last_failure_quota_bound
        assert manager.tenant_used_blocks("batch") == self.RESERVE

    def test_release_returns_quota_headroom(self, manager):
        manager.set_tenant_quotas({"batch": self.RESERVE / self.CAPACITY})
        seq = make_sequence(0, tenant="batch")
        assert manager.try_admit(seq)
        manager.release(seq)
        assert manager.tenant_used_blocks("batch") == 0
        assert manager.try_admit(make_sequence(1, tenant="batch"))

    def test_quota_fraction_out_of_range_rejected(self, manager):
        with pytest.raises(ConfigurationError):
            manager.set_tenant_quotas({"batch": 1.5})
        with pytest.raises(ConfigurationError):
            manager.set_tenant_quotas({"batch": -0.1})

    def test_quota_against_configured_not_healthy_capacity(self, manager):
        """Core failures must not silently shrink a tenant's entitlement."""
        manager.set_tenant_quotas({"batch": self.RESERVE / self.CAPACITY})
        manager.fail_core(manager.kv_core_ids[0])
        assert manager.tenant_quota_blocks("batch") == self.RESERVE

    def test_quota_state_survives_snapshot_restore(self, manager, tiny_arch):
        manager.set_tenant_quotas({"batch": 0.5, "chat": 0.0})
        seq = make_sequence(0, tenant="batch")
        assert manager.try_admit(seq)
        state = manager.snapshot_state()
        restored = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(32)), blocks_per_core=16, threshold=0.0
        )
        restored.restore_state(state)
        assert restored.tenant_quota_blocks("batch") == manager.tenant_quota_blocks("batch")
        assert restored.tenant_used_blocks("batch") == self.RESERVE
        assert not restored.try_admit(make_sequence(1, tenant="chat"))
        assert restored.last_failure_quota_bound

    def test_static_quota_zero_rejects(self, tiny_arch):
        manager = StaticKVCacheManager(tiny_arch, kv_core_ids=32, blocks_per_core=64)
        manager.set_tenant_quotas({"batch": 0.0})
        assert not manager.try_admit(make_sequence(0, tenant="batch"))
        assert manager.stats.quota_rejections == 1
        assert manager.last_failure_quota_bound
        assert manager.try_admit(make_sequence(1, tenant="chat"))

    def test_static_quota_equal_to_working_set(self, tiny_arch):
        manager = StaticKVCacheManager(tiny_arch, kv_core_ids=32, blocks_per_core=64)
        per_sequence = manager.blocks_per_sequence()
        manager.set_tenant_quotas({"batch": per_sequence / manager.total_blocks})
        assert manager.tenant_quota_blocks("batch") == per_sequence
        seq = make_sequence(0, tenant="batch")
        assert manager.try_admit(seq)
        assert manager.tenant_used_blocks("batch") == per_sequence
        assert not manager.try_admit(make_sequence(1, tenant="batch"))
        assert manager.last_failure_quota_bound
        manager.release(seq)
        assert manager.tenant_used_blocks("batch") == 0
        assert manager.try_admit(make_sequence(2, tenant="batch"))


class PerCoreManager(DistributedKVCacheManager):
    """The manager held at one ring-row group per row, whose units are its
    cores, for its whole life: per-core accounting."""

    def _rows_share_groups(self) -> bool:
        return False


def group_count(manager) -> int:
    return len(manager._group_units)


def uneven_growth(manager, admitted: int) -> int:
    """Tokens that grow the ``admitted``-th sequence by 0, 2, 4, 6 or 8
    blocks per slot in turn, so the ring columns starve unevenly."""
    blocks = (admitted % 5) * 2
    return blocks * manager.tokens_per_block + 1 if blocks else 0


#: the tiny arch's 4 ring rows over these many cores are 1 (3 cores: fewer
#: than rows, core 0 sits in two rows), 2 (< kv_heads), 4 (== kv_heads), 8
#: and 10 cores wide; at 42 two cores sit outside every row
DIFFERENTIAL_CORES = (3, 8, 16, 32, 42)


#: operations of a differential scenario, admissions and growth weighted up
KV_OPERATIONS = (
    "admit", "admit", "append", "append", "release", "on_core", "fail", "restore",
)


@st.composite
def kv_scenarios(draw):
    """A manager configuration plus a random operation sequence on it; each
    operation carries two numbers that pick its sequence, core or size."""
    config = {
        "cores": draw(st.sampled_from(DIFFERENTIAL_CORES)),
        "blocks_per_core": draw(st.sampled_from([3, 6, 16])),
        "threshold": draw(st.sampled_from([0.0, 0.25, 0.5])),
        "quota": draw(st.sampled_from([None, 0.2, 0.5])),
    }
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(KV_OPERATIONS), st.integers(0, 1000), st.integers(0, 600)
        ),
        max_size=40,
    ))
    return config, ops


class TestColumnAccountingDifferential:
    """Ring-row group accounting against per-core accounting on the same
    operations.

    Both engine paths share one KV manager, so fast == scalar cannot catch an
    accounting bug; this holds every answer and every state of the group
    accounting (one group of ring columns, and a group of its own for each
    row a failed core moves out) equal to a manager kept per-core from the
    start.
    """

    @staticmethod
    def _build(manager_cls, tiny_arch, config):
        manager = manager_cls(
            tiny_arch, kv_core_ids=list(range(100, 100 + config["cores"])),
            blocks_per_core=config["blocks_per_core"], threshold=config["threshold"],
        )
        if config["quota"] is not None:
            manager.set_tenant_quotas({"a": config["quota"]})
        return manager

    @staticmethod
    def _assert_same(columns, per_core):
        assert columns.stats.as_dict() == per_core.stats.as_dict()
        assert columns.used_blocks == per_core.used_blocks
        assert columns.last_failure_quota_bound == per_core.last_failure_quota_bound
        residents = columns.resident_sequences
        assert residents == per_core.resident_sequences
        for seq_id in residents:
            assert columns.blocks_held(seq_id) == per_core.blocks_held(seq_id)
        for ours, theirs in zip(columns.page_tables, per_core.page_tables):
            for seq_id in residents:
                assert ours.lookup(seq_id) == theirs.lookup(seq_id)
        state = columns.snapshot_state()
        assert state == per_core.snapshot_state()
        # Conservation, per core: free + held == capacity, never below zero,
        # and the healthy cores' free blocks are what ``used_blocks`` omits.
        held = [0] * columns.num_kv_cores
        for _, allocation in state["allocations"]:
            for core, count in zip(allocation["cores"], allocation["counts"]):
                held[core] += count * allocation["blocks_per_slot"]
        free = state["free_blocks"]
        assert min(free) >= 0
        assert all(f + h == columns.blocks_per_core for f, h in zip(free, held))
        healthy_free = sum(
            f for core, f in zip(columns.kv_core_ids, free)
            if core not in columns.failed_cores
        )
        assert columns.used_blocks == columns.total_blocks - healthy_free
        # One group of every row, plus one per row holding a failed core;
        # with fewer cores than rows, one group per row throughout.
        rows = len(columns._ring_matrix)
        assert group_count(per_core) == rows
        if columns.num_kv_cores < rows:
            assert group_count(columns) == rows
        else:
            failed_rows = {
                columns._core_index[core] // columns._ring_width
                for core in columns.failed_cores
            }
            assert group_count(columns) <= 1 + len(failed_rows & set(range(rows)))

    @given(scenario=kv_scenarios())
    # tiny_arch is a frozen dataclass: sharing it across examples is safe.
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_per_core_accounting(self, tiny_arch, scenario):
        config, ops = scenario
        managers = [
            self._build(cls, tiny_arch, config)
            for cls in (DistributedKVCacheManager, PerCoreManager)
        ]
        resident: dict[int, Sequence] = {}
        for admitted, (kind, pick, amount) in enumerate(ops):
            chosen = sorted(resident)[pick % len(resident)] if resident else None
            core = 100 + pick % config["cores"]
            if kind == "admit":
                sequence = make_sequence(admitted, tenant="ab"[pick % 2])
                answers = [manager.try_admit(sequence) for manager in managers]
                if answers[0]:
                    resident[admitted] = sequence
            elif kind == "append" and chosen is not None:
                answers = [
                    manager.append_tokens(resident[chosen], amount) for manager in managers
                ]
            elif kind == "release":
                sequence = resident.pop(chosen) if chosen is not None else make_sequence(-1)
                answers = [manager.release(sequence) for manager in managers]
            elif kind == "on_core":
                answers = [manager.sequences_on_core(core) for manager in managers]
            elif kind == "fail":
                answers = [manager.fail_core(core) for manager in managers]
            elif kind == "restore":
                states = [json.loads(json.dumps(m.snapshot_state())) for m in managers]
                managers = [
                    self._build(type(manager), tiny_arch, config) for manager in managers
                ]
                for manager, state in zip(managers, states):
                    manager.restore_state(state)
                answers = [None, None]
            else:
                continue
            assert answers[0] == answers[1]
            self._assert_same(*managers)

    @pytest.mark.parametrize("kv_cores", [16, 24, 42])
    def test_one_group_admissions_match_per_core(self, tiny_arch, kv_cores):
        """Admissions through the one-group branch (at least ``kv_heads``
        usable columns), padded ones and threshold-starved ones, with uneven
        growth between them, leave the same state as per-core accounting."""
        config = {
            "cores": kv_cores, "blocks_per_core": 8, "threshold": 0.25, "quota": None,
        }
        managers = [
            self._build(cls, tiny_arch, config)
            for cls in (DistributedKVCacheManager, PerCoreManager)
        ]
        heads = tiny_arch.kv_heads
        kinds = []
        for admitted in range(200):
            usable = len(managers[0]._usable_columns())
            kinds.append(
                "one group" if usable >= heads else "padded" if usable else "starved"
            )
            sequence = make_sequence(admitted)
            answers = [manager.try_admit(sequence) for manager in managers]
            assert answers[0] == answers[1]
            self._assert_same(*managers)
            if not answers[0]:
                break
            assert kinds[-1] != "starved"
            growth = uneven_growth(managers[0], admitted)
            answers = [manager.append_tokens(sequence, growth) for manager in managers]
            assert answers[0] == answers[1]
            self._assert_same(*managers)
        assert kinds.count("one group") > 1
        # Columns starve one by one only where the ring is wider than a walk.
        assert ("padded" in kinds) == (managers[0]._ring_width > heads)

    def test_restore_rejects_unequal_ring_pointers(self, manager):
        manager.try_admit(make_sequence(0))
        state = manager.snapshot_state()
        state["ring_pointers"][0] += 1
        with pytest.raises(KVCacheError):
            manager.restore_state(state)

    @staticmethod
    def _uneven_free_blocks(state):
        state["free_blocks"][0] -= 1
        state["free_total"] -= 1

    @staticmethod
    def _head_outside_row_zero(state):
        # Block 0's K row is ring row 0 (cores 0-7); core 8 opens row 1.
        state["page_tables"][0][0][1][0] = 8

    @staticmethod
    def _v_head_off_its_column(state):
        # Block 0's V row is ring row 1 (cores 8-15): head 0 moves from the
        # first column to the second while its K core stays put.
        state["page_tables"][0][0][2][0] = 9

    @pytest.mark.parametrize(
        "corrupt",
        ["_uneven_free_blocks", "_head_outside_row_zero", "_v_head_off_its_column"],
    )
    def test_restore_keeps_asymmetric_state_per_core(self, manager, corrupt):
        """A checkpoint whose ring rows differ, though no core failed, keeps
        its exact per-core state: the uneven row stays a group of its own,
        and a placement off the ring columns is kept as given."""
        manager.try_admit(make_sequence(0))
        state = manager.snapshot_state()
        getattr(self, corrupt)(state)
        manager.restore_state(state)
        assert group_count(manager) == (2 if corrupt == "_uneven_free_blocks" else 1)
        assert manager.snapshot_state() == state

    def test_restore_reenters_columns_without_failures(self, manager):
        for seq_id in range(3):
            manager.try_admit(make_sequence(seq_id))
        state = manager.snapshot_state()
        manager.fail_core(manager.kv_core_ids[0])
        assert group_count(manager) == 2
        manager.restore_state(state)
        assert group_count(manager) == 1
        assert manager.snapshot_state() == state


class TestAccountingSwitchEndToEnd:
    """A served run whose fault plan fails a KV core mid-run moves that
    core's ring row into a second group; straight through, or resumed from a
    checkpoint taken before or after the failure, it equals the run kept
    per-core from the start."""

    #: one KV-core failure at this simulated time, mid-run
    FAULT_S = 0.0008
    #: suspension epochs on either side of the failure (it lands in epoch 5)
    BEFORE, AFTER = 3, 8

    @staticmethod
    def _engine(manager_cls, tiny_arch, small_wafer_config):
        kv_manager = manager_cls(
            tiny_arch, kv_core_ids=list(range(48)), blocks_per_core=32
        )
        cost_model = TokenCostModel(arch=tiny_arch, wafer_config=small_wafer_config)
        config = PipelineConfig(chunk_tokens=32, context_quantum=32, max_active_sequences=6)
        return TokenGrainedPipeline(tiny_arch, cost_model, kv_manager, config=config)

    def _serve(self, manager_cls, tiny_arch, small_wafer_config, **kwargs):
        engine = self._engine(manager_cls, tiny_arch, small_wafer_config)
        plan = FaultPlan([FaultEvent(time_s=self.FAULT_S, kind="kv_core", target=5)])
        outcome = engine.run(mixed_trace(num_requests=24), fault_plan=plan, **kwargs)
        return outcome, engine.kv_manager

    @staticmethod
    def _fingerprint(result, kv_manager):
        return (
            json.dumps(result.as_dict(), sort_keys=True, default=repr),
            kv_manager.stats.as_dict(),
            kv_manager.snapshot_state(),
        )

    def test_switch_matches_per_core_run(self, tiny_arch, small_wafer_config):
        reference = self._fingerprint(
            *self._serve(PerCoreManager, tiny_arch, small_wafer_config)
        )
        result, kv_manager = self._serve(
            DistributedKVCacheManager, tiny_arch, small_wafer_config
        )
        assert result.faults.kv_core_failures == 1
        assert result.faults.recovered_sequences > 0
        assert kv_manager.failed_cores and group_count(kv_manager) == 2
        assert self._fingerprint(result, kv_manager) == reference
        for epoch, failed in ((self.BEFORE, False), (self.AFTER, True)):
            checkpoint, _ = self._serve(
                DistributedKVCacheManager, tiny_arch, small_wafer_config,
                suspend_at_epoch=epoch,
            )
            assert isinstance(checkpoint, EngineCheckpoint)
            assert bool(checkpoint.kv["failed_cores"]) == failed
            restored = EngineCheckpoint.from_dict(
                json.loads(json.dumps(checkpoint.as_dict()))
            )
            resumed = self._serve(
                DistributedKVCacheManager, tiny_arch, small_wafer_config,
                resume_from=restored,
            )
            assert self._fingerprint(*resumed) == reference


@pytest.mark.parametrize("model", DECODER_MODELS)
def test_default_builds_start_in_column_accounting(model):
    """The paper's decoder models start with one ring-row group by default;
    a layout change that silently fell back to per-core would fail here."""
    spec = ExperimentSettings(num_requests=1).deployment(model, "wikitext2")
    kv_manager = api.build_deployment(spec).built.make_pipeline().kv_manager
    assert isinstance(kv_manager, DistributedKVCacheManager)
    assert group_count(kv_manager) == 1
    assert len(kv_manager._free) == kv_manager._ring_width


@st.composite
def batch_growths(draw):
    """A manager configuration, resident sequences with their cached tokens,
    whether a core fails first, and one epoch's growth vector."""
    config = {
        "cores": draw(st.sampled_from(DIFFERENTIAL_CORES)),
        "blocks_per_core": draw(st.sampled_from([3, 6, 16, 24, 64])),
        "threshold": draw(st.sampled_from([0.0, 0.25])),
        "quota": draw(st.sampled_from([None, None, 0.2, 0.5])),
    }
    residents = draw(st.lists(st.integers(0, 600), min_size=1, max_size=12))
    failed = draw(st.one_of(st.none(), st.integers(0, 1000)))
    counts = draw(st.lists(
        st.integers(0, 600), min_size=len(residents), max_size=len(residents)
    ))
    return config, residents, failed, counts


class TestBatchGrowthDifferential:
    """One epoch's growths through ``commit_tokens`` against ``append_tokens``
    per sequence, in order, the way the engine drives them: each call's
    first k growths leave the managers identical, and growth k is one that
    ``append_tokens`` could refuse -- its tenant's quota lacks room, or the
    free floor, measured once and lowered by every commit since, falls
    short.  Growth k then goes through ``append_tokens`` on both."""

    @staticmethod
    def _populate(tiny_arch, config, residents, failed):
        manager = TestColumnAccountingDifferential._build(
            DistributedKVCacheManager, tiny_arch, config
        )
        sequences = []
        for seq_id, tokens in enumerate(residents):
            sequence = make_sequence(seq_id, tenant="ab"[seq_id % 2])
            if manager.try_admit(sequence) and manager.append_tokens(sequence, tokens):
                sequences.append(sequence)
        if failed is not None:
            manager.fail_core(100 + failed % config["cores"])
        return manager, sequences

    @staticmethod
    def _growth(manager, sequence, count):
        """``(blocks charged to the tenant, most blocks from one unit)``."""
        allocation = manager._allocations[sequence.sequence_id]
        needed = -(-(allocation.tokens + count) // manager.tokens_per_block)
        delta = max(0, needed - allocation.blocks_per_slot)
        return allocation.total_slots * delta, allocation.max_slots * delta

    @given(scenario=batch_growths())
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_commit_matches_append_per_sequence(self, tiny_arch, scenario):
        config, residents, failed, counts = scenario
        batch, sequences = self._populate(tiny_arch, config, residents, failed)
        single, _ = self._populate(tiny_arch, config, residents, failed)
        counts = counts[:len(sequences)]
        position = 0
        while position < len(sequences):
            floor = int(single._free.min())
            committed = batch.commit_tokens(sequences[position:], counts[position:])
            for sequence, count in zip(
                sequences[position:position + committed], counts[position:]
            ):
                floor -= self._growth(single, sequence, count)[1]
                assert single.append_tokens(sequence, count)
            assert np.array_equal(batch._free, single._free)
            assert batch.stats.as_dict() == single.stats.as_dict()
            assert batch.used_blocks == single.used_blocks
            assert batch.last_failure_quota_bound == single.last_failure_quota_bound
            assert batch.snapshot_state() == single.snapshot_state()
            position += committed
            if position == len(sequences):
                break
            sequence, count = sequences[position], counts[position]
            blocks, most = self._growth(single, sequence, count)
            assert most > 0
            assert not single._quota_allows(sequence.tenant, blocks) or floor < most
            assert batch.append_tokens(sequence, count) == single.append_tokens(
                sequence, count
            )
            position += 1


@st.composite
def walk_scenarios(draw):
    """A layout (KV heads, ring rows, cores), block budget and threshold,
    plus operations that fail cores in several rows and starve the ring
    columns unevenly; each operation carries two numbers that pick its
    sequence, core or growth."""
    config = {
        "kv_heads": draw(st.sampled_from([1, 2, 4])),
        "num_blocks": draw(st.sampled_from([2, 3])),
        # 3 cores (and 5 under six rows): fewer cores than ring rows, one
        # group per row; the others give rings narrower than, as wide as and
        # wider than a walk
        "cores": draw(st.sampled_from([3, 5, 8, 12, 16, 24, 42])),
        "blocks_per_core": draw(st.sampled_from([4, 8, 16])),
        "threshold": draw(st.sampled_from([0.0, 0.25, 0.5])),
    }
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(("admit", "admit", "admit", "grow", "release", "fail")),
            st.integers(0, 1000),
            st.integers(0, 6),
        ),
        min_size=1,
        max_size=40,
    ))
    return config, ops


class TestGroupWalkDifferential:
    """Admission over any number of ring-row groups against the per-row
    reference walk and against per-core accounting.

    Before each admission the walk of every group equals ``_select_cores``
    run on each ring row.  The admission then takes exactly those cores: it
    succeeds when every row found a usable core and every touched core
    holds its slots, and it records the reference's cores, slots per core
    and placement.  An allocation holding one slot per core carries one slot
    per unit.  A manager kept per-core from the start answers and ends
    identically.
    """

    @staticmethod
    def _build(manager_cls, tiny_arch, config):
        arch = replace(
            tiny_arch, num_blocks=config["num_blocks"], num_kv_heads=config["kv_heads"]
        )
        return manager_cls(
            arch, kv_core_ids=list(range(100, 100 + config["cores"])),
            blocks_per_core=config["blocks_per_core"], threshold=config["threshold"],
        )

    @staticmethod
    def _reference(manager):
        """Every ring row's reference cores (None: some row has no usable
        core), and whether their slots fit."""
        heads = manager.arch.kv_heads
        pointer = manager._ring_pointer
        rows = [
            manager._select_cores(row, pointer, heads)
            for row in manager._ring_matrix.tolist()
        ]
        if None in rows:
            return None, False
        slots = np.bincount(np.ravel(rows), minlength=manager.num_kv_cores)
        return np.asarray(rows), bool((manager._core_free() >= slots).all())

    @given(scenario=walk_scenarios())
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_walk_and_admission_match_reference(self, tiny_arch, scenario):
        config, ops = scenario
        managers = [
            self._build(cls, tiny_arch, config)
            for cls in (DistributedKVCacheManager, PerCoreManager)
        ]
        manager = managers[0]
        resident: dict[int, Sequence] = {}
        for step, (kind, pick, amount) in enumerate(ops):
            if kind == "admit":
                rows, fits = self._reference(manager)
                walked = TestRingSelectionEquivalence._selection(manager)
                if rows is None:
                    assert walked is None
                else:
                    assert walked.tolist() == rows.tolist()
                    # No unit repeats exactly when no core takes two slots.
                    slots = np.bincount(rows.ravel(), minlength=manager.num_kv_cores)
                    assert manager._walk()[2] == (slots.max() == 1)
                sequence = make_sequence(step)
                answers = [m.try_admit(sequence) for m in managers]
                assert answers == [rows is not None and fits] * 2
                if answers[0]:
                    resident[step] = sequence
                    allocation = manager._allocations[step]
                    cores, counts = manager._core_units(allocation)
                    slots = np.bincount(rows.ravel(), minlength=manager.num_kv_cores)
                    assert cores.tolist() == np.flatnonzero(slots).tolist()
                    assert counts.tolist() == slots[cores].tolist()
                    assert manager._placement(allocation).tolist() == (
                        manager._core_ids_array[rows].tolist()
                    )
                    assert allocation.max_slots == counts.max()
                    assert allocation.slots_per_core == (
                        counts.max() if counts.min() == counts.max() else 0
                    )
                    if counts.max() == 1:
                        assert set(allocation.unit_counts.tolist()) == {1}
            elif kind == "grow" and resident:
                sequence = resident[sorted(resident)[pick % len(resident)]]
                growth = amount * manager.tokens_per_block + 1
                answers = [m.append_tokens(sequence, growth) for m in managers]
                assert answers[0] == answers[1]
            elif kind == "release" and resident:
                sequence = resident.pop(sorted(resident)[pick % len(resident)])
                for m in managers:
                    m.release(sequence)
            elif kind == "fail":
                core = 100 + pick % config["cores"]
                answers = [m.fail_core(core) for m in managers]
                assert answers[0] == answers[1]
            assert manager.snapshot_state() == managers[1].snapshot_state()
            assert manager.stats.as_dict() == managers[1].stats.as_dict()
