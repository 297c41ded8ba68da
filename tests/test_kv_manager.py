"""Tests for the distributed dynamic KV-cache manager and its static baseline."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, KVCacheError
from repro.kvcache.manager import DistributedKVCacheManager
from repro.kvcache.pagetable import PageTable
from repro.kvcache.static import StaticKVCacheManager
from repro.workload.requests import Request, Sequence

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
        manager.append_token(seq)
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
    def test_fast_selection_matches_walk_when_heads_exceed_group(self, tiny_arch):
        # 8 cores / 4 groups -> group size 2 < kv_heads: the fast path must
        # reproduce the walk's pad-with-first-usable behaviour exactly.
        manager = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(8)), blocks_per_core=16
        )
        heads = tiny_arch.kv_heads
        assert heads > len(manager._k_groups[0])
        fast = manager._select_all_blocks_fast()
        for block in range(tiny_arch.num_blocks):
            pointer = manager._ring_pointers[block]
            walk_k = manager._select_cores(manager._k_groups[block], pointer, heads)
            walk_v = manager._select_cores(manager._v_groups[block], pointer, heads)
            assert fast[2 * block].tolist() == walk_k
            assert fast[2 * block + 1].tolist() == walk_v

    @pytest.mark.parametrize("kv_cores", [8, 32])
    def test_group_walk_matches_per_group_walk(self, tiny_arch, kv_cores):
        """With failed and threshold-starved cores, the vectorised walk of all
        groups hands out exactly what the per-group walk does."""
        manager = DistributedKVCacheManager(
            tiny_arch, kv_core_ids=list(range(kv_cores)), blocks_per_core=8,
            threshold=0.5,
        )
        heads = tiny_arch.kv_heads
        admitted = 0
        while manager.try_admit(make_sequence(admitted)):
            admitted += 1
            if admitted % 3 == 0:
                manager.fail_core(manager.kv_core_ids[admitted % kv_cores])
            walked = manager._walk_all_groups()
            expected = []
            for block in range(tiny_arch.num_blocks):
                pointer = int(manager._ring_pointers[block])
                expected.append(manager._select_cores(manager._k_groups[block], pointer, heads))
                expected.append(manager._select_cores(manager._v_groups[block], pointer, heads))
            if walked is None:
                assert None in expected
            else:
                assert walked.tolist() == expected
        assert admitted > 1
        assert manager.failed_cores

    def test_fast_selection_matches_walk_after_pointer_advance(self, manager, tiny_arch):
        manager.try_admit(make_sequence(0))  # advances every ring pointer
        heads = tiny_arch.kv_heads
        fast = manager._select_all_blocks_fast()
        for block in range(tiny_arch.num_blocks):
            pointer = manager._ring_pointers[block]
            walk_k = manager._select_cores(manager._k_groups[block], pointer, heads)
            assert fast[2 * block].tolist() == walk_k


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
