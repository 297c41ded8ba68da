"""Tests for the KV-cache primitives: block sizing and the page table."""

import pytest

from repro.errors import KVCacheError
from repro.kvcache.blocks import tokens_per_block
from repro.kvcache.pagetable import HeadPlacement, PageTable


class TestTokensPerBlock:
    def test_paper_head_dim(self):
        assert tokens_per_block(head_dim=128) == 128

    def test_small_head_dim_more_tokens(self):
        assert tokens_per_block(head_dim=64) == 256

    def test_fp16_halves_tokens(self):
        assert tokens_per_block(head_dim=128, element_bytes=2) == 64

    def test_invalid_inputs(self):
        with pytest.raises(KVCacheError):
            tokens_per_block(head_dim=0)


class TestPageTable:
    def placements(self) -> list[HeadPlacement]:
        return [HeadPlacement(head=h, k_core=10 + h, v_core=20 + h) for h in range(4)]

    def test_register_and_lookup(self):
        table = PageTable(block_index=0)
        table.register(1, self.placements())
        assert len(table.lookup(1)) == 4
        assert table.contains(1)
        assert len(table) == 1

    def test_double_register_rejected(self):
        table = PageTable(block_index=0)
        table.register(1, self.placements())
        with pytest.raises(KVCacheError):
            table.register(1, self.placements())

    def test_lookup_missing_rejected(self):
        table = PageTable(block_index=0)
        with pytest.raises(KVCacheError):
            table.lookup(42)

    def test_cores_of(self):
        table = PageTable(block_index=0)
        table.register(1, self.placements())
        cores = table.cores_of(1)
        assert cores == sorted({10, 11, 12, 13, 20, 21, 22, 23})

    def test_remove_idempotent(self):
        table = PageTable(block_index=0)
        table.register(1, self.placements())
        table.remove(1)
        table.remove(1)
        assert not table.contains(1)
        assert table.resident_sequences == []
