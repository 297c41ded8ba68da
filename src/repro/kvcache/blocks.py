"""The size of one logical KV block in tokens (Fig. 12c).

In attention mode each crossbar's 1024 x 1024 SRAM array is partitioned into
eight 128 x 1024-bit logical blocks.  With a 128-wide head dimension and 8-bit
KV elements, one logical block holds 128 tokens of K (or V) for a single
attention head.  Free blocks are counted by the managers: per KV unit in
:mod:`repro.kvcache.manager`, as one total in :mod:`repro.kvcache.static`.
"""

from __future__ import annotations

from ..errors import KVCacheError


def tokens_per_block(head_dim: int, element_bytes: int = 1, block_bits: int = 128 * 1024) -> int:
    """How many tokens of one head's K (or V) fit in a logical block."""
    if head_dim <= 0 or element_bytes <= 0:
        raise KVCacheError("head_dim and element_bytes must be positive")
    tokens = block_bits // (head_dim * element_bytes * 8)
    return max(1, tokens)
