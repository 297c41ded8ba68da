"""Distributed dynamic KV-cache management and its static baseline."""

from .blocks import tokens_per_block
from .manager import DistributedKVCacheManager, KVCacheStats
from .pagetable import HeadPlacement, PageTable
from .static import StaticKVCacheManager, StaticKVCacheStats

__all__ = [
    "tokens_per_block",
    "DistributedKVCacheManager",
    "KVCacheStats",
    "HeadPlacement",
    "PageTable",
    "StaticKVCacheManager",
    "StaticKVCacheStats",
]
