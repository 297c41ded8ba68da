"""Static KV-cache allocation baseline.

The ablation baseline (Section 6.5) uses static KV management: every admitted
sequence reserves space for the model's maximum context length up front,
regardless of how many tokens it will actually cache.  This wastes blocks on
short sequences and limits the number of concurrently resident sequences,
which is exactly the inefficiency the distributed dynamic manager removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError, KVCacheError
from ..models.architectures import ModelArch
from ..workload.requests import Sequence
from .blocks import tokens_per_block


@dataclass
class StaticKVCacheStats:
    admitted_sequences: int = 0
    released_sequences: int = 0
    failed_admissions: int = 0
    #: admissions refused because the tenant's KV quota was exhausted
    #: (subset of ``failed_admissions``)
    quota_rejections: int = 0
    peak_resident: int = 0


class StaticKVCacheManager:
    """Reserve worst-case KV space per sequence at admission time."""

    def __init__(
        self,
        arch: ModelArch,
        kv_core_ids: list[int] | int,
        blocks_per_core: int = 256,
        reserved_context: int | None = None,
        element_bytes: int | None = None,
    ) -> None:
        if isinstance(kv_core_ids, int):
            num_cores = kv_core_ids
        else:
            num_cores = len(kv_core_ids)
        if num_cores <= 0:
            raise ConfigurationError("at least one KV core is required")
        self.arch = arch
        self.num_kv_cores = num_cores
        self.blocks_per_core = blocks_per_core
        self.element_bytes = element_bytes or arch.activation_bytes
        self.tokens_per_block = tokens_per_block(arch.head_dim, self.element_bytes)
        self.reserved_context = reserved_context or arch.max_context
        self.stats = StaticKVCacheStats()
        self._resident: dict[int, int] = {}  # sequence id -> reserved blocks
        self._free_blocks = num_cores * blocks_per_core
        #: whether the most recent admission failure was quota-bound (read by
        #: the scheduler to steer eviction pressure intra-tenant first)
        self.last_failure_quota_bound = False
        self._tenant_quotas: dict[str, float] = {}
        self._tenant_quota_blocks: dict[str, int] = {}
        self._tenant_used: dict[str, int] = {}
        # Static reservations never vary per sequence, so the per-sequence
        # block count and the byte capacity are computed once, not per call.
        slots = 2 * self.arch.num_blocks * self.arch.kv_heads
        blocks_per_slot = max(1, math.ceil(self.reserved_context / self.tokens_per_block))
        self._blocks_per_sequence = slots * blocks_per_slot
        self._capacity_bytes = (
            self.total_blocks * self.tokens_per_block * arch.head_dim * self.element_bytes
        )

    # ------------------------------------------------------------------ sizing

    @property
    def total_blocks(self) -> int:
        return self.num_kv_cores * self.blocks_per_core

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self._free_blocks

    @property
    def utilization(self) -> float:
        return self.used_blocks / self.total_blocks if self.total_blocks else 0.0

    @property
    def capacity_bytes(self) -> int:
        """Raw KV capacity in bytes (cached at construction; O(1))."""
        return self._capacity_bytes

    def blocks_per_sequence(self) -> int:
        """Blocks statically reserved for one sequence (cached; O(1))."""
        return self._blocks_per_sequence

    def max_concurrent_sequences(self, context_length: int | None = None) -> int:
        """Static allocation ignores the actual context length.

        Returns 0 when a single worst-case sequence does not fit the cache.
        """
        per_sequence = self._blocks_per_sequence
        return self.total_blocks // per_sequence if per_sequence else 0

    @property
    def resident_sequences(self) -> list[int]:
        return sorted(self._resident)

    # ---------------------------------------------------------------- quotas

    def set_tenant_quotas(self, quotas: dict[str, float]) -> None:
        """Cap each listed tenant to a fraction of the cache's blocks.

        Same semantics as the dynamic manager's
        :meth:`~repro.kvcache.manager.DistributedKVCacheManager.set_tenant_quotas`:
        ``floor(fraction * total_blocks)`` blocks, 0.0 rejects everything,
        unlisted tenants are uncapped.
        """
        for tenant, fraction in quotas.items():
            if not 0.0 <= fraction <= 1.0:
                raise ConfigurationError(
                    f"tenant {tenant!r} kv_quota must lie in [0, 1], got {fraction}"
                )
        self._tenant_quotas = dict(quotas)
        self._tenant_quota_blocks = {
            tenant: int(fraction * self.total_blocks)
            for tenant, fraction in self._tenant_quotas.items()
        }
        for tenant in self._tenant_quota_blocks:
            self._tenant_used.setdefault(tenant, 0)

    def tenant_quota_blocks(self, tenant: str) -> int | None:
        """Block cap of a tenant (None when uncapped)."""
        return self._tenant_quota_blocks.get(tenant)

    def tenant_used_blocks(self, tenant: str) -> int:
        """Blocks currently held by a quota'd tenant (0 when uncapped)."""
        return self._tenant_used.get(tenant, 0)

    # -------------------------------------------------------------- allocation

    def try_admit(self, sequence: Sequence) -> bool:
        sequence_id = sequence.sequence_id
        if sequence_id in self._resident:
            raise KVCacheError(f"sequence {sequence_id} is already resident")
        self.last_failure_quota_bound = False
        needed = self.blocks_per_sequence()
        cap = self._tenant_quota_blocks.get(sequence.tenant)
        if cap is not None and self._tenant_used.get(sequence.tenant, 0) + needed > cap:
            self.stats.failed_admissions += 1
            self.stats.quota_rejections += 1
            self.last_failure_quota_bound = True
            return False
        if needed > self._free_blocks:
            self.stats.failed_admissions += 1
            return False
        self._free_blocks -= needed
        self._resident[sequence_id] = needed
        if sequence.tenant in self._tenant_quota_blocks:
            self._tenant_used[sequence.tenant] += needed
        self.stats.admitted_sequences += 1
        self.stats.peak_resident = max(self.stats.peak_resident, len(self._resident))
        return True

    def append_tokens(self, sequence: Sequence, count: int = 1) -> bool:
        """Growth always succeeds up to the statically reserved context."""
        if sequence.sequence_id not in self._resident:
            raise KVCacheError(
                f"sequence {sequence.sequence_id} is not resident in the KV cache"
            )
        return sequence.context_length + count <= self.reserved_context

    def commit_tokens(self, sequences: list[Sequence], counts: list[int]) -> int:
        """Growth inside the reservation needs no bookkeeping: count the
        growths, in order, up to the first one past the reserved context."""
        reserved = self.reserved_context
        for committed, (sequence, count) in enumerate(zip(sequences, counts)):
            if sequence.context_length + count > reserved:
                return committed
        return len(sequences)

    def release(self, sequence: Sequence) -> None:
        reserved = self._resident.pop(sequence.sequence_id, None)
        if reserved is None:
            return
        self._free_blocks += reserved
        if sequence.tenant in self._tenant_quota_blocks:
            self._tenant_used[sequence.tenant] -= reserved
        self.stats.released_sequences += 1

    # -------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict[str, Any]:
        """JSON-able occupancy state for a bit-for-bit checkpoint."""
        return {
            "resident": [list(item) for item in self._resident.items()],
            "free_blocks": self._free_blocks,
            "tenant_quotas": dict(self._tenant_quotas),
            "tenant_used": dict(self._tenant_used),
            "stats": dict(self.stats.__dict__),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self._resident = {seq_id: blocks for seq_id, blocks in state["resident"]}
        self._free_blocks = state["free_blocks"]
        self._tenant_used = dict(state.get("tenant_used", {}))
        self.set_tenant_quotas(dict(state.get("tenant_quotas", {})))
        self.last_failure_quota_bound = False
        self.stats = StaticKVCacheStats(**state["stats"])
