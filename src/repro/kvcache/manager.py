"""Distributed dynamic KV-cache management (Section 4.4).

The manager owns every CIM core that the inter-core weight mapping left
unassigned.  Those cores are split per transformer block into a K group
(computing S = Q K^T) and a V group (computing softmax(S) V).  For each
admitted sequence it allocates, per block and per attention head, one core from
each group (walking a ring pointer so that consecutively scheduled sequences
land on distinct cores, Section 4.4.3) and grows the per-head logical-block
allocation as the sequence's context expands.

Address translation is three-level (Fig. 12): a per-block page table maps the
sequence to per-head core coordinates; each core's bitmap maps the sequence to
logical blocks; each crossbar's free-block table tracks valid rows.  For
simulation speed the manager keeps the block occupancy in vectorised per-core
counters plus O(1) running totals (free/healthy block counts are maintained
incrementally, never recomputed by scanning the core arrays), and the ring
selection of admission cores is a handful of vectorised index operations.
Each resident sequence keeps its ring selection as one placement array; the
per-block page tables are exact views built from those arrays on lookup
(:class:`~repro.kvcache.pagetable.PlacementPageTables`), so admission and
release never touch per-block tables.

Token growth is split by what it costs.  Most growth stays inside the
sequence's last logical block and only counts tokens; the serving engine asks
:meth:`DistributedKVCacheManager.growth_events` once per epoch which
sequences cross a block boundary, sends only those through
:meth:`~DistributedKVCacheManager.append_tokens`, and records the rest with
one :meth:`~DistributedKVCacheManager.commit_tokens` call.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError, KVCacheError
from ..models.architectures import ModelArch
from ..workload.requests import Sequence
from .blocks import tokens_per_block
from .pagetable import PlacementPageTables


def _windows(doubled: npt.NDArray[Any], width: int) -> npt.NDArray[Any]:
    """``[row, start]`` -> ``doubled[row, start:start + width]``, without a copy.

    Built directly as a strided view rather than through
    ``numpy.lib.stride_tricks``, whose import would cost every cold build
    tens of milliseconds.
    """
    row_stride, item = doubled.strides
    return np.ndarray(
        shape=(doubled.shape[0], doubled.shape[1] - width + 1, width),
        dtype=doubled.dtype,
        buffer=doubled,
        strides=(row_stride, item, item),
    )


@dataclass
class KVCacheStats:
    """Counters describing KV-cache behaviour over a run."""

    admitted_sequences: int = 0
    released_sequences: int = 0
    allocated_blocks: int = 0
    released_blocks: int = 0
    failed_admissions: int = 0
    failed_growths: int = 0
    #: admissions refused because the tenant's KV quota was exhausted
    #: (subset of ``failed_admissions``)
    quota_rejections: int = 0
    #: growths refused because the tenant's KV quota was exhausted
    #: (subset of ``failed_growths``)
    quota_blocked_growths: int = 0
    peak_used_blocks: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _SequenceAllocation:
    """Internal record of one resident sequence's KV allocation.

    The per-core slot multiplicity is stored sparsely: ``unique_cores`` holds
    the local indices of the cores the sequence actually touches and
    ``unique_counts`` the number of (block, head, K/V) slots on each.  Growth
    and release then scale with the sequence's footprint instead of the total
    KV-core count.
    """

    sequence_id: int
    unique_cores: npt.NDArray[np.int64]
    unique_counts: npt.NDArray[np.int64]
    blocks_per_slot: int
    tokens: int
    #: global core id of every (transformer block, K/V, head) slot: one row
    #: per block and group (K row, then V row), one column per KV head --
    #: the source of the page-table views
    placement: npt.NDArray[np.int64]
    #: slots summed over the touched cores
    total_slots: int = field(init=False)
    #: most slots on one touched core
    max_slots: int = field(init=False)
    #: the slots every touched core holds when that is one number for all of
    #: them (the usual case: one slot per core), else 0
    slots_per_core: int = field(init=False)

    def __post_init__(self) -> None:
        counts = self.unique_counts
        self.total_slots = int(counts.sum())
        low, self.max_slots = (
            (int(counts.min()), int(counts.max())) if len(counts) else (0, 0)
        )
        self.slots_per_core = self.max_slots if low == self.max_slots else 0

    def per_core(self, blocks_per_slot: int) -> npt.NDArray[np.int64] | int:
        """Blocks on each touched core for ``blocks_per_slot`` blocks a slot."""
        if self.slots_per_core:
            return self.slots_per_core * blocks_per_slot
        return self.unique_counts * blocks_per_slot


class DistributedKVCacheManager:
    """Dynamic, distributed KV-cache manager with per-block ring allocation."""

    def __init__(
        self,
        arch: ModelArch,
        kv_core_ids: list[int],
        blocks_per_core: int = 256,
        threshold: float = 0.0,
        element_bytes: int | None = None,
    ) -> None:
        if not kv_core_ids:
            raise ConfigurationError("at least one KV core is required")
        if not 0.0 <= threshold < 1.0:
            raise ConfigurationError("threshold must lie in [0, 1)")
        if blocks_per_core <= 0:
            raise ConfigurationError("blocks_per_core must be positive")
        self.arch = arch
        self.kv_core_ids = list(kv_core_ids)
        self.blocks_per_core = blocks_per_core
        self.threshold = threshold
        self.element_bytes = element_bytes or arch.activation_bytes
        self.tokens_per_block = tokens_per_block(arch.head_dim, self.element_bytes)
        self.stats = KVCacheStats()
        #: whether the most recent admission/growth failure was caused by a
        #: tenant quota rather than cache pressure.  The scheduler reads this
        #: to decide whether evicting *other* tenants could possibly help.
        self.last_failure_quota_bound = False
        #: per-tenant cap as the configured fraction of the cache
        self._tenant_quotas: dict[str, float] = {}
        #: per-tenant cap in blocks (floor of fraction x configured capacity)
        self._tenant_quota_blocks: dict[str, int] = {}
        #: blocks currently held per quota'd tenant
        self._tenant_used: dict[str, int] = {}

        num_cores = len(self.kv_core_ids)
        self._free_blocks = np.full(num_cores, blocks_per_core, dtype=np.int64)
        self._core_index = {core_id: i for i, core_id in enumerate(self.kv_core_ids)}
        self._core_ids_array = np.asarray(self.kv_core_ids, dtype=np.int64)
        self._allocations: dict[int, _SequenceAllocation] = {}
        self._failed_cores: set[int] = set()
        #: O(1) running totals (kept in sync by every allocation mutation)
        self._free_total = num_cores * blocks_per_core
        self._free_on_failed = 0
        #: a lower bound on every core's free blocks, lowered by each
        #: reservation and re-measured only when a growth needs more: while it
        #: covers a growth, no touched core can be short of blocks
        self._free_floor = blocks_per_core
        self._threshold_blocks = int(self.threshold * blocks_per_core)
        self._block_bytes = self.tokens_per_block * arch.head_dim * self.element_bytes

        # Split the KV cores into one (K group, V group) pair per transformer
        # block, preserving wafer order so that each block's KV cores sit near
        # its weight cores when the mapper interleaves them.
        self._k_groups: list[list[int]] = []
        self._v_groups: list[list[int]] = []
        groups = 2 * arch.num_blocks
        per_group = max(1, num_cores // groups)
        for block in range(arch.num_blocks):
            k_start = (2 * block) * per_group
            v_start = (2 * block + 1) * per_group
            k_group = list(range(k_start, min(k_start + per_group, num_cores)))
            v_group = list(range(v_start, min(v_start + per_group, num_cores)))
            if not k_group:
                k_group = [k_start % num_cores]
            if not v_group:
                v_group = [v_start % num_cores]
            self._k_groups.append(k_group)
            self._v_groups.append(v_group)
        #: per-block ring pointer into the K/V groups, advanced by ``kv_heads``
        #: modulo the group size on every admission
        self._ring_pointers = np.zeros(arch.num_blocks, dtype=np.int64)

        # Vectorised admission state.  Every group has the same size (the
        # split above hands each ``num_cores // groups`` cores, or one core
        # when there are fewer cores than groups), so the groups stack into
        # one matrix, rows alternating K / V group in block order, and one
        # fancy-index picks the ring cores of every block at once.
        self._ring_matrix = np.asarray(
            [group for pair in zip(self._k_groups, self._v_groups) for group in pair],
            dtype=np.int64,
        )
        self._ring_rows = np.arange(len(self._ring_matrix), dtype=np.int64)
        grouped = self._ring_matrix.ravel()
        #: every grouped core, as a plain slice when the groups tile a prefix
        #: of the cores (the usual layout)
        self._grouped_cores: slice | npt.NDArray[np.int64] = grouped
        if np.array_equal(grouped, np.arange(len(grouped))):
            self._grouped_cores = slice(0, len(grouped))
        heads = self.arch.kv_heads
        size = self._ring_matrix.shape[1]
        self._head_range = np.arange(heads, dtype=np.int64)
        #: every ring row written out twice: a walk of up to ``size`` steps
        #: from any pointer is then a plain slice of its row, no modulo
        self._ring_doubled = np.concatenate([self._ring_matrix] * 2, axis=1)
        #: ``[row, pointer]`` -> the ``heads`` cores a ring walk from
        #: ``pointer`` hands out when every core is usable (groups at least
        #: ``heads`` wide)
        self._ring_windows: npt.NDArray[np.int64] | None = None
        if size >= heads:
            self._ring_windows = _windows(self._ring_doubled, heads)
        #: ring selections never place two slots on one core: every group
        #: is at least ``heads`` wide and no core sits in two groups
        self._selection_distinct = (
            size >= heads and int(np.bincount(grouped).max()) == 1
        )

    # ------------------------------------------------------------------ sizing

    @property
    def num_kv_cores(self) -> int:
        return len(self.kv_core_ids)

    @property
    def total_blocks(self) -> int:
        return (self.num_kv_cores - len(self._failed_cores)) * self.blocks_per_core

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self._available_blocks()

    def _available_blocks(self) -> int:
        """Free blocks on healthy cores -- an O(1) incremental counter."""
        return self._free_total - self._free_on_failed

    @property
    def utilization(self) -> float:
        total = self.total_blocks
        return self.used_blocks / total if total else 0.0

    @property
    def capacity_bytes(self) -> int:
        """Raw KV capacity in bytes across all healthy KV cores (O(1))."""
        return self.total_blocks * self._block_bytes

    @property
    def resident_sequences(self) -> list[int]:
        return sorted(self._allocations)

    @property
    def page_tables(self) -> PlacementPageTables:
        """Every transformer block's page table, read from the placements.

        A fresh view per access: the manager keeps no reference to it, so
        no reference cycle holds a finished run's manager in memory.
        """
        return PlacementPageTables(self.arch.num_blocks, self._placements)

    # ---------------------------------------------------------------- quotas

    def set_tenant_quotas(self, quotas: dict[str, float]) -> None:
        """Cap each listed tenant to a fraction of the configured capacity.

        The cap is ``floor(fraction * num_kv_cores * blocks_per_core)`` blocks
        -- computed against the *configured* capacity, not the currently
        healthy one, so core failures do not silently shrink a tenant's
        entitlement mid-run.  A fraction of 0.0 is a valid cap that rejects
        every admission for that tenant.  Tenants not listed are uncapped.
        """
        for tenant, fraction in quotas.items():
            if not 0.0 <= fraction <= 1.0:
                raise ConfigurationError(
                    f"tenant {tenant!r} kv_quota must lie in [0, 1], got {fraction}"
                )
        self._tenant_quotas = dict(quotas)
        capacity = self.num_kv_cores * self.blocks_per_core
        self._tenant_quota_blocks = {
            tenant: int(fraction * capacity)
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

    def _quota_allows(self, tenant: str, blocks: int) -> bool:
        cap = self._tenant_quota_blocks.get(tenant)
        if cap is None:
            return True
        return self._tenant_used.get(tenant, 0) + blocks <= cap

    def _charge_tenant(self, tenant: str, blocks: int) -> None:
        if tenant in self._tenant_quota_blocks:
            self._tenant_used[tenant] += blocks

    def tokens_cached(self, sequence_id: int) -> int:
        allocation = self._allocations.get(sequence_id)
        return allocation.tokens if allocation else 0

    def blocks_held(self, sequence_id: int) -> int:
        allocation = self._allocations.get(sequence_id)
        if allocation is None:
            return 0
        return allocation.blocks_per_slot * allocation.total_slots

    def max_concurrent_sequences(self, context_length: int) -> int:
        """How many sequences of a given context length fit simultaneously.

        Returns 0 when no healthy KV cores remain or when a single sequence of
        that context length needs more blocks than the whole cache holds.
        """
        total = self.total_blocks
        if total <= 0:
            return 0
        slots = 2 * self.arch.num_blocks * self.arch.kv_heads
        blocks_per_slot = max(1, math.ceil(max(0, context_length) / self.tokens_per_block))
        blocks_per_sequence = slots * blocks_per_slot
        if blocks_per_sequence == 0:
            return 0
        return total // blocks_per_sequence

    # -------------------------------------------------------------- allocation

    def _select_cores(self, group: list[int], pointer: int, count: int) -> list[int] | None:
        """Pick ``count`` cores from a ring group starting at ``pointer``.

        Cores whose free space is below the reservation threshold (or that have
        failed) are skipped for *new* allocations; if fewer than ``count``
        usable cores exist, cores may be reused for several heads.  This is
        the reference walk of one group; admission runs all groups at once
        through :meth:`_walk_all_groups`, which the tests hold equal to it.
        """
        threshold_blocks = self._threshold_blocks
        usable: list[int] = []
        size = len(group)
        for offset in range(size):
            local = group[(pointer + offset) % size]
            if self.kv_core_ids[local] in self._failed_cores:
                continue
            if self._free_blocks[local] <= threshold_blocks:
                continue
            usable.append(local)
            if len(usable) == count:
                break
        if not usable:
            return None
        while len(usable) < count:
            usable.append(usable[len(usable) % max(1, len(usable))])
        return usable[:count]

    def _select_all_blocks_fast(self) -> npt.NDArray[np.int64]:
        """Ring selection for every (block, K/V) group in a few array ops.

        Only valid when no core has failed and every core of every group sits
        above the reservation threshold (the overwhelmingly common case);
        :meth:`_walk_all_groups` handles the rest.  Returns an array of
        shape ``(2 * num_blocks, kv_heads)`` of local core indices, rows
        alternating K group / V group per block.
        """
        # A block's K and V groups share its ring pointer.
        pointers = np.repeat(self._ring_pointers, 2)
        if self._ring_windows is not None:
            return self._ring_windows[self._ring_rows, pointers]
        # Fewer cores than heads: the walk hands out each core once in ring
        # order, then pads every remaining head with the first usable core --
        # replicate that exactly.
        size = self._ring_matrix.shape[1]
        ring = (pointers[:, None] + np.arange(size, dtype=np.int64)) % size
        part = self._ring_matrix[self._ring_rows[:, None], ring]
        pad = np.repeat(part[:, :1], len(self._head_range) - size, axis=1)
        return np.concatenate([part, pad], axis=1)

    def _walk_all_groups(self) -> npt.NDArray[np.int64] | None:
        """:meth:`_select_cores` for every (block, K/V) group at once.

        Each group hands out, in ring order from its block's pointer, the
        first ``kv_heads`` cores that have not failed and hold more than the
        threshold free blocks, and pads with the first of them when fewer are
        usable.  Same shape as :meth:`_select_all_blocks_fast`; None when
        some group has no usable core.
        """
        matrix = self._ring_matrix
        size = matrix.shape[1]
        heads = len(self._head_range)
        usable = self._free_blocks[matrix] > self._threshold_blocks
        if self._failed_cores:
            failed = np.zeros(self.num_kv_cores, dtype=bool)
            failed[[self._core_index[core] for core in sorted(self._failed_cores)]] = True
            usable &= ~failed[matrix]
        pointers = np.repeat(self._ring_pointers, 2)
        # Column j: whether the core j steps round the ring from the pointer
        # is usable.
        in_order = _windows(np.concatenate([usable] * 2, axis=1), size)[
            self._ring_rows, pointers
        ]
        found = in_order.sum(axis=1)
        if not found.all():
            return None
        # A stable sort moves the usable steps to the front, in ring order;
        # heads beyond a group's usable cores reuse its first one.
        steps = np.argsort(~in_order, axis=1, kind="stable")[:, :heads]
        if size < heads:
            steps = np.concatenate(
                [steps, np.repeat(steps[:, :1], heads - size, axis=1)], axis=1
            )
        steps = np.where(self._head_range < found[:, None], steps, steps[:, :1])
        starts = self._ring_rows * (2 * size) + pointers
        return self._ring_doubled.ravel()[starts[:, None] + steps]

    def try_admit(self, sequence: Sequence) -> bool:
        """Reserve one logical block per (block, head, K/V) slot for a sequence."""
        sequence_id = sequence.sequence_id
        if sequence_id in self._allocations:
            raise KVCacheError(f"sequence {sequence_id} is already resident")
        self.last_failure_quota_bound = False
        heads = self.arch.kv_heads
        num_blocks = self.arch.num_blocks

        if self._tenant_quota_blocks:
            # At admission every sequence reserves exactly one block per
            # (transformer block, KV head, K/V) slot, independent of where the
            # ring places them -- so the quota check can run before any
            # placement work.
            reserve = 2 * num_blocks * heads
            if not self._quota_allows(sequence.tenant, reserve):
                self.stats.failed_admissions += 1
                self.stats.quota_rejections += 1
                self.last_failure_quota_bound = True
                return False

        # With every core of every group usable the selection is pure ring
        # arithmetic; otherwise the rings are walked past unusable cores.
        all_usable = (
            not self._failed_cores
            and self._free_blocks[self._grouped_cores].min() > self._threshold_blocks
        )
        selection = (
            self._select_all_blocks_fast() if all_usable else self._walk_all_groups()
        )
        if selection is None:
            self.stats.failed_admissions += 1
            return False

        touched: npt.NDArray[np.integer[Any]]
        touched_counts: npt.NDArray[np.integer[Any]]
        if all_usable and self._selection_distinct:
            # One slot on each of distinct cores, every one holding more than
            # the threshold (>= 0) free blocks: the reservation fits.
            touched = np.sort(selection, axis=None)
            touched_counts = np.ones(len(touched), dtype=np.int64)
            self._reserve(touched, 1, 1)
        else:
            counts = np.bincount(selection.ravel(), minlength=self.num_kv_cores)
            touched = np.nonzero(counts)[0]
            touched_counts = counts[touched]
            if (self._free_blocks[touched] < touched_counts).any():
                self.stats.failed_admissions += 1
                return False
            self._reserve(touched, touched_counts, int(touched_counts.max()))
        total_reserved = int(touched_counts.sum())
        self._free_total -= total_reserved
        self._charge_tenant(sequence.tenant, total_reserved)
        self._allocations[sequence_id] = _SequenceAllocation(
            sequence_id=sequence_id,
            # astype(copy=False) is a no-op view here (bincount/nonzero yield
            # intp == int64 on this platform); it only pins the static type.
            unique_cores=touched.astype(np.int64, copy=False),
            unique_counts=touched_counts.astype(np.int64, copy=False),
            blocks_per_slot=1,
            tokens=0,
            placement=self._core_ids_array[selection],
        )
        self._ring_pointers = (self._ring_pointers + heads) % self._ring_matrix.shape[1]
        self.stats.admitted_sequences += 1
        self.stats.allocated_blocks += total_reserved
        self._update_peak()
        return True

    def append_tokens(self, sequence: Sequence, count: int = 1) -> bool:
        """Reserve KV space for ``count`` more tokens of a resident sequence."""
        if count < 0:
            raise KVCacheError("count must be non-negative")
        allocation = self._allocations.get(sequence.sequence_id)
        if allocation is None:
            raise KVCacheError(
                f"sequence {sequence.sequence_id} is not resident in the KV cache"
            )
        self.last_failure_quota_bound = False
        new_tokens = allocation.tokens + count
        needed = max(1, math.ceil(new_tokens / self.tokens_per_block))
        delta = needed - allocation.blocks_per_slot
        if delta > 0:
            total_required = allocation.total_slots * delta
            if not self._quota_allows(sequence.tenant, total_required):
                self.stats.failed_growths += 1
                self.stats.quota_blocked_growths += 1
                self.last_failure_quota_bound = True
                return False
            cores = allocation.unique_cores
            required = allocation.per_core(delta)
            most = allocation.max_slots * delta
            if self._free_floor < most:
                self._free_floor = int(self._free_blocks.min())
                if self._free_floor < most and (
                    self._free_blocks[cores] < required
                ).any():
                    self.stats.failed_growths += 1
                    return False
            self._reserve(cores, required, most)
            self._free_total -= total_required
            self._charge_tenant(sequence.tenant, total_required)
            if self._failed_cores:
                self._free_on_failed -= self._sum_on_failed(allocation, delta)
            allocation.blocks_per_slot = needed
            self.stats.allocated_blocks += total_required
            # Occupancy only rises when blocks are allocated, so the
            # high-water mark is only ever raised here and at admission.
            self._update_peak()
        allocation.tokens = new_tokens
        return True

    def append_token(self, sequence: Sequence) -> bool:
        """Scheduler-protocol alias for :meth:`append_tokens` with one token."""
        return self.append_tokens(sequence, 1)

    def growth_events(
        self, cached: npt.NDArray[np.int64], counts: npt.NDArray[np.int64]
    ) -> npt.NDArray[np.bool_]:
        """Which growths would allocate blocks (or fail), as one array query.

        ``cached[i]`` is the token count resident sequence *i* holds and
        ``counts[i]`` the tokens it is about to append.  Entry *i* is True
        when :meth:`append_tokens` would have to reserve another logical
        block per slot -- the growth crosses a block boundary -- and False
        when it only counts tokens, which :meth:`commit_tokens` does for a
        whole batch of sequences at once.
        """
        per_block = self.tokens_per_block
        held = np.maximum(1, -(-cached // per_block))
        needed = np.maximum(1, -(-(cached + counts) // per_block))
        return needed > held

    def commit_tokens(self, sequences: list[Sequence], counts: list[int]) -> None:
        """Record growth that :meth:`growth_events` reported as block-free.

        Equivalent to ``append_tokens(sequence, count)`` returning True for
        every pair: no block is allocated, so only the token counts change.
        """
        allocations = self._allocations
        for sequence, count in zip(sequences, counts):
            allocations[sequence.sequence_id].tokens += count

    def release(self, sequence: Sequence) -> None:
        """Free every block held by a sequence (completion or eviction)."""
        allocation = self._allocations.pop(sequence.sequence_id, None)
        if allocation is None:
            return
        returned_total = allocation.total_slots * allocation.blocks_per_slot
        # ufunc.at: an unbuffered in-place add, cheaper than a fancy-index
        # gather + scatter (the cores are distinct either way).
        np.add.at(
            self._free_blocks,
            allocation.unique_cores,
            allocation.per_core(allocation.blocks_per_slot),
        )
        self._free_total += returned_total
        self._charge_tenant(sequence.tenant, -returned_total)
        if self._failed_cores:
            self._free_on_failed += self._sum_on_failed(
                allocation, allocation.blocks_per_slot
            )
        self.stats.released_sequences += 1
        self.stats.released_blocks += returned_total

    def _reserve(
        self,
        cores: npt.NDArray[np.integer[Any]],
        blocks: npt.NDArray[np.integer[Any]] | int,
        most: int,
    ) -> None:
        """Take ``blocks`` free blocks from each of the (distinct) ``cores``;
        ``most`` is the largest per-core amount, which lowers the floor."""
        np.subtract.at(self._free_blocks, cores, blocks)
        self._free_floor -= most

    def _placements(self) -> Iterator[tuple[int, npt.NDArray[np.int64]]]:
        """``(sequence id, placement)`` of every resident sequence, in admission
        order -- what the page-table views are built from."""
        return (
            (allocation.sequence_id, allocation.placement)
            for allocation in self._allocations.values()
        )

    def _sum_on_failed(self, allocation: _SequenceAllocation, per_slot: int) -> int:
        """Blocks of an allocation delta that land on failed cores."""
        failed_locals = [
            self._core_index[core_id]
            for core_id in sorted(self._failed_cores)
        ]
        mask = np.isin(allocation.unique_cores, failed_locals)
        if not mask.any():
            return 0
        return int(allocation.unique_counts[mask].sum()) * per_slot

    # ---------------------------------------------------------------- failures

    def fail_core(self, core_id: int) -> list[int]:
        """Mark a KV core as failed; return ids of sequences needing recompute.

        Per Section 4.3.3, when a KV-storage core fails only the sequences
        stored on that core need recomputation.
        """
        if core_id not in self._core_index:
            raise KVCacheError(f"core {core_id} is not a KV core")
        local = self._core_index[core_id]
        if core_id not in self._failed_cores:
            self._free_on_failed += int(self._free_blocks[local])
        self._failed_cores.add(core_id)
        affected = [
            allocation.sequence_id
            for allocation in self._allocations.values()
            if bool((allocation.unique_cores == local).any())
        ]
        return affected

    @property
    def failed_cores(self) -> set[int]:
        return set(self._failed_cores)

    def sequences_on_core(self, core_id: int) -> list[int]:
        """Ids of resident sequences with at least one slot on ``core_id``.

        The blast radius of a transient block loss on one core: unlike
        :meth:`fail_core` the core stays healthy, but the listed sequences'
        cached context is gone and must be recomputed.
        """
        if core_id not in self._core_index:
            raise KVCacheError(f"core {core_id} is not a KV core")
        local = self._core_index[core_id]
        return [
            allocation.sequence_id
            for allocation in self._allocations.values()
            if bool((allocation.unique_cores == local).any())
        ]

    # -------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict[str, Any]:
        """JSON-able occupancy state for a bit-for-bit checkpoint.

        Derived vectorised state (group arrays/matrices, running caches) is
        rebuilt by ``__init__`` deterministically from the configuration and
        is deliberately not part of the snapshot.
        """
        return {
            "free_blocks": self._free_blocks.tolist(),
            "allocations": [
                [
                    allocation.sequence_id,
                    {
                        "cores": allocation.unique_cores.tolist(),
                        "counts": allocation.unique_counts.tolist(),
                        "blocks_per_slot": allocation.blocks_per_slot,
                        "tokens": allocation.tokens,
                    },
                ]
                for allocation in self._allocations.values()
            ],
            "ring_pointers": self._ring_pointers.tolist(),
            "page_tables": self.page_tables.snapshot_state(),
            "failed_cores": sorted(self._failed_cores),
            "free_total": self._free_total,
            "free_on_failed": self._free_on_failed,
            "tenant_quotas": dict(self._tenant_quotas),
            "tenant_used": dict(self._tenant_used),
            "stats": dict(self.stats.__dict__),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self._free_blocks = np.asarray(state["free_blocks"], dtype=np.int64)
        placements = PlacementPageTables.placements_from_state(state["page_tables"])
        self._allocations = {
            sequence_id: _SequenceAllocation(
                sequence_id=sequence_id,
                unique_cores=np.asarray(data["cores"], dtype=np.int64),
                unique_counts=np.asarray(data["counts"], dtype=np.int64),
                blocks_per_slot=data["blocks_per_slot"],
                tokens=data["tokens"],
                placement=placements[sequence_id],
            )
            for sequence_id, data in state["allocations"]
        }
        self._ring_pointers = np.asarray(state["ring_pointers"], dtype=np.int64)
        self._free_floor = int(self._free_blocks.min())
        self._failed_cores = set(state["failed_cores"])
        self._free_total = state["free_total"]
        self._free_on_failed = state["free_on_failed"]
        self._tenant_used = dict(state.get("tenant_used", {}))
        self.set_tenant_quotas(dict(state.get("tenant_quotas", {})))
        self.last_failure_quota_bound = False
        self.stats = KVCacheStats(**state["stats"])

    # ------------------------------------------------------------------ private

    def _update_peak(self) -> None:
        used = self.used_blocks
        if used > self.stats.peak_used_blocks:
            self.stats.peak_used_blocks = used
