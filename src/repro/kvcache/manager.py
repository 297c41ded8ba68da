"""Distributed dynamic KV-cache management (Section 4.4).

The manager owns every CIM core that the inter-core weight mapping left
unassigned.  Those cores are split per transformer block into a K group
(computing S = Q K^T) and a V group (computing softmax(S) V).  For each
admitted sequence it allocates, per block and per attention head, one core from
each group (walking a ring pointer so that consecutively scheduled sequences
land on distinct cores, Section 4.4.3) and grows the per-head logical-block
allocation as the sequence's context expands.

Address translation is three-level (Fig. 12).  Each level is kept in a
sequence's allocation record and the manager's per-unit counts, not in
per-core or per-crossbar objects:

* the per-block page table (sequence -> per-head K and V core) is the
  allocation's ``placement`` array, from which
  :class:`~repro.kvcache.pagetable.PlacementPageTables` builds exact
  per-block views on lookup;
* each core's bitmap (sequence -> its logical blocks on that core) is the
  allocation's ``units`` and ``unit_counts`` times ``blocks_per_slot``,
  against one free-block count per unit;
* each crossbar's free-block table (the valid rows of a block) is the
  allocation's ``tokens``: every block but the last is full, and the last
  holds what is left of ``tokens`` after the full ones.

The groups stack into *ring rows* of equal width (K row, then V row, block
by block), and every admission advances every block's ring pointer by
``kv_heads`` -- so the pointers move in lockstep and are kept as one number.
The block occupancy is kept over *ring-row groups*: rows whose cores hold
identical occupancy share a group, and a group keeps one free-block count per
ring column -- a *unit*, standing for that column's core in every row of the
group.  An allocation is the units it touches and its slots on each core a
unit stands for, so admission, growth, release and
:meth:`~DistributedKVCacheManager.sequences_on_core` touch ``kv_heads``
entries per group instead of one per (block, head, K/V) slot's core.

* While no KV core has failed, every row's walk hands out the same columns,
  so every row sits in one group: one count per ring column.
* A failed core leaves its row skipping a column the other rows still use,
  so :meth:`~DistributedKVCacheManager.fail_core` first moves that row into
  a group of its own.  With k failed cores in distinct rows there are at
  most k + 1 groups, however many rows the model has.
* Layouts with fewer KV cores than ring rows (one core in several rows)
  start with one group per row, whose units are single cores.

The free and healthy block totals are O(1) running counters, and the
per-block page tables are exact views built from the allocations on lookup
(:class:`~repro.kvcache.pagetable.PlacementPageTables`), so admission and
release never touch per-block tables.  Checkpoints always hold the per-core
view; restoring one rebuilds the exact per-core state and merges the rows
that match exactly back into groups.

Token growth is split by what it costs.  Most growth stays inside the
sequence's last logical block and only counts tokens.  A growth that crosses
a block boundary allocates, but it cannot be refused while its tenant's quota
has room and the *free floor* -- a running lower bound on every unit's free
blocks -- covers it.  The serving engine hands an epoch's growths to
:meth:`~DistributedKVCacheManager.commit_tokens`, which commits them in order
for as long as each cannot be refused and allocates the crossings together;
only the next one goes through
:meth:`~DistributedKVCacheManager.append_tokens`, which may fail and so
evict.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError, KVCacheError
from ..models.architectures import ModelArch
from ..workload.requests import Sequence
from .blocks import tokens_per_block
from .pagetable import PlacementPageTables


def _slot_counts(
    selection: npt.NDArray[np.int64], size: int
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """The distinct units (< ``size``) a selection names, ascending, and how
    many of its slots each holds."""
    counts = np.bincount(selection.ravel(), minlength=size)
    # astype(copy=False) is a no-op view here (bincount/flatnonzero yield
    # intp == int64 on this platform); it only pins the static type.
    units = np.flatnonzero(counts).astype(np.int64, copy=False)
    return units, counts[units].astype(np.int64, copy=False)


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

    The slot multiplicity is stored sparsely over the manager's units:
    ``units`` holds the units the sequence touches, ascending, and
    ``unit_counts`` the (block, head, K/V) slots on each core a unit stands
    for.  Growth and release then scale with the sequence's footprint
    instead of the total KV-core count.
    """

    sequence_id: int
    units: npt.NDArray[np.int64]
    unit_counts: npt.NDArray[np.int64]
    #: slots summed over every touched core
    total_slots: int
    blocks_per_slot: int
    tokens: int
    #: where the slots sit -- the source of the page-table views: the ring
    #: column of each KV head, one row per group (a single row when there
    #: was one group), and ``rows`` the group of every ring row at admission.
    #: With ``rows`` None (restored from a checkpoint) the global core id of
    #: every (transformer block, K/V, head) slot instead, one row per block
    #: and group (K row, then V row) and one column per KV head
    placement: npt.NDArray[np.int64]
    rows: npt.NDArray[np.int64] | None
    #: slots on failed cores
    failed_slots: int = 0
    #: most slots on one touched core (derived from ``unit_counts`` unless
    #: given)
    max_slots: int = 0
    #: the slots every touched core holds when that is one number for all of
    #: them (the usual case: one slot per core), else 0; derived with
    #: ``max_slots``
    slots_per_core: int = 0

    def __post_init__(self) -> None:
        if self.max_slots:
            return
        counts = self.unit_counts
        low, self.max_slots = (
            (int(counts.min()), int(counts.max())) if len(counts) else (0, 0)
        )
        self.slots_per_core = self.max_slots if low == self.max_slots else 0

    def per_unit(self, blocks_per_slot: int) -> npt.NDArray[np.int64] | int:
        """Blocks on each touched unit for ``blocks_per_slot`` blocks a slot."""
        if self.slots_per_core:
            return self.slots_per_core * blocks_per_slot
        return self.unit_counts * blocks_per_slot


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
        self._allocations: dict[int, _SequenceAllocation] = {}
        self._failed_cores: set[int] = set()
        #: O(1) running totals (kept in sync by every allocation mutation)
        self._free_total = num_cores * blocks_per_core
        self._free_on_failed = 0
        #: a lower bound on every unit's free blocks, lowered by each
        #: reservation and re-measured only when a growth needs more: while it
        #: covers a growth, no touched core can be short of blocks
        self._free_floor = blocks_per_core
        self._threshold_blocks = int(self.threshold * blocks_per_core)
        self._block_bytes = self.tokens_per_block * arch.head_dim * self.element_bytes

        # Split the KV cores into one (K group, V group) pair per transformer
        # block, preserving wafer order so that each block's KV cores sit near
        # its weight cores when the mapper interleaves them.  Each of the
        # ``2 * num_blocks`` ring rows (K row, then V row, block by block)
        # takes the next ``num_cores // rows`` cores; with fewer cores than
        # rows, row r gets the single core ``r % num_cores``.
        rows = 2 * arch.num_blocks
        width = self._ring_width = max(1, num_cores // rows)
        self._ring_matrix = (
            np.arange(rows, dtype=np.int64)[:, None] * width
            + np.arange(width, dtype=np.int64)
        ) % num_cores
        #: the ring pointer every block shares, advanced by ``kv_heads``
        #: modulo the ring width on every admission
        self._ring_pointer = 0
        #: one ring row's columns written out twice: a walk of up to a row's
        #: width from any pointer is a plain slice, no modulo
        self._ring_doubled = np.concatenate([np.arange(width, dtype=np.int64)] * 2)
        self._head_range = np.arange(arch.kv_heads, dtype=np.int64)
        #: the slot counts of an allocation on distinct columns of one group
        #: (one slot per core), shared read-only by every such allocation
        self._one_slot_each = np.ones(arch.kv_heads, dtype=np.int64)
        self._one_slot_each.flags.writeable = False
        #: every admission reserves one slot per (ring row, KV head)
        self._slots_per_sequence = rows * arch.kv_heads
        # The group of every ring row (replaced, never written in place:
        # allocations keep the array of their admission) and each group's
        # unit per ring column.  A group's units are consecutive, so the unit
        # of column c in group g is ``_group_units[g, 0] + c`` (one group per
        # row only happens on a ring one column wide).
        if self._rows_share_groups():
            # One group of every row: its units are the ring columns.
            self._row_group = np.zeros(rows, dtype=np.int64)
            self._group_units = np.arange(width, dtype=np.int64)[None, :]
        else:
            # One group per row, whose units are its cores.
            self._row_group = np.arange(rows, dtype=np.int64)
            self._group_units = self._ring_matrix
        #: free blocks on each core a unit stands for, and whether that
        #: (single) core failed
        self._free = np.full(
            int(self._group_units.max()) + 1, blocks_per_core, dtype=np.int64
        )
        self._unit_failed = np.zeros(len(self._free), dtype=bool)

    # Core-id translations, built on first use: only faults, checkpoints and
    # page-table lookups need them, so most runs never pay for tables over
    # every KV core.

    @cached_property
    def _core_index(self) -> dict[int, int]:
        """Global core id -> local core index."""
        return {core_id: i for i, core_id in enumerate(self.kv_core_ids)}

    @cached_property
    def _core_ids_array(self) -> npt.NDArray[np.int64]:
        """Local core index -> global core id."""
        return np.asarray(self.kv_core_ids, dtype=np.int64)

    # ------------------------------------------------------------------ sizing

    @property
    def num_kv_cores(self) -> int:
        return len(self.kv_core_ids)

    def holds_core(self, core_id: int) -> bool:
        """Whether ``core_id`` is one of this manager's KV cores (one lookup)."""
        return core_id in self._core_index

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
        the reference walk of one ring row; admission walks every ring-row
        group at once through :meth:`_walk`, which the tests hold equal to
        it.
        """
        threshold_blocks = self._threshold_blocks
        free_blocks = self._core_free()
        usable: list[int] = []
        size = len(group)
        for offset in range(size):
            local = group[(pointer + offset) % size]
            if self.kv_core_ids[local] in self._failed_cores:
                continue
            if free_blocks[local] <= threshold_blocks:
                continue
            usable.append(local)
            if len(usable) == count:
                break
        if not usable:
            return None
        while len(usable) < count:
            usable.append(usable[len(usable) % max(1, len(usable))])
        return usable[:count]

    def _walk(
        self,
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64], bool] | None:
        """Every group's ring walk at once: :meth:`_select_cores` per group.

        Each group hands out, in ring order from the pointer, the first
        ``kv_heads`` columns whose unit has not failed and holds more than
        the threshold free blocks, and pads with the first of them when fewer
        are usable.  Returns the column of each KV head -- one row per group,
        or a flat row while there is one group -- the unit behind each, and
        whether no unit repeats (no group was padded, and the groups share no
        core); None when some group has no usable column.
        """
        heads = len(self._head_range)
        table = self._group_units
        if len(table) == 1:
            # The one group's units are the ring columns themselves.
            found = self._usable_columns()
            if len(found) >= heads:
                columns = found[:heads]
                return columns, columns, True
            if not len(found):
                return None
            columns = np.concatenate([found, np.repeat(found[:1], heads - len(found))])
            return columns, columns, False
        # Step j of a group: the unit j columns round the ring from the
        # pointer.  A usable step's rank is its 1-based position among the
        # group's usable steps, so the first kv_heads have rank <= kv_heads.
        pointer = self._ring_pointer
        units = table[:, self._ring_doubled[pointer:pointer + self._ring_width]]
        usable = self._free > self._threshold_blocks
        if self._failed_cores:
            usable &= ~self._unit_failed
        picked = usable[units]
        rank = picked.cumsum(axis=1)
        picked &= rank <= heads
        taken = units[picked]  # group by group, in ring order
        distinct = len(taken) == len(table) * heads
        if distinct:
            taken = taken.reshape(-1, heads)
        else:
            # Some group has fewer than kv_heads usable steps: its heads
            # beyond them reuse its first one.
            counts = np.minimum(rank[:, -1], heads)
            if not counts.all():
                return None
            first = np.cumsum(counts) - counts
            groups = np.repeat(np.arange(len(table)), counts)
            padded = np.repeat(taken[first], heads).reshape(-1, heads)
            padded[groups, np.arange(len(taken)) - first[groups]] = taken
            taken = padded
        return taken - table[:, :1], taken, distinct and self._rows_share_groups()

    def _usable_columns(self) -> npt.NDArray[np.int64]:
        """The one group's usable ring columns, in ring order from the
        pointer.  One group never holds a failed unit, and its units are the
        columns themselves."""
        pointer = self._ring_pointer
        order = self._ring_doubled[pointer:pointer + self._ring_width]
        return order[self._free[order] > self._threshold_blocks]

    def try_admit(self, sequence: Sequence) -> bool:
        """Reserve one logical block per (block, head, K/V) slot for a sequence."""
        sequence_id = sequence.sequence_id
        if sequence_id in self._allocations:
            raise KVCacheError(f"sequence {sequence_id} is already resident")
        self.last_failure_quota_bound = False

        reserve = self._slots_per_sequence
        if self._tenant_quota_blocks and not self._quota_allows(sequence.tenant, reserve):
            # At admission every sequence reserves exactly one block per
            # slot, wherever the ring places them: the quota check runs
            # before any placement work.
            self.stats.failed_admissions += 1
            self.stats.quota_rejections += 1
            self.last_failure_quota_bound = True
            return False

        heads = len(self._head_range)
        found = self._usable_columns() if len(self._group_units) == 1 else None
        if found is not None and len(found) >= heads:
            # Distinct columns: each unit holds one slot per core, and the
            # walk only took units with more than the threshold (>= 0) free
            # blocks, so the reservation fits.
            columns = found[:heads]
            units, unit_counts, slots = np.sort(columns), self._one_slot_each, 1
        else:
            walked = self._walk()
            if walked is None:
                self.stats.failed_admissions += 1
                return False
            columns, taken, distinct = walked
            if distinct:
                # One slot per unit, which the walk's threshold test already
                # fits, as on the one-group path.
                units, slots = np.sort(taken, axis=None), 1
                unit_counts = np.ones(len(units), dtype=np.int64)
            else:
                units, unit_counts = _slot_counts(taken, len(self._free))
                if (self._free[units] < unit_counts).any():
                    self.stats.failed_admissions += 1
                    return False
                slots = 0  # derived from the counts
        allocation = _SequenceAllocation(
            sequence_id=sequence_id,
            units=units,
            unit_counts=unit_counts,
            total_slots=reserve,
            blocks_per_slot=1,
            tokens=0,
            placement=columns,
            rows=self._row_group,
            max_slots=slots,
            slots_per_core=slots,
        )
        self._reserve(units, unit_counts, allocation.max_slots)
        self._free_total -= reserve
        self._charge_tenant(sequence.tenant, reserve)
        self._allocations[sequence_id] = allocation
        self._ring_pointer = (self._ring_pointer + self.arch.kv_heads) % self._ring_width
        self.stats.admitted_sequences += 1
        self.stats.allocated_blocks += reserve
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
            most = allocation.max_slots * delta
            if self._free_floor < most:
                self._free_floor = int(self._free.min())
                if self._free_floor < most and (
                    self._free[allocation.units] < allocation.per_unit(delta)
                ).any():
                    self.stats.failed_growths += 1
                    return False
            self._charge_tenant(sequence.tenant, total_required)
            self._grow([(allocation, delta)])
        allocation.tokens = new_tokens
        return True

    def commit_tokens(self, sequences: list[Sequence], counts: list[int]) -> int:
        """Append ``counts[i]`` tokens to ``sequences[i]``, in order, for as
        long as each growth cannot be refused; return how many were committed.

        Every committed pair is exactly ``append_tokens(sequence, count)``
        returning True.  A growth cannot be refused when it stays inside the
        sequence's last logical block, or when its tenant's quota has room
        and the free floor -- re-measured at most once per call -- covers the
        most blocks it takes from one unit.  Quotas are charged as the loop
        goes; the crossings are allocated together, with one scatter into
        the free blocks and one high-water-mark update (two when the floor
        is re-measured after some), which is exact because occupancy only
        rises within the call.  The first growth not committed must go
        through :meth:`append_tokens`.
        """
        allocations = self._allocations
        per_block = self.tokens_per_block
        quotas = self._tenant_quota_blocks
        floor = self._free_floor
        measured = False
        growths: list[tuple[_SequenceAllocation, int]] = []
        committed = 0
        for sequence, count in zip(sequences, counts):
            allocation = allocations[sequence.request.request_id]
            tokens = allocation.tokens + count
            if tokens > allocation.blocks_per_slot * per_block:
                delta = -(-tokens // per_block) - allocation.blocks_per_slot
                blocks = allocation.total_slots * delta
                tenant = sequence.request.tenant
                if quotas and not self._quota_allows(tenant, blocks):
                    break
                most = allocation.max_slots * delta
                if floor < most:
                    if measured:
                        break
                    # Allocate what is pending, then measure the floor.
                    measured = True
                    if growths:
                        self._grow(growths)
                        growths = []
                    floor = self._free_floor = int(self._free.min())
                    if floor < most:
                        break
                floor -= most
                self._charge_tenant(tenant, blocks)
                growths.append((allocation, delta))
            allocation.tokens = tokens
            committed += 1
        if growths:
            self._grow(growths)
        if committed:
            self.last_failure_quota_bound = False
        return committed

    def release(self, sequence: Sequence) -> None:
        """Free every block held by a sequence (completion or eviction)."""
        allocation = self._allocations.pop(sequence.sequence_id, None)
        if allocation is None:
            return
        per_slot = allocation.blocks_per_slot
        returned_total = allocation.total_slots * per_slot
        # ufunc.at: an unbuffered in-place add, cheaper than a fancy-index
        # gather + scatter (the units are distinct either way).
        np.add.at(self._free, allocation.units, allocation.per_unit(per_slot))
        self._free_total += returned_total
        self._charge_tenant(sequence.tenant, -returned_total)
        self._free_on_failed += allocation.failed_slots * per_slot
        self.stats.released_sequences += 1
        self.stats.released_blocks += returned_total

    def _reserve(
        self,
        units: npt.NDArray[np.integer[Any]],
        blocks: npt.NDArray[np.integer[Any]] | int,
        most: int,
    ) -> None:
        """Take ``blocks`` free blocks from each of the ``units``; ``most``
        bounds what any one unit loses, which lowers the floor."""
        np.subtract.at(self._free, units, blocks)
        self._free_floor -= most

    def _grow(self, growths: list[tuple[_SequenceAllocation, int]]) -> None:
        """Add ``delta`` blocks per slot to each ``(allocation, delta)``, once
        the caller knows every growth fits: one scatter, one peak update."""
        if len(growths) == 1:
            allocation, delta = growths[0]
            units = allocation.units
            blocks = allocation.per_unit(delta)
        else:
            units = np.concatenate([allocation.units for allocation, _ in growths])
            blocks = np.concatenate([
                allocation.unit_counts if delta == 1 else allocation.unit_counts * delta
                for allocation, delta in growths
            ])
        total = failed = most = 0
        for allocation, delta in growths:
            total += allocation.total_slots * delta
            failed += allocation.failed_slots * delta
            most += allocation.max_slots * delta
            allocation.blocks_per_slot += delta
        self._reserve(units, blocks, most)
        self._free_total -= total
        self._free_on_failed -= failed
        self.stats.allocated_blocks += total
        # Occupancy only rises when blocks are allocated, so the high-water
        # mark is only ever raised here and at admission.
        self._update_peak()

    # --------------------------------------------------------- ring-row groups

    def _rows_share_groups(self) -> bool:
        """Whether ring rows may share a group: no core sits in two rows
        (there are at least as many cores as rows)."""
        return len(self.kv_core_ids) >= len(self._ring_matrix)

    def _unit_map(self) -> npt.NDArray[np.int64]:
        """The unit of every ring-row position, shaped like ``_ring_matrix``."""
        return self._group_units[self._row_group]

    def _unit_of(self, local: int) -> int | None:
        """The unit standing for a local core; None outside every ring row."""
        row, column = divmod(local, self._ring_width)
        if row >= len(self._ring_matrix):
            return None
        return int(self._group_units[self._row_group[row], column])

    def _isolate_row(self, row: int) -> None:
        """Move a ring row into a group of its own (no-op if it is alone).

        The new group's units copy the free blocks of the row's old units,
        which from then on stand for one core fewer, and every resident
        allocation gets the row's columns and slot counts on them.  A shared
        group never holds a failed core, so no new unit starts failed.
        """
        group = int(self._row_group[row])
        if np.count_nonzero(self._row_group == group) == 1:
            return
        width = self._ring_width
        old = self._group_units[group]
        base = len(self._free)
        self._group_units = np.concatenate(
            [self._group_units, np.arange(base, base + width, dtype=np.int64)[None, :]]
        )
        self._free = np.concatenate([self._free, self._free[old]])
        self._unit_failed = np.concatenate([self._unit_failed, np.zeros(width, dtype=bool)])
        row_group = self._row_group.copy()
        row_group[row] = len(self._group_units) - 1
        self._row_group = row_group
        # old unit -> its ring column, -1 for every other unit
        column_of = np.full(base, -1, dtype=np.int64)
        column_of[old] = np.arange(width, dtype=np.int64)
        for allocation in self._allocations.values():
            columns = column_of[allocation.units]
            moved = columns >= 0
            allocation.units = np.concatenate([allocation.units, base + columns[moved]])
            allocation.unit_counts = np.concatenate(
                [allocation.unit_counts, allocation.unit_counts[moved]]
            )

    def _group_rows(
        self,
        core_free: npt.NDArray[np.int64],
        failed: npt.NDArray[np.bool_],
        held: npt.NDArray[np.int64],
    ) -> None:
        """Group the ring rows of a per-core state (``held``: one row of slots
        per core for every allocation).

        Where the layout lets rows share groups, rows holding no failed core
        share one when they match exactly, column by column: free blocks and
        every allocation's slots.  Group k's units are then ring columns
        ``k * width`` onwards.  Otherwise every row is a group of its own,
        whose units are its cores.
        """
        matrix = self._ring_matrix
        rows, width = matrix.shape
        if not self._rows_share_groups():
            self._row_group = np.arange(rows, dtype=np.int64)
            self._group_units = matrix
            return
        signatures = np.concatenate([core_free[matrix][None], held[:, matrix]])
        signatures = signatures.transpose(1, 0, 2).reshape(rows, -1)
        groups: dict[object, int] = {}
        row_group = np.empty(rows, dtype=np.int64)
        for row in range(rows):
            key = row if failed[matrix[row]].any() else signatures[row].tobytes()
            row_group[row] = groups.setdefault(key, len(groups))
        self._row_group = row_group
        self._group_units = np.arange(len(groups) * width, dtype=np.int64).reshape(-1, width)

    def _placement(self, allocation: _SequenceAllocation) -> npt.NDArray[np.int64]:
        """Global core id of every slot: one row per (block, K/V), one column
        per KV head."""
        if allocation.rows is None:
            return allocation.placement
        columns = np.atleast_2d(allocation.placement)[allocation.rows]
        return self._core_ids_array[np.take_along_axis(self._ring_matrix, columns, axis=1)]

    def _placements(self) -> Iterator[tuple[int, npt.NDArray[np.int64]]]:
        """``(sequence id, placement)`` of every resident sequence, in admission
        order -- what the page-table views are built from."""
        return (
            (allocation.sequence_id, self._placement(allocation))
            for allocation in self._allocations.values()
        )

    def _core_free(self) -> npt.NDArray[np.int64]:
        """Free blocks of every core."""
        free = np.full(self.num_kv_cores, self.blocks_per_core, dtype=np.int64)
        free[self._ring_matrix] = self._free[self._unit_map()]
        return free

    def _core_units(
        self, allocation: _SequenceAllocation
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """An allocation's touched cores (ascending) and slots on each."""
        per_unit = np.zeros(len(self._free), dtype=np.int64)
        per_unit[allocation.units] = allocation.unit_counts
        per_core = np.zeros(self.num_kv_cores, dtype=np.int64)
        per_core[self._ring_matrix] = per_unit[self._unit_map()]
        cores = np.flatnonzero(per_core).astype(np.int64, copy=False)
        return cores, per_core[cores]

    # ---------------------------------------------------------------- failures

    def fail_core(self, core_id: int) -> list[int]:
        """Mark a KV core as failed; return ids of sequences needing recompute.

        Per Section 4.3.3, when a KV-storage core fails only the sequences
        stored on that core need recomputation.  The core's ring row first
        moves into a group of its own, so the core is a unit of its own.
        """
        if core_id not in self._core_index:
            raise KVCacheError(f"core {core_id} is not a KV core")
        local = self._core_index[core_id]
        newly_failed = core_id not in self._failed_cores
        self._failed_cores.add(core_id)
        row = local // self._ring_width
        if row < len(self._ring_matrix):
            self._isolate_row(row)
        unit = self._unit_of(local)
        if unit is None:  # outside every ring row: never allocated
            if newly_failed:
                self._free_on_failed += self.blocks_per_core
            return []
        if newly_failed:
            self._free_on_failed += int(self._free[unit])
            self._unit_failed[unit] = True
        affected = []
        for allocation in self._allocations.values():
            on_core = allocation.units == unit
            if on_core.any():
                affected.append(allocation.sequence_id)
                if newly_failed:
                    allocation.failed_slots += int(allocation.unit_counts[on_core].sum())
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
        unit = self._unit_of(self._core_index[core_id])
        if unit is None:
            return []  # outside every ring row: never allocated
        return [
            allocation.sequence_id
            for allocation in self._allocations.values()
            if unit in allocation.units
        ]

    # -------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict[str, Any]:
        """JSON-able occupancy state for a bit-for-bit checkpoint.

        Always the per-core view, however the ring rows are grouped.  Derived
        state (the ring layout, running caches) is rebuilt by ``__init__``
        deterministically from the configuration and is deliberately not
        part of the snapshot.
        """
        allocations = []
        for allocation in self._allocations.values():
            cores, counts = self._core_units(allocation)
            allocations.append([
                allocation.sequence_id,
                {
                    "cores": cores.tolist(),
                    "counts": counts.tolist(),
                    "blocks_per_slot": allocation.blocks_per_slot,
                    "tokens": allocation.tokens,
                },
            ])
        return {
            "free_blocks": self._core_free().tolist(),
            "allocations": allocations,
            "ring_pointers": [self._ring_pointer] * self.arch.num_blocks,
            "page_tables": self.page_tables.snapshot_state(),
            "failed_cores": sorted(self._failed_cores),
            "free_total": self._free_total,
            "free_on_failed": self._free_on_failed,
            "tenant_quotas": dict(self._tenant_quotas),
            "tenant_used": dict(self._tenant_used),
            "stats": dict(self.stats.__dict__),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Rebuild a checkpoint's exact per-core state, then merge the ring
        rows that match exactly back into groups."""
        pointers = set(state["ring_pointers"])
        if len(pointers) != 1:
            raise KVCacheError(
                "the ring pointers of every block advance together; the "
                f"checkpoint holds {sorted(pointers)}"
            )
        self._ring_pointer = int(pointers.pop())
        core_free = np.asarray(state["free_blocks"], dtype=np.int64)
        self._failed_cores = set(state["failed_cores"])
        failed = np.zeros(self.num_kv_cores, dtype=bool)
        failed[[self._core_index[core] for core in sorted(self._failed_cores)]] = True
        records = state["allocations"]
        held = np.zeros((len(records), self.num_kv_cores), dtype=np.int64)
        for row, (_, data) in enumerate(records):
            held[row, data["cores"]] = data["counts"]
        self._group_rows(core_free, failed, held)
        matrix, unit_map = self._ring_matrix, self._unit_map()
        self._free = np.full(int(unit_map.max()) + 1, self.blocks_per_core, dtype=np.int64)
        self._free[unit_map] = core_free[matrix]
        self._unit_failed = np.zeros(len(self._free), dtype=bool)
        self._unit_failed[unit_map] = failed[matrix]
        per_unit = np.zeros((len(records), len(self._free)), dtype=np.int64)
        per_unit[:, unit_map] = held[:, matrix]
        placements = PlacementPageTables.placements_from_state(state["page_tables"])
        self._allocations = {}
        for (sequence_id, data), counts in zip(records, per_unit):
            units = np.flatnonzero(counts).astype(np.int64, copy=False)
            unit_counts = counts[units]
            self._allocations[sequence_id] = _SequenceAllocation(
                sequence_id=sequence_id,
                units=units,
                unit_counts=unit_counts,
                total_slots=sum(data["counts"]),
                blocks_per_slot=data["blocks_per_slot"],
                tokens=data["tokens"],
                placement=placements[sequence_id],
                rows=None,
                failed_slots=int(unit_counts[self._unit_failed[units]].sum()),
            )
        self._free_total = state["free_total"]
        self._free_on_failed = state["free_on_failed"]
        self._tenant_used = dict(state.get("tenant_used", {}))
        self.set_tenant_quotas(dict(state.get("tenant_quotas", {})))
        self.last_failure_quota_bound = False
        self.stats = KVCacheStats(**state["stats"])
        self._free_floor = int(self._free.min())

    # ------------------------------------------------------------------ private

    def _update_peak(self) -> None:
        used = self.used_blocks
        if used > self.stats.peak_used_blocks:
            self.stats.peak_used_blocks = used
