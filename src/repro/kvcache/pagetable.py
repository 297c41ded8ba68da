"""First-level KV address translation: sequence -> per-head core coordinates.

Fig. 12a: the page table, kept on an amortised storage core per transformer
block, maps a sequence number to the list of core coordinates that store each
of its attention heads (one core per head, per K/V group).

Entries are stored as two compact per-head core arrays (K cores, V cores);
:class:`HeadPlacement` objects are materialised lazily on :meth:`lookup`, so
a table that is rarely inspected never pays for per-head object
construction.

The distributed KV manager does not maintain tables at all while serving: it
keeps one placement array per resident sequence, and
:class:`PlacementPageTables` builds a block's :class:`PageTable` from those
arrays only when someone looks it up (fault analysis, checkpoints, tests).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import numpy.typing as npt

from ..errors import KVCacheError


@dataclass(frozen=True)
class HeadPlacement:
    """Where one attention head's K and V data of one sequence live."""

    head: int
    k_core: int
    v_core: int


@dataclass
class PageTable:
    """Per-transformer-block page table: sequence id -> head placements."""

    block_index: int
    _entries: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=dict
    )

    def register_heads(
        self,
        sequence_id: int,
        k_cores: Iterable[int],
        v_cores: Iterable[int],
    ) -> None:
        """Register a sequence from per-head K-core and V-core arrays."""
        if sequence_id in self._entries:
            raise KVCacheError(
                f"sequence {sequence_id} already registered in block {self.block_index}"
            )
        # ndarray.tolist() converts to Python ints in C; the genexp fallback
        # covers plain iterables.
        k_tolist = getattr(k_cores, "tolist", None)
        v_tolist = getattr(v_cores, "tolist", None)
        k = k_tolist() if k_tolist is not None else [int(c) for c in k_cores]
        v = v_tolist() if v_tolist is not None else [int(c) for c in v_cores]
        self._entries[sequence_id] = (tuple(k), tuple(v))

    def register(self, sequence_id: int, placements: list[HeadPlacement]) -> None:
        self.register_heads(
            sequence_id,
            [p.k_core for p in placements],
            [p.v_core for p in placements],
        )

    def lookup(self, sequence_id: int) -> list[HeadPlacement]:
        try:
            k_cores, v_cores = self._entries[sequence_id]
        except KeyError as exc:
            raise KVCacheError(
                f"sequence {sequence_id} has no page-table entry in block "
                f"{self.block_index}"
            ) from exc
        return [
            HeadPlacement(head=head, k_core=k, v_core=v)
            for head, (k, v) in enumerate(zip(k_cores, v_cores))
        ]

    def contains(self, sequence_id: int) -> bool:
        return sequence_id in self._entries

    def remove(self, sequence_id: int) -> None:
        self._entries.pop(sequence_id, None)

    def cores_of(self, sequence_id: int) -> list[int]:
        """All distinct cores referenced by a sequence in this block."""
        if sequence_id not in self._entries:
            self.lookup(sequence_id)  # raises with the canonical message
        k_cores, v_cores = self._entries[sequence_id]
        return sorted(set(k_cores) | set(v_cores))

    @property
    def resident_sequences(self) -> list[int]:
        return sorted(self._entries)

    def snapshot_state(self) -> list[list[Any]]:
        """JSON-able entry list, preserving insertion order."""
        return [
            [sequence_id, list(k_cores), list(v_cores)]
            for sequence_id, (k_cores, v_cores) in self._entries.items()
        ]

    def restore_state(self, state: list[list[Any]]) -> None:
        self._entries = {
            sequence_id: (tuple(k_cores), tuple(v_cores))
            for sequence_id, k_cores, v_cores in state
        }

    def __len__(self) -> int:
        return len(self._entries)


#: ``(sequence id, placement)`` pairs in admission order; a placement has one
#: row of global core ids per (transformer block, K/V) pair -- rows alternate
#: K group / V group, block by block -- and one column per KV head
Placements = Callable[[], Iterable[tuple[int, npt.NDArray[np.int64]]]]


class PlacementPageTables:
    """Every transformer block's page table, built on lookup from placements.

    Indexing (or iterating) yields an ordinary :class:`PageTable` whose
    entries, in admission order, are read from the placement arrays at that
    moment; mutating the returned table does not touch the manager.
    """

    def __init__(self, num_blocks: int, placements: Placements) -> None:
        self._num_blocks = num_blocks
        self._placements = placements

    def __len__(self) -> int:
        return self._num_blocks

    def __getitem__(self, block: int) -> PageTable:
        block = range(self._num_blocks)[block]  # bounds check, negative index
        k_row, v_row = 2 * block, 2 * block + 1
        return PageTable(
            block_index=block,
            _entries={
                sequence_id: (tuple(rows[k_row].tolist()), tuple(rows[v_row].tolist()))
                for sequence_id, rows in self._placements()
            },
        )

    def __iter__(self) -> Iterator[PageTable]:
        return (self[block] for block in range(self._num_blocks))

    def snapshot_state(self) -> list[list[list[Any]]]:
        """Every block's :meth:`PageTable.snapshot_state`, in block order."""
        placements = [(sequence_id, rows.tolist()) for sequence_id, rows in self._placements()]
        return [
            [
                [sequence_id, rows[2 * block], rows[2 * block + 1]]
                for sequence_id, rows in placements
            ]
            for block in range(self._num_blocks)
        ]

    @staticmethod
    def placements_from_state(
        state: list[list[list[Any]]],
    ) -> dict[int, npt.NDArray[np.int64]]:
        """Invert :meth:`snapshot_state`: sequence id -> placement array."""
        rows: dict[int, list[list[int]]] = {}
        for table_state in state:
            for sequence_id, k_cores, v_cores in table_state:
                rows.setdefault(sequence_id, []).extend((k_cores, v_cores))
        return {
            sequence_id: np.asarray(sequence_rows, dtype=np.int64)
            for sequence_id, sequence_rows in rows.items()
        }
