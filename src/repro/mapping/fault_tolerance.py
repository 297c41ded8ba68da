"""Fault tolerance through replacement-chain remapping (Section 4.3.3).

Ouroboros keeps every functional core active (no spare cores).  When a core
fails during operation two cases arise:

* **KV-storage core fails** -- only the sequences stored on that core need to
  be recomputed; the KV manager marks the core unusable.
* **Weight core fails** -- the weights of the failed core are shifted to a
  neighbouring core, whose weights shift to the next, forming a *replacement
  chain* that terminates at the nearest KV-cache core.  The terminal KV core's
  cached data is evicted (those sequences are recomputed) and it becomes a
  weight core.  The recovery is purely local: it never re-runs the MIQP
  mapping and finishes in sub-millisecond time.

Interconnect (link) failures are not modelled: the NoC model prices every
hand-off on the minimal XY route of the full mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import MappingError
from ..hardware.noc import NoCModel
from ..hardware.wafer import Wafer
from ..kvcache.manager import DistributedKVCacheManager
from .intercore import WaferMapping


@dataclass
class RemappingResult:
    """Outcome of recovering from one core failure."""

    failed_core: int
    #: cores traversed by the replacement chain, starting at the failed core
    chain: list[int] = field(default_factory=list)
    #: KV core sacrificed at the end of the chain (None for KV-core failures)
    reclaimed_kv_core: int | None = None
    #: sequences whose KV data was lost and must be recomputed
    affected_sequences: list[int] = field(default_factory=list)
    #: estimated wall-clock time of the weight shuffle along the chain
    recovery_latency_s: float = 0.0
    #: bytes of weights moved during recovery
    moved_weight_bytes: int = 0

    @property
    def chain_length(self) -> int:
        return max(0, len(self.chain) - 1)


class FaultToleranceManager:
    """Applies the replacement-chain recovery to a mapped wafer."""

    def __init__(
        self,
        wafer: Wafer,
        mapping: WaferMapping,
        kv_manager: DistributedKVCacheManager | None = None,
        noc: NoCModel | None = None,
    ) -> None:
        self.wafer = wafer
        self.mapping = mapping
        self.kv_manager = kv_manager
        self.noc = noc or NoCModel(wafer)
        self._weight_cores: set[int] = set(mapping.weight_core_ids)
        self._kv_cores: set[int] = set(mapping.kv_core_ids)
        self._failed_cores: set[int] = set()

    # ------------------------------------------------------------------ state

    @property
    def weight_cores(self) -> set[int]:
        return set(self._weight_cores)

    @property
    def kv_cores(self) -> set[int]:
        return set(self._kv_cores)

    @property
    def failed_cores(self) -> set[int]:
        return set(self._failed_cores)

    def role_of(self, core_id: int) -> str:
        if core_id in self._failed_cores:
            return "failed"
        if core_id in self._weight_cores:
            return "weight"
        if core_id in self._kv_cores:
            return "kv"
        return "unassigned"

    # --------------------------------------------------------------- recovery

    def fail_core(self, core_id: int) -> RemappingResult:
        """Handle a runtime failure of ``core_id``."""
        if core_id in self._failed_cores:
            raise MappingError(f"core {core_id} already failed")
        if core_id in self._kv_cores:
            return self._fail_kv_core(core_id)
        if core_id in self._weight_cores:
            return self._fail_weight_core(core_id)
        # Unassigned core: nothing to recover.
        self._failed_cores.add(core_id)
        return RemappingResult(failed_core=core_id)

    def _fail_kv_core(self, core_id: int) -> RemappingResult:
        self._kv_cores.discard(core_id)
        self._failed_cores.add(core_id)
        affected: list[int] = []
        if self.kv_manager is not None and self.kv_manager.holds_core(core_id):
            affected = self.kv_manager.fail_core(core_id)
        return RemappingResult(
            failed_core=core_id,
            chain=[core_id],
            affected_sequences=affected,
        )

    def _fail_weight_core(self, core_id: int) -> RemappingResult:
        target_kv = self._nearest_kv_core(core_id)
        if target_kv is None:
            raise MappingError(
                "no healthy KV core available to terminate the replacement chain"
            )
        chain = self._build_chain(core_id, target_kv)
        weight_bytes = self.wafer.config.die.core.weight_capacity_bytes

        # Shift weights: every core in the chain takes over its predecessor's
        # tile; the terminal KV core becomes a weight core.
        latency = 0.0
        moved = 0
        for src, dst in zip(chain, chain[1:]):
            cost = self.noc.transfer_cost(src, dst, weight_bytes)
            latency += cost.latency_s
            moved += weight_bytes

        affected: list[int] = []
        if self.kv_manager is not None and self.kv_manager.holds_core(target_kv):
            affected = self.kv_manager.fail_core(target_kv)

        self._failed_cores.add(core_id)
        self._weight_cores.discard(core_id)
        self._kv_cores.discard(target_kv)
        self._weight_cores.add(target_kv)

        return RemappingResult(
            failed_core=core_id,
            chain=chain,
            reclaimed_kv_core=target_kv,
            affected_sequences=affected,
            recovery_latency_s=latency,
            moved_weight_bytes=moved,
        )

    # ------------------------------------------------------------------ helpers

    def _dead_cores(self) -> set[int]:
        """Cores no replacement chain may use or reclaim: those failed here,
        the KV cores the KV manager failed on its own (a ``kv_core`` fault
        event fails its core through the KV manager alone) and the wafer's
        manufacturing defects, as one set."""
        dead = self._failed_cores
        if self.kv_manager is not None:
            dead = dead | (self.kv_manager.failed_cores & self._kv_cores)
        defect_map = self.wafer.defect_map
        return dead if defect_map is None else dead | defect_map.defective_cores

    def _nearest_kv_core(self, core_id: int) -> int | None:
        dead = self._dead_cores()
        candidates = [kv for kv in self._kv_cores if kv not in dead]
        if not candidates:
            return None
        geometry = self.wafer.geometry()
        ids = np.asarray(candidates, dtype=np.int64)
        distances = np.abs(geometry.rows[ids] - geometry.rows[core_id])
        distances += np.abs(geometry.cols[ids] - geometry.cols[core_id])
        # argmin keeps min()'s tie-break: the first nearest candidate.
        return candidates[int(np.argmin(distances))]

    def _build_chain(self, start: int, end: int) -> list[int]:
        """Greedy Manhattan walk from the failed core to the reclaimed KV core."""
        dead = self._dead_cores()
        chain = [start]
        current = start
        visited = {start}
        while current != end:
            neighbors = [
                n
                for n in self.wafer.neighbors(current)
                if n not in visited and n not in dead
            ]
            if not neighbors:
                raise MappingError(
                    f"replacement chain from core {start} to {end} is blocked"
                )
            current = min(neighbors, key=lambda n: self.wafer.manhattan(n, end))
            chain.append(current)
            visited.add(current)
        return chain
