"""Cost model of a CIM core (Fig. 2c).

A core bundles 32 crossbars behind a 1024-bit H-tree, a 64-lane SFU for
softmax/layernorm style operations, ping-pong input/output buffers and a
control unit.  :class:`CIMCore` prices the work a core does: a GEMV tiled
over its crossbars, an SFU pass and a buffer write.  No state is kept per
core: which cores hold weight tiles and which hold KV blocks is kept as
core-id lists in :class:`~repro.mapping.intercore.WaferMapping`, and which
are defective as the wafer's healthy-core table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import CoreConfig
from .crossbar import Crossbar, GemvCost
from .energy import EnergyModel


@dataclass
class SfuCost:
    """Latency/energy of an SFU operation (softmax, layernorm, residual)."""

    latency_s: float
    energy_j: float
    elements: int


class CIMCore:
    """The GEMV, SFU and buffer costs of one CIM core."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig | None = None,
        energy: EnergyModel | None = None,
    ) -> None:
        self.core_id = core_id
        self.config = config or CoreConfig()
        self.energy = energy or EnergyModel()
        # Every crossbar of a core is identical: one prices them all.
        self.crossbar = Crossbar(self.config.crossbar, self.energy)

    # ------------------------------------------------------------------ compute

    def gemv_cost(self, input_dim: int, output_dim: int) -> GemvCost:
        """Latency/energy of an ``input_dim x output_dim`` GEMV on this core.

        The GEMV is tiled over the core's crossbars; crossbars work in
        parallel, so latency is that of the most loaded crossbar while energy
        sums over all of them.  Partial sums are reduced over the H-tree.
        """
        cfg = self.config.crossbar
        row_tiles = max(1, math.ceil(input_dim / cfg.weight_rows))
        col_tiles = max(1, math.ceil(output_dim / cfg.weight_columns))
        total_tiles = row_tiles * col_tiles
        parallel = min(total_tiles, self.config.crossbars_per_core)
        waves = math.ceil(total_tiles / parallel)

        last_rows = input_dim - (row_tiles - 1) * cfg.weight_rows
        last_cols = output_dim - (col_tiles - 1) * cfg.weight_columns
        full_tile = self.crossbar.gemv_cost(cfg.weight_rows, cfg.weight_columns)
        edge_tile = self.crossbar.gemv_cost(last_rows, last_cols)

        latency = waves * full_tile.latency_s if total_tiles > 1 else edge_tile.latency_s
        macs = float(input_dim * output_dim)
        energy = macs * self.energy.cim_mac_j(cfg)
        # H-tree reduction of partial sums across row tiles.
        psum_bytes = output_dim * (cfg.output_bits // 8)
        levels = self.config.htree_levels
        htree_energy = self.energy.htree_energy_j(psum_bytes * max(0, row_tiles - 1), levels)
        cycles = int(round(latency / cfg.cycle_time_s)) if cfg.cycle_time_s else 0
        return GemvCost(
            cycles=cycles,
            latency_s=latency,
            energy_j=energy + htree_energy,
            macs=macs,
        )

    def sfu_cost(self, elements: int) -> SfuCost:
        """Latency/energy of an element-wise / reduction SFU pass."""
        lanes = self.config.sfu_parallel_lanes
        cycles = math.ceil(max(0, elements) / lanes)
        latency = cycles / self.config.sfu_frequency_hz
        energy = elements * self.energy.sfu_j_per_element
        return SfuCost(latency_s=latency, energy_j=energy, elements=elements)

    def buffer_write_cost(self, num_bytes: int) -> float:
        """Energy of staging ``num_bytes`` through the input/output buffers."""
        return num_bytes * self.energy.sram_write_j_per_byte

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CIMCore(id={self.core_id})"
