"""Cost model of a single digital SRAM CIM crossbar (Fig. 10).

A crossbar operates in one of two modes:

* **FFN mode** -- the whole array persistently stores static weights and
  executes GEMV against them.
* **Attention mode** -- the array is partitioned into logical blocks
  (128 x 1024 with default parameters) that hold KV entries.  Row/column-valid
  registers mask out unallocated cells during computation, and the array
  cannot compute and be written in the same cycle.

The model prices a GEMV over partial activations (only the valid rows need
to be covered) and an SRAM write, and exposes the area trade-off behind the
Fig. 11 row-activation-ratio sweep.  Which blocks hold which sequence's KV
entries is not tracked here: the KV-cache manager keeps that occupancy as
per-unit arrays (see :mod:`repro.kvcache.manager`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import CrossbarConfig
from .energy import CrossbarAreaModel, EnergyModel


@dataclass
class GemvCost:
    """Latency and dynamic energy of one GEMV executed on a crossbar."""

    cycles: int
    latency_s: float
    energy_j: float
    macs: float


class Crossbar:
    """The GEMV and write costs of one crossbar."""

    def __init__(
        self,
        config: CrossbarConfig | None = None,
        energy: EnergyModel | None = None,
    ) -> None:
        self.config = config or CrossbarConfig()
        self.energy = energy or EnergyModel()

    # ------------------------------------------------------------------ compute

    def gemv_cost(self, active_rows: int | None = None, active_cols: int | None = None) -> GemvCost:
        """Latency/energy for one GEMV over ``active_rows`` x ``active_cols``.

        ``active_rows`` defaults to the full array; masked rows (invalid KV
        entries) are skipped by the row-valid registers, so only the occupied
        row groups consume cycles.
        """
        cfg = self.config
        rows = cfg.rows if active_rows is None else max(0, min(active_rows, cfg.rows))
        cols = cfg.weight_columns if active_cols is None else max(
            0, min(active_cols, cfg.weight_columns)
        )
        if rows == 0 or cols == 0:
            return GemvCost(cycles=0, latency_s=0.0, energy_j=0.0, macs=0.0)
        row_groups = math.ceil(rows / cfg.rows_active_per_cycle)
        cycles = cfg.activation_bits * row_groups
        latency = cycles * cfg.cycle_time_s
        macs = float(rows * cols)
        # Energy scales with the busy fraction of the array.
        busy_fraction = macs / float(cfg.rows * cfg.weight_columns)
        energy = cycles * self.energy.crossbar.energy_per_cycle_j * busy_fraction
        return GemvCost(cycles=cycles, latency_s=latency, energy_j=energy, macs=macs)

    def write_cost(self, num_bytes: int) -> GemvCost:
        """Latency/energy for writing ``num_bytes`` into the SRAM array.

        Writes use the normal SRAM port (256 bits per cycle through the buffer
        interface) and cannot overlap with computation on the same crossbar.
        """
        bytes_per_cycle = 32  # 256-bit port
        cycles = math.ceil(num_bytes / bytes_per_cycle)
        latency = cycles * self.config.cycle_time_s
        energy = num_bytes * self.energy.sram_write_j_per_byte
        return GemvCost(cycles=cycles, latency_s=latency, energy_j=energy, macs=0.0)


def effective_sram_ratio(
    ratio: float,
    area_model: CrossbarAreaModel | None = None,
) -> float:
    """SRAM capacity retained at a given row-activation ratio, relative to 1/32.

    Used by the Fig. 11 sweep: larger activation ratios need proportionally
    larger adder trees, which crowd out SRAM within a fixed core area.
    """
    model = area_model or CrossbarAreaModel()
    reference = model.crossbar_area_mm2(model.reference_activation_ratio)
    actual = model.crossbar_area_mm2(ratio)
    return reference / actual


def throughput_vs_activation_ratio(
    ratios: list[float],
    kv_capacity_weight: float = 1.0,
    compute_weight: float = 1.0,
    config: CrossbarConfig | None = None,
    area_model: CrossbarAreaModel | None = None,
) -> dict[float, float]:
    """Relative system throughput as a function of row-activation ratio.

    Two regimes bound throughput (Fig. 11):

    * **compute bound** -- throughput grows with the number of rows activated
      per cycle (more MACs per cycle);
    * **SRAM capacity bound** -- throughput is limited by how many sequences
      the remaining KV capacity can hold concurrently, which shrinks as the
      compute periphery grows.

    The returned values are normalized to the best ratio.
    """
    base = config or CrossbarConfig()
    results: dict[float, float] = {}
    for ratio in ratios:
        candidate = CrossbarConfig(
            rows=base.rows,
            columns=base.columns,
            weight_bits=base.weight_bits,
            activation_bits=base.activation_bits,
            output_bits=base.output_bits,
            row_activation_ratio=ratio,
            mac_arrays=base.mac_arrays,
            frequency_hz=base.frequency_hz,
            attention_logical_blocks=base.attention_logical_blocks,
        )
        compute = compute_weight * candidate.macs_per_cycle / base.macs_per_cycle
        capacity = kv_capacity_weight * effective_sram_ratio(ratio, area_model)
        results[ratio] = min(compute, capacity)
    peak = max(results.values()) if results else 1.0
    return {ratio: value / peak for ratio, value in results.items()}
