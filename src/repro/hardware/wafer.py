"""Wafer-scale fabric: the full grid of dies and cores (Fig. 2a).

The wafer exposes:

* global core coordinates and Manhattan distances (used by the mapping
  objective, Eq. 1),
* die membership and die-boundary crossing counts (used for the ``Penalty``
  term of Eq. 1),
* an S-shaped (boustrophedon) traversal order over cores that follows the
  paper's S-shaped logical routing topology for pipeline stages,
* one defect lookup, read into a boolean array once per wafer, that every
  healthy-core filter and placement check of the mapper shares (Eq. 2).

No object is kept per core: a 13,923-core wafer is its geometry arrays and
its healthy-core table.  What a core costs to compute on is priced by
:class:`~repro.hardware.core.CIMCore`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..errors import ConfigurationError
from .config import WaferConfig
from .die import CoreCoordinate, Die, DieCoordinate
from .energy import EnergyModel
from .yieldmodel import DefectMap


@dataclass(frozen=True)
class WaferGeometry:
    """Flat per-core coordinate arrays for vectorised distance computations.

    ``rows[i]``/``cols[i]`` are core ``i``'s global mesh coordinates and
    ``die_rows[i]``/``die_cols[i]`` the coordinates of the die it sits on.
    Built once per wafer shape, read only, and shared by every wafer of that
    shape and by the mapping objective, the annealer and the route-hop
    estimator, which would otherwise pay a Python call stack per coordinate
    lookup.
    """

    rows: np.ndarray
    cols: np.ndarray
    die_rows: np.ndarray
    die_cols: np.ndarray

    @cached_property
    def coordinates(self) -> tuple[tuple[int, ...], ...]:
        """``(rows, cols, die_rows, die_cols)`` as tuples of ints, read once
        per geometry for scalar lookups (the annealer's distance deltas)."""
        return tuple(
            tuple(array.tolist())
            for array in (self.rows, self.cols, self.die_rows, self.die_cols)
        )

    def weighted_distances(
        self, a: np.ndarray, b: np.ndarray | int, inter_die_factor: float
    ) -> np.ndarray:
        """Manhattan distances with the die-crossing penalty of Eq. 1, between
        aligned core-id arrays (``b`` broadcasts)."""
        distance = (
            np.abs(self.rows[a] - self.rows[b]) + np.abs(self.cols[a] - self.cols[b])
        ).astype(np.float64)
        cross = (self.die_rows[a] != self.die_rows[b]) | (
            self.die_cols[a] != self.die_cols[b]
        )
        distance[cross] *= inter_die_factor
        return distance


@lru_cache(maxsize=8)
def _shaped_geometry(
    num_cores: int, core_cols: int, die_core_rows: int, die_core_cols: int
) -> WaferGeometry:
    """The read-only geometry of a wafer shape: its core count and mesh
    width, and the core rows and columns of one die."""
    ids = np.arange(num_cores, dtype=np.int64)
    rows = ids // core_cols
    cols = ids % core_cols
    geometry = WaferGeometry(
        rows=rows, cols=cols, die_rows=rows // die_core_rows, die_cols=cols // die_core_cols
    )
    for array in (geometry.rows, geometry.cols, geometry.die_rows, geometry.die_cols):
        array.flags.writeable = False
    return geometry


class Wafer:
    """The full wafer-scale CIM fabric."""

    def __init__(
        self,
        config: WaferConfig | None = None,
        defect_map: DefectMap | None = None,
        energy: EnergyModel | None = None,
    ) -> None:
        self.config = config or WaferConfig()
        self.energy = energy or EnergyModel()
        self.defect_map = defect_map
        if defect_map is not None and defect_map.total_cores != self.config.cores_per_wafer:
            raise ConfigurationError(
                "defect map was generated for a wafer with "
                f"{defect_map.total_cores} cores, this wafer has "
                f"{self.config.cores_per_wafer}"
            )
        self.dies = [
            Die(
                die_id=row * self.config.die_cols + col,
                coordinate=DieCoordinate(row, col),
                config=self.config.die,
            )
            for row in range(self.config.die_rows)
            for col in range(self.config.die_cols)
        ]
        self._geometry: WaferGeometry | None = None
        self._healthy: np.ndarray | None = None

    # --------------------------------------------------------------- geometry

    def geometry(self) -> WaferGeometry:
        """Flat coordinate arrays for every core, shared by every wafer of
        this shape (looked up on first use)."""
        if self._geometry is None:
            self._geometry = _shaped_geometry(
                self.num_cores, self.core_cols, self.config.die.rows, self.config.die.cols
            )
        return self._geometry

    @property
    def num_cores(self) -> int:
        return self.config.cores_per_wafer

    @property
    def core_rows(self) -> int:
        return self.config.core_rows

    @property
    def core_cols(self) -> int:
        return self.config.core_cols

    def coordinate_of(self, core_id: int) -> CoreCoordinate:
        """Global (row, col) of a core in the wafer-wide mesh."""
        self._check_core_id(core_id)
        return CoreCoordinate(core_id // self.core_cols, core_id % self.core_cols)

    def core_id_at(self, row: int, col: int) -> int:
        if not (0 <= row < self.core_rows and 0 <= col < self.core_cols):
            raise ConfigurationError(f"coordinate ({row}, {col}) outside the wafer")
        return row * self.core_cols + col

    def die_coordinate_of(self, core_id: int) -> DieCoordinate:
        coord = self.coordinate_of(core_id)
        return DieCoordinate(
            coord.row // self.config.die.rows, coord.col // self.config.die.cols
        )

    def die_of(self, core_id: int) -> Die:
        die_coord = self.die_coordinate_of(core_id)
        return self.dies[die_coord.row * self.config.die_cols + die_coord.col]

    def manhattan(self, core_a: int, core_b: int) -> int:
        """Manhattan hop distance between two cores on the mesh."""
        a, b = self.coordinate_of(core_a), self.coordinate_of(core_b)
        return a.manhattan(b)

    def die_crossings(self, core_a: int, core_b: int) -> int:
        """Number of die boundaries an XY route between two cores crosses."""
        a, b = self.die_coordinate_of(core_a), self.die_coordinate_of(core_b)
        return a.manhattan(b)

    def same_die(self, core_a: int, core_b: int) -> bool:
        return self.die_crossings(core_a, core_b) == 0

    def neighbors(self, core_id: int) -> list[int]:
        """Mesh neighbours (up/down/left/right) of a core."""
        coord = self.coordinate_of(core_id)
        result = []
        for d_row, d_col in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            row, col = coord.row + d_row, coord.col + d_col
            if 0 <= row < self.core_rows and 0 <= col < self.core_cols:
                result.append(self.core_id_at(row, col))
        return result

    def s_shaped_order(self, band_height: int = 1) -> list[int]:
        """Boustrophedon traversal of all cores, in bands of ``band_height`` rows.

        Neighbouring positions in the returned list are adjacent (or nearly so)
        on the mesh, which matches the S-shaped logical routing topology the
        paper uses to propagate activations between consecutive pipeline
        stages.  A band height larger than one keeps any contiguous slice of
        the order *compact in two dimensions*: a slice of ``k`` cores spans
        roughly ``band_height x (k / band_height)`` mesh positions, which is
        what the per-block mapping regions want.

        Band ``b`` covers rows ``[b * band_height, (b + 1) * band_height)``
        (the last band may be shorter) and runs left to right when ``b`` is
        even, right to left when odd; within it, the ``j``-th column visited
        runs down when ``j`` is even, up when odd.
        """
        return self._s_order(band_height).tolist()

    def healthy_s_shaped_order(self, band_height: int = 1) -> list[int]:
        """:meth:`s_shaped_order` without the defective cores: the walk the
        inter-core mapper cuts into one region per transformer block."""
        order = self._s_order(band_height)
        return order[self.healthy_mask(order)].tolist()

    # ----------------------------------------------------------------- defects

    def is_defective(self, core_id: int) -> bool:
        self._check_core_id(core_id)
        return not bool(self._healthy_table()[core_id])

    def healthy_mask(self, core_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Whether each of ``core_ids`` is a healthy core of this wafer, in order.

        An id outside the wafer is not healthy.  This is the one defect lookup
        of the mapping constraints (Eq. 2): the defect set is read into a
        boolean array once per wafer, so filtering a region or checking a
        placement is a few array operations rather than a call per core.
        """
        ids = np.asarray(core_ids, dtype=np.int64)
        inside = (ids >= 0) & (ids < self.num_cores)
        return inside & self._healthy_table()[np.where(inside, ids, 0)]

    def healthy(self, core_ids: Sequence[int] | np.ndarray) -> list[int]:
        """The healthy cores among ``core_ids``, in their order.

        Raises :class:`ConfigurationError` naming the first id outside the
        wafer, as :meth:`is_defective` would on reaching it.
        """
        ids = np.asarray(core_ids, dtype=np.int64)
        keep = self.healthy_mask(ids)
        if not keep.all():
            outside = (ids < 0) | (ids >= self.num_cores)
            if outside.any():
                self._check_core_id(int(ids[outside.argmax()]))
        return ids[keep].tolist()

    def healthy_core_ids(self) -> list[int]:
        return self.healthy(np.arange(self.num_cores, dtype=np.int64))

    @property
    def num_healthy_cores(self) -> int:
        if self.defect_map is None:
            return self.num_cores
        return self.defect_map.healthy_cores

    # --------------------------------------------------------------- capacities

    @property
    def sram_bytes(self) -> int:
        return self.config.sram_bytes

    @property
    def usable_sram_bytes(self) -> int:
        """SRAM on healthy cores only."""
        return self.num_healthy_cores * self.config.die.core.sram_bytes

    @property
    def peak_ops_per_second(self) -> float:
        return self.num_healthy_cores * self.config.die.core.peak_ops_per_second

    # ------------------------------------------------------------------ private

    def _s_order(self, band_height: int) -> np.ndarray:
        """The S-shaped order as an array (see :meth:`s_shaped_order`)."""
        band_height = max(1, band_height)
        full_bands, last_height = divmod(self.core_rows, band_height)
        parts = [_bands(0, full_bands, band_height, band_height, self.core_cols)]
        if last_height:
            parts.append(
                _bands(full_bands, 1, last_height, band_height, self.core_cols)
            )
        return np.concatenate(parts)

    def _healthy_table(self) -> np.ndarray:
        """``table[core_id]`` is whether the core is healthy (built on first use)."""
        if self._healthy is None:
            table = np.ones(self.num_cores, dtype=bool)
            if self.defect_map is not None and self.defect_map.defective_cores:
                defective = np.fromiter(self.defect_map.defective_cores, dtype=np.int64)
                # An id outside the wafer marks nothing, as in is_defective.
                table[defective[(defective >= 0) & (defective < self.num_cores)]] = False
            self._healthy = table
        return self._healthy

    def _check_core_id(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ConfigurationError(
                f"core id {core_id} outside wafer with {self.num_cores} cores"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Wafer({self.config.die_rows}x{self.config.die_cols} dies, "
            f"{self.num_cores} cores, {self.sram_bytes / (1 << 30):.1f} GiB SRAM)"
        )


def _bands(
    first_band: int, num_bands: int, height: int, band_height: int, cols: int
) -> np.ndarray:
    """Core ids of ``num_bands`` bands of ``height`` rows, in S-shaped order.

    The bands are ``first_band, first_band + 1, ...`` of a traversal whose
    bands are ``band_height`` rows apart, on a mesh ``cols`` cores wide.
    """
    position = np.arange(num_bands * height * cols, dtype=np.int64)
    band, offset = np.divmod(position, height * cols)
    band += first_band
    visit, step = np.divmod(offset, height)
    row = band * band_height + np.where(visit % 2 == 0, step, height - 1 - step)
    col = np.where(band % 2 == 0, visit, cols - 1 - visit)
    return row * cols + col
