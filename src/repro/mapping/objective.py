"""Communication-cost objective for the inter-core mapping (Eq. 1-3).

The mapper places *tiles* -- (layer, input part, output part) slices of one
transformer block's weight matrices -- onto CIM cores.  The objective charges
Manhattan byte-hops (with a die-crossing penalty) for three kinds of traffic,
mirroring Eq. 1:

* **inter-layer** -- each tile of layer ``l+1`` must receive the output
  activation produced by the tiles of layer ``l`` (the ``output(l)`` term);
* **reduction**   -- tiles of the same layer that share an output part but
  hold different input parts must reduce 32-bit partial sums (the
  ``reduction(l)`` term);
* **gather**      -- output-channel parts of a layer are concatenated at the
  part-0 tile before being handed to consumers that need the contiguous
  vector (the ``gather(l)`` term).

All volumes are per processed token; the simulator scales them by token counts.

The objective is evaluated many thousands of times by the annealer and the
per-block pattern replication, so the traffic structure -- which is a pure
function of the problem, not of the placement -- is precomputed once into flat
edge arrays (:meth:`MappingProblem.edge_arrays`) and every full evaluation is
a handful of vectorised numpy operations over cached wafer geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import MappingError
from ..hardware.wafer import Wafer
from ..models.architectures import ModelArch
from ..models.layers import BlockLayer, build_block_layers


class Tile(NamedTuple):
    """One weight tile: a slice of one layer's weight matrix.

    A named tuple, so the placement dicts hash and compare tiles in C.
    """

    layer_index: int
    input_part: int
    output_part: int

    def __str__(self) -> str:
        return f"L{self.layer_index}[i{self.input_part},o{self.output_part}]"


@dataclass(frozen=True)
class EdgeArrays:
    """Static per-token traffic of one block, as flat tile-index edge lists.

    Each traffic class is a triple of aligned arrays: source tile index,
    destination tile index, and per-edge byte volume.  The arrays depend only
    on the problem (layer splits), never on the placement, so they are built
    once and reused by every :func:`evaluate_placement` call and by the
    annealer's incremental delta evaluation.
    """

    inter_src: np.ndarray
    inter_dst: np.ndarray
    inter_vol: np.ndarray
    reduction_src: np.ndarray
    reduction_dst: np.ndarray
    reduction_vol: np.ndarray
    gather_src: np.ndarray
    gather_dst: np.ndarray
    gather_vol: np.ndarray
    #: tile indices of the last layer and the per-tile hand-off volume
    handoff_tiles: np.ndarray
    handoff_vol: float


@dataclass(frozen=True)
class MappingProblem:
    """Everything needed to evaluate a placement of one block's tiles."""

    arch: ModelArch
    layers: tuple[BlockLayer, ...]
    core_weight_capacity_bytes: int
    inter_die_cost_factor: float = 4.0

    @classmethod
    def from_arch(
        cls,
        arch: ModelArch,
        core_weight_capacity_bytes: int,
        inter_die_cost_factor: float = 4.0,
    ) -> "MappingProblem":
        return cls(
            arch=arch,
            layers=tuple(build_block_layers(arch)),
            core_weight_capacity_bytes=core_weight_capacity_bytes,
            inter_die_cost_factor=inter_die_cost_factor,
        )

    # ------------------------------------------------------------------- tiles

    def _tile_cache(self) -> tuple[tuple[Tile, ...], dict[int, tuple[Tile, ...]]]:
        """Tile list and per-layer grouping, built once per problem instance."""
        cached = self.__dict__.get("_tiles_cached")
        if cached is None:
            all_tiles: list[Tile] = []
            by_layer: dict[int, tuple[Tile, ...]] = {}
            for layer in self.layers:
                o_parts = layer.output_splits(self.core_weight_capacity_bytes)
                i_parts = layer.input_splits(self.core_weight_capacity_bytes)
                layer_tiles = [
                    Tile(layer.index, i, o)
                    for o in range(o_parts)
                    for i in range(i_parts)
                ]
                by_layer[layer.index] = tuple(layer_tiles)
                all_tiles.extend(layer_tiles)
            cached = (tuple(all_tiles), by_layer)
            object.__setattr__(self, "_tiles_cached", cached)
        return cached

    def tiles(self) -> list[Tile]:
        """All tiles of one block, in layer order."""
        return list(self._tile_cache()[0])

    def tiles_of_layer(self, layer_index: int) -> list[Tile]:
        by_layer = self._tile_cache()[1]
        if layer_index not in by_layer:
            return []
        return list(by_layer[layer_index])

    def tile_indices(self) -> dict[Tile, int]:
        """Tile -> position in :meth:`tiles` order (cached)."""
        cached = self.__dict__.get("_tile_index_cached")
        if cached is None:
            cached = {tile: i for i, tile in enumerate(self._tile_cache()[0])}
            object.__setattr__(self, "_tile_index_cached", cached)
        return cached

    def num_cores_required(self) -> int:
        return len(self._tile_cache()[0])

    def layer(self, layer_index: int) -> BlockLayer:
        for layer in self.layers:
            if layer.index == layer_index:
                return layer
        raise MappingError(f"no layer with index {layer_index}")

    # -------------------------------------------------------------- volumes

    def tile_weight_bytes(self, tile: Tile) -> int:
        layer = self.layer(tile.layer_index)
        parts = layer.output_splits(self.core_weight_capacity_bytes) * layer.input_splits(
            self.core_weight_capacity_bytes
        )
        return layer.weight_bytes // parts

    def inter_layer_bytes(self, producer_layer: BlockLayer) -> float:
        """Bytes one producer tile sends to one consumer tile (per token)."""
        o_parts = producer_layer.output_splits(self.core_weight_capacity_bytes)
        return producer_layer.output_volume_bytes() / o_parts

    def reduction_bytes(self, layer: BlockLayer) -> float:
        """Bytes of partial sums one reduction hop carries (per token)."""
        o_parts = layer.output_splits(self.core_weight_capacity_bytes)
        return layer.reduction_volume_bytes(self.core_weight_capacity_bytes) / max(1, o_parts)

    def gather_bytes(self, layer: BlockLayer) -> float:
        """Bytes one output part contributes to the gather (per token)."""
        o_parts = layer.output_splits(self.core_weight_capacity_bytes)
        return layer.gather_volume_bytes(self.core_weight_capacity_bytes) / max(1, o_parts)

    # ------------------------------------------------------------ edge arrays

    def edge_arrays(self) -> EdgeArrays:
        """The static traffic structure as flat tile-index edge lists (cached)."""
        cached = self.__dict__.get("_edges_cached")
        if cached is not None:
            return cached
        tiles, by_layer = self._tile_cache()
        index_of = self.tile_indices()
        layers = sorted(self.layers, key=lambda layer: layer.index)

        inter_src: list[int] = []
        inter_dst: list[int] = []
        inter_vol: list[float] = []
        for producer, consumer in zip(layers, layers[1:]):
            volume = self.inter_layer_bytes(producer)
            src_ids = [index_of[t] for t in by_layer[producer.index]]
            dst_ids = [index_of[t] for t in by_layer[consumer.index]]
            for src in src_ids:
                for dst in dst_ids:
                    inter_src.append(src)
                    inter_dst.append(dst)
                    inter_vol.append(volume)

        reduction_src: list[int] = []
        reduction_dst: list[int] = []
        reduction_vol: list[float] = []
        gather_src: list[int] = []
        gather_dst: list[int] = []
        gather_vol: list[float] = []
        for layer in layers:
            r_volume = self.reduction_bytes(layer)
            g_volume = self.gather_bytes(layer)
            by_output: dict[int, list[Tile]] = {}
            for tile in by_layer[layer.index]:
                by_output.setdefault(tile.output_part, []).append(tile)
            gather_roots: list[int] = []
            for _, group in sorted(by_output.items()):
                group = sorted(group, key=lambda t: t.input_part)
                root = index_of[group[-1]]
                gather_roots.append(root)
                if r_volume > 0:
                    for tile in group[:-1]:
                        reduction_src.append(index_of[tile])
                        reduction_dst.append(root)
                        reduction_vol.append(r_volume)
            if g_volume > 0 and len(gather_roots) > 1:
                anchor = gather_roots[0]
                for root in gather_roots[1:]:
                    gather_src.append(root)
                    gather_dst.append(anchor)
                    gather_vol.append(g_volume)

        last = layers[-1]
        handoff_tiles = np.asarray(
            [index_of[t] for t in by_layer[last.index]], dtype=np.int64
        )
        cached = EdgeArrays(
            inter_src=np.asarray(inter_src, dtype=np.int64),
            inter_dst=np.asarray(inter_dst, dtype=np.int64),
            inter_vol=np.asarray(inter_vol, dtype=np.float64),
            reduction_src=np.asarray(reduction_src, dtype=np.int64),
            reduction_dst=np.asarray(reduction_dst, dtype=np.int64),
            reduction_vol=np.asarray(reduction_vol, dtype=np.float64),
            gather_src=np.asarray(gather_src, dtype=np.int64),
            gather_dst=np.asarray(gather_dst, dtype=np.int64),
            gather_vol=np.asarray(gather_vol, dtype=np.float64),
            handoff_tiles=handoff_tiles,
            handoff_vol=self.inter_layer_bytes(last),
        )
        object.__setattr__(self, "_edges_cached", cached)
        return cached

    def tile_adjacency(self) -> list[list[tuple[int, float]]]:
        """Undirected tile adjacency [(neighbour index, volume)] (cached).

        Combines all three traffic classes; used by the annealer to evaluate
        the cost change of moving one tile without re-walking the whole edge
        list.
        """
        cached = self.__dict__.get("_adjacency_cached")
        if cached is not None:
            return cached
        edges = self.edge_arrays()
        adjacency: list[list[tuple[int, float]]] = [
            [] for _ in range(self.num_cores_required())
        ]
        for src_arr, dst_arr, vol_arr in (
            (edges.inter_src, edges.inter_dst, edges.inter_vol),
            (edges.reduction_src, edges.reduction_dst, edges.reduction_vol),
            (edges.gather_src, edges.gather_dst, edges.gather_vol),
        ):
            for src, dst, vol in zip(src_arr.tolist(), dst_arr.tolist(), vol_arr.tolist()):
                adjacency[src].append((dst, vol))
                adjacency[dst].append((src, vol))
        object.__setattr__(self, "_adjacency_cached", adjacency)
        return adjacency


@dataclass
class CommunicationCost:
    """Byte-hop volumes of a placement, split by traffic class."""

    inter_layer: float = 0.0
    reduction: float = 0.0
    gather: float = 0.0
    #: plain bytes moved (no hop weighting), for transmission-volume figures
    total_bytes: float = 0.0

    @property
    def total(self) -> float:
        return self.inter_layer + self.reduction + self.gather

    def __add__(self, other: "CommunicationCost") -> "CommunicationCost":
        return CommunicationCost(
            inter_layer=self.inter_layer + other.inter_layer,
            reduction=self.reduction + other.reduction,
            gather=self.gather + other.gather,
            total_bytes=self.total_bytes + other.total_bytes,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "inter_layer": self.inter_layer,
            "reduction": self.reduction,
            "gather": self.gather,
            # Emitted under a unit-qualified name on purpose: the ``total``
            # property is in byte-hops, and renaming the key would silently
            # fork downstream readers of saved reports.
            "total_byte_hops": self.total,  # repro-lint: allow=SER002
            "total_bytes": self.total_bytes,
        }


@dataclass
class Placement:
    """Assignment of tiles to core ids."""

    assignment: dict[Tile, int] = field(default_factory=dict)

    def core_of(self, tile: Tile) -> int:
        try:
            return self.assignment[tile]
        except KeyError as exc:
            raise MappingError(f"tile {tile} is not placed") from exc

    def cores(self) -> list[int]:
        return list(self.assignment.values())

    def validate(self, wafer: Wafer) -> None:
        """Check constraints Eq. 2: one tile per core, no defective cores.

        The error names the first offending tile in assignment order: its core
        holds an earlier tile, lies outside the wafer
        (:class:`~repro.errors.ConfigurationError`) or is defective.
        """
        seen: set[int] = set()
        healthy = wafer.healthy_mask(self.cores()).tolist()
        for (tile, core_id), ok in zip(self.assignment.items(), healthy):
            if core_id in seen:
                raise MappingError(f"core {core_id} holds more than one tile")
            # is_defective raises ConfigurationError for an id outside the wafer.
            if not ok and wafer.is_defective(core_id):
                raise MappingError(f"tile {tile} placed on defective core {core_id}")
            seen.add(core_id)


def placement_core_array(problem: MappingProblem, placement: Placement) -> np.ndarray:
    """Core id of every tile, in :meth:`MappingProblem.tiles` order."""
    tiles = problem._tile_cache()[0]
    assignment = placement.assignment
    cores = [assignment.get(tile) for tile in tiles]
    if None in cores:
        raise MappingError(f"tile {tiles[cores.index(None)]} is not placed")
    return np.array(cores, dtype=np.int64)


def _class_cost(
    geometry,
    factor: float,
    cores: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    vol: np.ndarray,
) -> float:
    """Σ volume · weighted Manhattan distance over one traffic class."""
    if len(src) == 0:
        return 0.0
    return float(np.dot(vol, geometry.weighted_distances(cores[src], cores[dst], factor)))


def evaluate_placement(
    problem: MappingProblem,
    placement: Placement,
    wafer: Wafer,
    next_block_entry_core: int | None = None,
) -> CommunicationCost:
    """Per-token communication cost of a placement of one block's tiles.

    ``next_block_entry_core`` optionally charges the hand-off from this block's
    last layer to the first layer of the following block (used when evaluating
    whole-wafer mappings).
    """
    edges = problem.edge_arrays()
    geometry = wafer.geometry()
    factor = problem.inter_die_cost_factor
    cores = placement_core_array(problem, placement)

    inter = _class_cost(
        geometry, factor, cores, edges.inter_src, edges.inter_dst, edges.inter_vol
    )
    reduction = _class_cost(
        geometry,
        factor,
        cores,
        edges.reduction_src,
        edges.reduction_dst,
        edges.reduction_vol,
    )
    gather = _class_cost(
        geometry, factor, cores, edges.gather_src, edges.gather_dst, edges.gather_vol
    )
    total_bytes = float(
        edges.inter_vol.sum() + edges.reduction_vol.sum() + edges.gather_vol.sum()
    )

    # Hand-off to the next block's first layer (single representative core).
    if next_block_entry_core is not None and len(edges.handoff_tiles) > 0:
        src_cores = cores[edges.handoff_tiles]
        weighted = geometry.weighted_distances(
            src_cores, int(next_block_entry_core), factor
        )
        inter += float(edges.handoff_vol * weighted.sum())
        total_bytes += edges.handoff_vol * len(src_cores)

    return CommunicationCost(
        inter_layer=inter,
        reduction=reduction,
        gather=gather,
        total_bytes=total_bytes,
    )
