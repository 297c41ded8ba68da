"""Inter-core weight mapping (Section 4.3.1).

The paper formulates tile placement as a Mixed Integer Quadratic Program and
solves it offline.  No MIQP solver is available in this offline build, so the
same objective (Eq. 1 under constraints Eq. 2-3) is optimised with a greedy
construction followed by simulated annealing; on small instances this reaches
the brute-force optimum (verified by tests), and on block-sized instances it
converges to placements whose cost is within a few percent of the greedy
lower-bound estimate.  Only the resulting communication volumes feed the rest
of the system, so this substitution preserves the evaluation's behaviour.

The mapper works at two granularities:

* :class:`BlockMapper` places the tiles of a single transformer block onto a
  contiguous region of cores (the paper maps one block and repeats it).
* :func:`map_model` partitions the wafer's healthy cores into ``num_blocks``
  consecutive segments along the S-shaped order, applies the block placement
  inside each segment, and designates every unused core as a KV-cache core.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import MappingError
from ..hardware.wafer import Wafer
from ..models.architectures import ModelArch
from .objective import CommunicationCost, MappingProblem, Placement, Tile, evaluate_placement


@dataclass
class BlockMapping:
    """Result of placing one block's tiles.

    The derived core lists are computed on first access and kept: a mapping
    is not edited after it is built, and every pipeline, summary and fault
    manager reads them.
    """

    placement: Placement
    cost: CommunicationCost
    weight_core_ids: list[int]
    region_core_ids: list[int]

    @cached_property
    def kv_core_ids(self) -> list[int]:
        used = set(self.weight_core_ids)
        return [core for core in self.region_core_ids if core not in used]


@dataclass
class WaferMapping:
    """Placement of a whole model (all blocks) onto a wafer."""

    arch: ModelArch
    block_mappings: list[BlockMapping] = field(default_factory=list)
    #: byte-hops per token crossing from one block's region to the next
    inter_block_cost: float = 0.0
    #: mesh hops an activation typically travels between consecutive pipeline
    #: stages (centroid-to-centroid along the S-shaped dataflow); used by the
    #: per-token energy/latency model, whereas the byte-hop totals above feed
    #: the mapping-quality comparison of Fig. 18.
    activation_route_hops: float = 2.0

    # Derived once, like BlockMapping's lists: the blocks are final once
    # map_model returns.

    @cached_property
    def weight_core_ids(self) -> list[int]:
        cores: list[int] = []
        for block in self.block_mappings:
            cores.extend(block.weight_core_ids)
        return cores

    @cached_property
    def kv_core_ids(self) -> list[int]:
        cores: list[int] = []
        for block in self.block_mappings:
            cores.extend(block.kv_core_ids)
        return cores

    @property
    def num_weight_cores(self) -> int:
        return len(self.weight_core_ids)

    @property
    def num_kv_cores(self) -> int:
        return len(self.kv_core_ids)

    def total_cost(self) -> CommunicationCost:
        total = CommunicationCost()
        for block in self.block_mappings:
            total = total + block.cost
        total.inter_layer += self.inter_block_cost
        return total

    def byte_hops_per_token(self) -> float:
        """Weighted byte-hops one token incurs traversing the whole model."""
        return self.total_cost().total

    def bytes_per_token(self) -> float:
        return self.total_cost().total_bytes

    def average_hops_per_transfer(self) -> float:
        total = self.total_cost()
        if total.total_bytes == 0:
            return 0.0
        return total.total / total.total_bytes


class BlockMapper:
    """Greedy + simulated-annealing placement of one block's tiles."""

    def __init__(
        self,
        problem: MappingProblem,
        wafer: Wafer,
        anneal_iterations: int = 0,
        seed: int = 0,
        initial_temperature: float = 50.0,
    ) -> None:
        self.problem = problem
        self.wafer = wafer
        self.anneal_iterations = anneal_iterations
        self.seed = seed
        self.initial_temperature = initial_temperature

    # ----------------------------------------------------------------- greedy

    def greedy(self, region_core_ids: list[int]) -> Placement:
        """Place tiles along the region in dataflow order.

        Consecutive tiles of consecutive layers end up on nearby cores, which
        is a strong starting point because inter-layer traffic dominates.
        """
        tiles = self.problem.tiles()
        healthy = self.wafer.healthy(region_core_ids)
        if len(healthy) < len(tiles):
            raise MappingError(
                f"region has {len(healthy)} healthy cores but the block needs "
                f"{len(tiles)} tiles"
            )
        assignment = {tile: healthy[i] for i, tile in enumerate(tiles)}
        return Placement(assignment=assignment)

    # --------------------------------------------------------------- annealing

    def anneal(self, placement: Placement, region_core_ids: list[int]) -> Placement:
        """Refine a placement by simulated annealing over tile/core swaps.

        Each proposal is scored by *incremental delta evaluation*: only the
        byte-hop contribution of the edges incident to the moved/swapped tiles
        is recomputed (via the problem's static tile adjacency), instead of
        re-running the full Eq. 1 objective over every tile pair.  Together
        with set-backed free/used core bookkeeping this makes one iteration
        O(tile degree), so the iteration budget can rise an order of magnitude
        at unchanged wall-clock.
        """
        if self.anneal_iterations <= 0:
            return placement
        rng = random.Random(self.seed)
        wafer = self.wafer
        healthy = wafer.healthy(region_core_ids)
        tiles = list(placement.assignment.keys())
        num_tiles = len(tiles)
        if num_tiles == 0:
            return placement

        index_of = self.problem.tile_indices()
        adjacency = self.problem.tile_adjacency()
        rows, cols, die_rows, die_cols = wafer.geometry().coordinates
        factor = self.problem.inter_die_cost_factor

        def wdist(a: int, b: int) -> float:
            distance = float(abs(rows[a] - rows[b]) + abs(cols[a] - cols[b]))
            if die_rows[a] != die_rows[b] or die_cols[a] != die_cols[b]:
                distance *= factor
            return distance

        # core_at[i] is the core of tiles[i]; adjacency is indexed by the
        # problem's canonical tile order, so translate once up front.
        slot_of = [index_of[tile] for tile in tiles]
        core_at: list[int] = [0] * len(adjacency)
        for tile, slot in zip(tiles, slot_of):
            core_at[slot] = placement.assignment[tile]

        current_cost = evaluate_placement(self.problem, placement, wafer).total
        best_cores = list(core_at)
        best_cost = current_cost

        used = set(placement.assignment.values())
        free = [core for core in healthy if core not in used]
        free_pos = {core: i for i, core in enumerate(free)}

        def delta_for_move(slot: int, new_core: int) -> float:
            old_core = core_at[slot]
            delta = 0.0
            for other_slot, volume in adjacency[slot]:
                other_core = core_at[other_slot]
                delta += volume * (
                    wdist(new_core, other_core) - wdist(old_core, other_core)
                )
            return delta

        def delta_for_swap(slot_a: int, slot_b: int) -> float:
            core_a, core_b = core_at[slot_a], core_at[slot_b]
            delta = 0.0
            for other_slot, volume in adjacency[slot_a]:
                if other_slot == slot_b:
                    continue  # both endpoints move; the distance is unchanged
                other_core = core_at[other_slot]
                delta += volume * (
                    wdist(core_b, other_core) - wdist(core_a, other_core)
                )
            for other_slot, volume in adjacency[slot_b]:
                if other_slot == slot_a:
                    continue
                other_core = core_at[other_slot]
                delta += volume * (
                    wdist(core_a, other_core) - wdist(core_b, other_core)
                )
            return delta

        temperature = self.initial_temperature
        for _ in range(self.anneal_iterations):
            pick = slot_of[rng.randrange(num_tiles)]
            if free and rng.random() < 0.5:
                # Move the tile to a free core.
                new_core = free[rng.randrange(len(free))]
                delta = delta_for_move(pick, new_core)
                accept = delta <= 0 or rng.random() < math.exp(
                    -delta / max(temperature, 1e-9)
                )
                if accept:
                    old_core = core_at[pick]
                    core_at[pick] = new_core
                    used.add(new_core)
                    used.discard(old_core)
                    # O(1) removal: swap the taken core with the list tail.
                    position = free_pos.pop(new_core)
                    tail = free.pop()
                    if tail != new_core:
                        free[position] = tail
                        free_pos[tail] = position
                    free.append(old_core)
                    free_pos[old_core] = len(free) - 1
                    current_cost += delta
            else:
                # Swap two tiles.
                other = slot_of[rng.randrange(num_tiles)]
                if other == pick:
                    continue
                delta = delta_for_swap(pick, other)
                accept = delta <= 0 or rng.random() < math.exp(
                    -delta / max(temperature, 1e-9)
                )
                if accept:
                    core_at[pick], core_at[other] = core_at[other], core_at[pick]
                    current_cost += delta
            if current_cost < best_cost:
                best_cost = current_cost
                best_cores = list(core_at)
            temperature *= 0.995
        return Placement({tile: best_cores[slot] for tile, slot in zip(tiles, slot_of)})

    # -------------------------------------------------------------------- run

    def map_block(self, region_core_ids: list[int]) -> BlockMapping:
        placement = self.greedy(region_core_ids)
        placement = self.anneal(placement, region_core_ids)
        placement.validate(self.wafer)
        cost = evaluate_placement(self.problem, placement, self.wafer)
        return BlockMapping(
            placement=placement,
            cost=cost,
            weight_core_ids=sorted(placement.cores()),
            region_core_ids=list(region_core_ids),
        )


def _apply_pattern(
    problem: MappingProblem,
    wafer: Wafer,
    tiles: list[Tile],
    region: list[int],
    pattern: list[int],
) -> BlockMapping:
    """Replicate a relative placement pattern onto another region of cores.

    Tile ``i`` takes ``region[pattern[i]]``.  A slot past the region's end, on
    a defective core or on a core an earlier tile took is diverted to the
    region's first unused healthy core.
    """
    # -1 marks a slot past the region's end: the wafer reads it as unusable.
    slots = [region[index] if index < len(region) else -1 for index in pattern]
    usable = wafer.healthy_mask(slots).tolist()
    used: set[int] = set()
    assignment: dict[Tile, int] = {}
    # Fallback cores are handed out in region order; every core before the
    # iterator's position is already used, so one forward pass suffices.
    fallback = _healthy_cores(wafer, region)
    for tile, core, ok in zip(tiles, slots, usable):
        if not ok or core in used:
            core = next((c for c in fallback if c not in used), None)
            if core is None:
                raise MappingError("not enough healthy cores to replicate the pattern")
        assignment[tile] = core
        used.add(core)
    placement = Placement(assignment)
    placement.validate(wafer)
    cost = evaluate_placement(problem, placement, wafer)
    return BlockMapping(
        placement=placement,
        cost=cost,
        weight_core_ids=sorted(placement.cores()),
        region_core_ids=list(region),
    )


def _healthy_cores(wafer: Wafer, region: list[int]) -> Iterator[int]:
    """The healthy cores of ``region`` in order, filtered on the first ``next``."""
    yield from wafer.healthy(region)


def map_model(
    arch: ModelArch,
    wafer: Wafer,
    anneal_iterations: int = 0,
    seed: int = 0,
    min_kv_fraction: float = 0.05,
) -> WaferMapping:
    """Map a whole model onto a wafer: one region of cores per transformer block.

    The wafer's healthy cores are walked in S-shaped order and split into
    ``num_blocks`` contiguous segments so that consecutive pipeline stages sit
    in adjacent regions.  Within each segment the block's tiles are placed by
    :class:`BlockMapper`; every remaining core of the segment becomes a KV
    core for that block.

    Raises :class:`MappingError` if the model's weights (plus a minimal KV
    reserve of ``min_kv_fraction``) do not fit the wafer.
    """
    capacity = wafer.config.die.core.weight_capacity_bytes
    problem = MappingProblem.from_arch(
        arch, capacity, wafer.config.inter_die_cost_factor
    )
    tiles_per_block = problem.num_cores_required()
    # Traverse the wafer in bands roughly as tall as one block's region is
    # wide, so each block occupies a compact 2D patch instead of a long strip.
    approximate_region = max(1, wafer.num_healthy_cores // arch.num_blocks)
    band_height = max(1, int(round(math.sqrt(approximate_region))))
    healthy_order = wafer.healthy_s_shaped_order(band_height=band_height)
    total_needed = tiles_per_block * arch.num_blocks
    if total_needed > len(healthy_order) * (1.0 - min_kv_fraction):
        raise MappingError(
            f"{arch.name} needs {total_needed} weight cores but the wafer only has "
            f"{len(healthy_order)} healthy cores (min KV reserve "
            f"{min_kv_fraction:.0%})"
        )
    segment_size = len(healthy_order) // arch.num_blocks
    mapper = BlockMapper(problem, wafer, anneal_iterations=anneal_iterations, seed=seed)

    # The paper maps a single transformer block and repeats that placement for
    # every block (all blocks are identical).  We therefore run the expensive
    # annealing once, on the first block's region, and replicate the resulting
    # *relative* placement pattern across the remaining regions.
    block_mappings: list[BlockMapping] = []
    pattern: list[int] | None = None
    tiles = problem.tiles()
    for block in range(arch.num_blocks):
        start = block * segment_size
        end = start + segment_size if block < arch.num_blocks - 1 else len(healthy_order)
        region = healthy_order[start:end]
        if pattern is None:
            mapping = mapper.map_block(region)
            index_of = {core: i for i, core in enumerate(region)}
            pattern = [index_of[mapping.placement.core_of(tile)] for tile in tiles]
        else:
            mapping = _apply_pattern(problem, wafer, tiles, region, pattern)
        block_mappings.append(mapping)

    # Inter-block hand-off cost: last layer of block k -> first tile of block
    # k+1.  The charges are added one at a time, block pair by block pair and
    # tile by tile, so the total rounds as it always has.
    layers = sorted(problem.layers, key=lambda layer: layer.index)
    last_layer = layers[-1]
    last_tiles = problem.tiles_of_layer(last_layer.index)
    handoff_bytes = problem.inter_layer_bytes(last_layer)
    sources = np.array(
        [
            [current.placement.assignment[tile] for tile in last_tiles]
            for current in block_mappings[:-1]
        ],
        dtype=np.int64,
    )
    entries = np.array(
        [nxt.weight_core_ids[0] for nxt in block_mappings[1:]], dtype=np.int64
    )
    distances = wafer.geometry().weighted_distances(
        sources, entries[:, None], problem.inter_die_cost_factor
    )
    inter_block = 0.0
    for charge in (handoff_bytes * distances).ravel().tolist():
        inter_block += charge

    route_hops = _activation_route_hops(problem, wafer, block_mappings[0])
    return WaferMapping(
        arch=arch,
        block_mappings=block_mappings,
        inter_block_cost=inter_block,
        activation_route_hops=route_hops,
    )


def _activation_route_hops(
    problem: MappingProblem, wafer: Wafer, block: BlockMapping
) -> float:
    """Typical hop distance an activation travels between consecutive stages.

    Activations propagate along the S-shaped producer/consumer route, so one
    token's hidden state effectively travels from the centroid of one layer's
    core region to the centroid of the next, plus half the spread of the
    consumer region (the multicast tail).  This is the distance the per-token
    NoC energy/latency model charges; the all-pairs byte-hop objective remains
    the quantity the mapper minimises.
    """
    layers = sorted(problem.layers, key=lambda layer: layer.index)
    geometry = wafer.geometry()
    centroids: list[tuple[float, float]] = []
    spreads: list[float] = []
    for layer in layers:
        layer_cores = [
            block.placement.core_of(tile) for tile in problem.tiles_of_layer(layer.index)
        ]
        rows = [int(geometry.rows[core]) for core in layer_cores]
        cols = [int(geometry.cols[core]) for core in layer_cores]
        centroid = (sum(rows) / len(rows), sum(cols) / len(cols))
        centroids.append(centroid)
        spread = sum(
            abs(r - centroid[0]) + abs(c - centroid[1]) for r, c in zip(rows, cols)
        ) / len(layer_cores)
        spreads.append(spread)
    if len(centroids) < 2:
        return 1.0
    hops = []
    for (a, b), spread in zip(zip(centroids, centroids[1:]), spreads[1:]):
        centroid_distance = abs(a[0] - b[0]) + abs(a[1] - b[1])
        hops.append(centroid_distance + 0.5 * spread)
    return max(1.0, sum(hops) / len(hops))
