"""Analytical network-on-wafer model.

The paper uses BookSim2 for cycle-level NoC characterisation and consumes its
per-hop latency/energy figures.  We model the mesh analytically: a transfer of
``B`` bytes between two cores takes

    latency = hops * per_hop_latency + die_crossings * die_crossing_latency
              + B / link_bandwidth

and consumes ``B * hops`` bytes-hops of router/link energy plus a surcharge for
each stitched die boundary.  Routes are minimal XY routes; the weight-core
recovery chain of Section 4.3.3 prices its hand-offs with
:meth:`NoCModel.transfer_cost`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import GHZ, NS
from .energy import EnergyModel
from .wafer import Wafer


@dataclass(frozen=True)
class NoCConfig:
    """Timing parameters of the mesh network-on-wafer."""

    #: router traversal + link latency per hop
    per_hop_latency_s: float = 2 * NS
    #: additional latency when a flit crosses a stitched die boundary
    die_crossing_latency_s: float = 4 * NS
    #: link clock frequency
    frequency_hz: float = 1 * GHZ
    #: link width in bits (matches the core buffer width)
    link_width_bits: int = 256

    @property
    def link_bandwidth_bytes_per_s(self) -> float:
        return self.frequency_hz * self.link_width_bits / 8.0


@dataclass
class TransferCost:
    """Latency and energy of one point-to-point transfer."""

    latency_s: float
    energy_j: float
    hops: int
    die_crossings: int
    num_bytes: float


class NoCModel:
    """Mesh network model bound to a specific wafer."""

    def __init__(
        self,
        wafer: Wafer,
        config: NoCConfig | None = None,
        energy: EnergyModel | None = None,
    ) -> None:
        self.wafer = wafer
        self.config = config or NoCConfig()
        self.energy = energy or wafer.energy

    # --------------------------------------------------------------- transfers

    def route_hops(self, src: int, dst: int) -> tuple[int, int]:
        """Return (hops, die_crossings) of the minimal XY route from src to dst."""
        if src == dst:
            return 0, 0
        return self.wafer.manhattan(src, dst), self.wafer.die_crossings(src, dst)

    def transfer_cost(self, src: int, dst: int, num_bytes: float) -> TransferCost:
        """Latency/energy to move ``num_bytes`` from ``src`` to ``dst``."""
        hops, crossings = self.route_hops(src, dst)
        if num_bytes <= 0 or hops == 0:
            return TransferCost(0.0, 0.0, hops, crossings, max(0.0, num_bytes))
        serialization = num_bytes / self.config.link_bandwidth_bytes_per_s
        latency = (
            hops * self.config.per_hop_latency_s
            + crossings * self.config.die_crossing_latency_s
            + serialization
        )
        energy = self.energy.noc_transfer_energy_j(num_bytes, hops, crossings)
        return TransferCost(latency, energy, hops, crossings, num_bytes)
