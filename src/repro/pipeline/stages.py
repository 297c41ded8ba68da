"""Per-token stage cost model for the unified 6N-stage pipeline.

This module turns the hardware characterisation (crossbar cycle counts, SFU
throughput, NoC bandwidth, per-operation energies) and the mapping summary
(cores per layer, average hop distance between communicating cores) into the
two quantities the pipeline engines need:

* the **stage interval** -- the time one pipeline stage needs per token, whose
  maximum over the six stages sets the pipeline's steady-state token rate, and
* the **per-token energy breakdown** -- compute / on-chip memory /
  communication joules for one token traversing one transformer block.

The model also supports two ablation knobs used by Fig. 15 and Fig. 21:
``cim_enabled=False`` charges a per-use SRAM weight read plus digital-MAC
energy instead of in-situ CIM MACs (the "TGP without CIM" configuration), and
``lut_optimized=True`` applies the 10% compute-energy reduction the paper
reports for LUT-based crossbars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..hardware.config import WaferConfig
from ..hardware.core import CIMCore
from ..hardware.energy import EnergyModel
from ..models.architectures import ModelArch
from ..models.layers import build_block_layers
from ..models.pipeline_stages import StageKind, StageSpec, build_stage_specs
from ..results import EnergyBreakdown


@dataclass
class StageCost:
    """Latency and energy of one stage processing one token."""

    kind: StageKind
    latency_s: float
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)


@dataclass
class TokenCostModel:
    """Analytical per-token cost model for one transformer block.

    Nothing changes a cost model after construction, so its costs are pure
    functions of the context length.  The pipeline engines memoise them
    here, per quantised context (``interval_memo``, ``energy_memo`` and
    ``energy_row_memo``), so every engine built on one cost model -- every
    serve of one build -- computes each cost once.
    """

    arch: ModelArch
    wafer_config: WaferConfig
    energy_model: EnergyModel = field(default_factory=EnergyModel)
    #: average mesh hops between cores of adjacent stages (mapping quality)
    average_hops: float = 2.0
    #: average fraction of inter-stage transfers that cross a die boundary
    die_crossing_fraction: float = 0.05
    #: whether weights are consumed in-situ (CIM) or read out per use
    cim_enabled: bool = True
    #: apply the LUT-based crossbar optimisation (~10% compute energy saving)
    lut_optimized: bool = False
    #: scale on the inter-stage link bandwidth (<1 models non-wafer packaging
    #: whose die-to-die links are slower than stitched on-wafer links)
    transfer_bandwidth_scale: float = 1.0
    #: when ``cim_enabled`` is False, how many tokens share one SRAM weight
    #: read.  Sequence-grained scheduling amortises the read over a whole
    #: sequence; token-grained scheduling destroys that reuse (=1), which is
    #: the energy blow-up the Fig. 15 red bars illustrate.
    weight_reuse_tokens: float = 1.0

    def __post_init__(self) -> None:
        core_config = self.wafer_config.die.core
        self._core = CIMCore(core_id=-1, config=core_config, energy=self.energy_model)
        self._stage_specs = build_stage_specs(self.arch)
        self._layers = build_block_layers(self.arch)
        capacity = core_config.weight_capacity_bytes
        self._cores_per_layer = {
            layer.kind.value: layer.num_cores(capacity) for layer in self._layers
        }
        self._link_bandwidth = (
            core_config.link_width_bits / 8.0
        ) * 1e9 * self.transfer_bandwidth_scale  # links run at 1 GHz
        self._crossbar = core_config.crossbar
        self.interval_memo: dict[int, float] = {}
        self.energy_memo: dict[int, EnergyBreakdown] = {}
        self.energy_row_memo: dict[int, tuple[float, float, float, float]] = {}

    # ------------------------------------------------------------------ stages

    def _weighted_stage_latency(self, spec: StageSpec) -> float:
        """Latency of a weighted GEMV stage for one token."""
        if spec.kind is StageKind.QKV_GENERATION:
            input_dim = self.arch.hidden_size
            output_dim = self.arch.q_dim + 2 * self.arch.kv_dim
            cores = self._cores_per_layer["qkv_projection"]
        elif spec.kind is StageKind.PROJECTION:
            input_dim = self.arch.q_dim
            output_dim = self.arch.hidden_size
            cores = self._cores_per_layer["output_projection"]
        else:  # FFN: up + down back to back on their respective cores
            up_latency = self._gemv_latency(
                self.arch.hidden_size,
                (self.arch.ffn_matrices - 1) * self.arch.ffn_hidden_size,
                self._cores_per_layer["ffn_up"],
            )
            down_latency = self._gemv_latency(
                self.arch.ffn_hidden_size,
                self.arch.hidden_size,
                self._cores_per_layer["ffn_down"],
            )
            return max(up_latency, down_latency)
        return self._gemv_latency(input_dim, output_dim, cores)

    def _gemv_latency(self, input_dim: int, output_dim: int, cores: int) -> float:
        per_core_output = max(1, math.ceil(output_dim / max(1, cores)))
        return self._core.gemv_cost(input_dim, per_core_output).latency_s

    def _attention_stage_latency(self, spec: StageSpec, context: int) -> float:
        """Latency of the score / context GEMVs against the KV cache."""
        crossbar = self._crossbar
        block_rows = crossbar.rows // crossbar.attention_logical_blocks
        if spec.kind is StageKind.SCORE:
            # K stored head_dim (rows) x tokens (cols); all token blocks of a
            # head compute in parallel across crossbars.
            active_rows = min(self.arch.head_dim, crossbar.rows)
        else:
            # V stored tokens (rows) x head_dim (cols); rows grow with context
            # but are spread over logical blocks / crossbars.
            per_crossbar_tokens = crossbar.attention_logical_blocks * block_rows
            active_rows = min(max(1, context), per_crossbar_tokens, crossbar.rows)
        row_groups = math.ceil(active_rows / crossbar.rows_active_per_cycle)
        cycles = crossbar.activation_bits * row_groups
        return cycles * crossbar.cycle_time_s

    def _sfu_stage_latency(self, context: int) -> float:
        # Softmax of one head's scores on its KV core's SFU; heads in parallel.
        return self._core.sfu_cost(max(1, context)).latency_s

    def stage_latency(self, kind: StageKind, context: int) -> float:
        """Latency of one stage processing one token at a given context length."""
        spec = next(s for s in self._stage_specs if s.kind is kind)
        if kind in (StageKind.QKV_GENERATION, StageKind.PROJECTION, StageKind.FFN):
            compute = self._weighted_stage_latency(spec)
        elif kind in (StageKind.SCORE, StageKind.CONTEXT):
            compute = self._attention_stage_latency(spec, context)
        else:
            compute = self._sfu_stage_latency(context)
        transfer = spec.output_bytes_per_token(context) / self._link_bandwidth
        if not self.cim_enabled and spec.is_weighted:
            # Weights must stream from SRAM into the digital datapath; the
            # stage becomes bandwidth-bound on the weight read.  Coarser
            # scheduling granularities amortise the read over several tokens.
            weight_read = (
                spec.weight_bytes
                / max(1, self._cores_per_layer_for(spec))
                / (self._link_bandwidth * 4)
                / max(1.0, self.weight_reuse_tokens)
            )
            compute = max(compute, weight_read)
        return max(compute, transfer)

    def _cores_per_layer_for(self, spec: StageSpec) -> int:
        if spec.kind is StageKind.QKV_GENERATION:
            return self._cores_per_layer["qkv_projection"]
        if spec.kind is StageKind.PROJECTION:
            return self._cores_per_layer["output_projection"]
        if spec.kind is StageKind.FFN:
            return self._cores_per_layer["ffn_up"] + self._cores_per_layer["ffn_down"]
        return 1

    def stage_interval(self, context: int) -> float:
        """The pipeline's per-token interval: the slowest stage's latency."""
        return max(self.stage_latency(kind, context) for kind in StageKind)

    def token_pipeline_latency(self, context: int) -> float:
        """End-to-end latency of one token through all 6N stages."""
        per_block = sum(self.stage_latency(kind, context) for kind in StageKind)
        return per_block * self.arch.num_blocks

    # ------------------------------------------------------------------ energy

    def token_energy(self, context: int) -> EnergyBreakdown:
        """Energy for one token traversing the *whole model* (all blocks)."""
        arch = self.arch
        em = self.energy_model
        ctx = max(1, context)

        weight_macs = float(arch.block_weight_params)
        attention_macs = float(2 * arch.num_heads * arch.head_dim * ctx)
        total_macs = weight_macs + attention_macs

        if self.cim_enabled:
            compute = total_macs * em.cim_mac_j(self._crossbar)
            weight_read = 0.0
        else:
            compute = total_macs * em.digital_mac_j
            weight_read = (
                arch.block_weight_bytes
                * em.non_cim_weight_read_j_per_byte
                / max(1.0, self.weight_reuse_tokens)
            )
        if self.lut_optimized:
            compute *= 0.9

        sfu_elements = sum(
            spec.sfu_elements_per_token(ctx) for spec in self._stage_specs
        )
        compute += sfu_elements * em.sfu_j_per_element

        # On-chip memory: staging activations through input/output buffers and
        # appending this token's K/V entries.
        activation_bytes = sum(
            spec.output_bytes_per_token(ctx) for spec in self._stage_specs
        )
        kv_write_bytes = arch.kv_bytes_per_token_per_block
        on_chip = (
            activation_bytes * (em.sram_write_j_per_byte + em.sram_read_j_per_byte)
            + kv_write_bytes * em.sram_write_j_per_byte
            + weight_read
        )

        # Communication: inter-stage activations travel average_hops mesh hops.
        communication = em.noc_transfer_energy_j(
            activation_bytes,
            hops=self.average_hops,
            die_crossings=self.average_hops * self.die_crossing_fraction,
        )

        per_block = EnergyBreakdown(
            compute_j=compute,
            on_chip_memory_j=on_chip,
            off_chip_memory_j=0.0,
            communication_j=communication,
        )
        return per_block.scaled(arch.num_blocks)

    # ------------------------------------------------------------------ report

    def stage_report(self, context: int) -> list[StageCost]:
        """Per-stage latency report (energy reported at block granularity)."""
        report = []
        for kind in StageKind:
            report.append(
                StageCost(kind=kind, latency_s=self.stage_latency(kind, context))
            )
        return report
