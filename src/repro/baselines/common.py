"""Analytical roofline models of the baseline inference systems.

The paper compares Ouroboros against four deployed systems (Section 6.1):

* a DGX A100 node running vLLM,
* a cluster of eight TPUv4 devices,
* the DGX + AttAcc processing-in-memory configuration, and
* a Cerebras WSE-2 wafer running WaferLLM.

None of that hardware is available here, so each baseline is modelled
analytically from published peak-compute, memory-bandwidth, capacity and
energy-per-byte figures.  The model captures the first-order behaviour that
drives the paper's comparison: the prefill phase is compute-bound, the decode
phase is bound by reading the weights plus the KV cache from (off-chip) memory
every step, batching amortises weight reads across concurrent sequences but is
capped by memory capacity, and tensor parallelism adds all-reduce traffic on
the inter-device interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..models.architectures import ModelArch
from ..results import EnergyBreakdown, RunResult
from ..units import GB, TERA
from ..workload.generator import Trace


@dataclass(frozen=True)
class BaselineHardware:
    """Published characteristics of one baseline system (aggregated over devices)."""

    name: str
    num_devices: int
    #: aggregate peak 8/16-bit MAC throughput (MAC/s, i.e. ops/2)
    peak_macs_per_s: float
    #: achieved fraction of peak during compute-bound (prefill) phases
    prefill_efficiency: float
    #: achieved fraction of peak during memory-bound (decode) phases
    decode_efficiency: float
    #: aggregate main-memory (HBM/DRAM/SRAM) capacity in bytes
    memory_capacity_bytes: float
    #: aggregate main-memory bandwidth in bytes/s
    memory_bandwidth_bytes_per_s: float
    #: fraction of the peak bandwidth achieved on serving access patterns
    #: (scattered KV reads, weight streaming); ~0.7 for HBM-based systems
    memory_bandwidth_efficiency: float
    #: energy per byte of main-memory traffic
    memory_energy_per_byte_j: float
    #: whether main memory is on-chip SRAM (Cerebras) rather than HBM/DRAM
    memory_is_on_chip: bool
    #: energy per multiply-accumulate in the digital datapath
    mac_energy_j: float
    #: energy per byte staged through on-chip buffers/caches
    on_chip_energy_per_byte_j: float
    #: aggregate interconnect (NVLink/ICI/fabric) bandwidth in bytes/s
    interconnect_bandwidth_bytes_per_s: float
    #: energy per byte on the interconnect
    interconnect_energy_per_byte_j: float
    #: tensor-parallel degree used for serving
    tensor_parallel: int = 1
    #: bytes per weight parameter as deployed (2 = FP16, 1 = INT8)
    weight_bytes_per_param: int = 2
    #: bytes per cached K/V element
    kv_bytes_per_element: int = 2
    #: largest batch the serving stack will form
    max_batch_size: int = 256
    #: attention (score/context + KV reads) executed inside memory (AttAcc)
    attention_in_memory: bool = False


#: fraction of the KV-cache volume that still crosses the memory channel when
#: attention executes in PIM (commands, scores, context results)
PIM_CHANNEL_TRAFFIC_FRACTION = 0.3


@dataclass(frozen=True)
class BaselineConfig:
    """Run-time knobs of a baseline simulation."""

    #: fraction of interconnect time hidden behind compute (overlap)
    interconnect_overlap: float = 0.5
    #: static/idle power charged per device while serving, in watts
    idle_power_per_device_w: float = 0.0


class BaselineSystem:
    """Roofline-model serving simulator for one baseline system."""

    def __init__(
        self,
        arch: ModelArch,
        hardware: BaselineHardware,
        config: BaselineConfig | None = None,
    ) -> None:
        self.arch = arch
        self.hardware = hardware
        self.config = config or BaselineConfig()
        if self.weight_bytes() > hardware.memory_capacity_bytes:
            raise ConfigurationError(
                f"{arch.name} weights ({self.weight_bytes() / GB:.1f} GiB) do not fit "
                f"{hardware.name}'s {hardware.memory_capacity_bytes / GB:.1f} GiB memory"
            )

    # ------------------------------------------------------------ introspection

    @property
    def name(self) -> str:
        """Display name (the ``ServingSystem`` protocol)."""
        return self.hardware.name

    def summary(self) -> dict[str, float]:
        """Key facts about the modelled deployment (protocol counterpart of
        :meth:`repro.core.system.OuroborosSystem.summary`)."""
        hw = self.hardware
        return {
            "system": hw.name,
            "model": self.arch.name,
            "num_devices": hw.num_devices,
            "peak_tops": hw.peak_macs_per_s * 2.0 / 1e12,
            "memory_capacity_gib": hw.memory_capacity_bytes / (1 << 30),
            "memory_bandwidth_tb_per_s": hw.memory_bandwidth_bytes_per_s / 1e12,
            "tensor_parallel": hw.tensor_parallel,
            "max_batch_size": hw.max_batch_size,
            "weight_gib": self.weight_bytes() / (1 << 30),
        }

    # ----------------------------------------------------------------- sizing

    def weight_bytes(self) -> float:
        return float(self.arch.total_weight_params) * self.hardware.weight_bytes_per_param

    def kv_bytes_per_token(self) -> float:
        return (
            2.0
            * self.arch.kv_dim
            * self.arch.num_blocks
            * self.hardware.kv_bytes_per_element
        )

    def max_batch_size(self, context_length: float) -> int:
        """Concurrent sequences the KV budget supports at a given context."""
        free = self.hardware.memory_capacity_bytes - self.weight_bytes()
        per_sequence = max(1.0, context_length) * self.kv_bytes_per_token()
        batch = int(free // per_sequence) if per_sequence > 0 else self.hardware.max_batch_size
        return max(1, min(self.hardware.max_batch_size, batch))

    # ----------------------------------------------------------------- phases

    def prefill_time_and_energy(
        self, prompt_tokens: float, context_length: float
    ) -> tuple[float, EnergyBreakdown]:
        """Time/energy to prefill ``prompt_tokens`` tokens (batched GEMMs)."""
        hw = self.hardware
        macs = prompt_tokens * (
            self.arch.num_blocks * self.arch.block_weight_params
            + self.arch.num_blocks * self.arch.num_heads * self.arch.head_dim * context_length
        )
        compute_time = macs / (hw.peak_macs_per_s * hw.prefill_efficiency)
        # Weights stream from memory once per prefill pass over the batch; with
        # chunked prefill the read is amortised over roughly max_batch prompts.
        weight_reads = self.weight_bytes() * prompt_tokens / max(
            1.0, self._prefill_amortisation()
        )
        kv_writes = prompt_tokens * self.kv_bytes_per_token()
        memory_time = (weight_reads + kv_writes) / (
            hw.memory_bandwidth_bytes_per_s * hw.memory_bandwidth_efficiency
        )
        time = max(compute_time, memory_time) + self._interconnect_time(prompt_tokens)
        energy = self._phase_energy(macs, weight_reads + kv_writes, prompt_tokens)
        return time, energy

    def _prefill_amortisation(self) -> float:
        """Tokens over which one weight read is amortised during prefill."""
        # Chunked prefill processes ~512-token chunks per weight pass.
        return 512.0

    def decode_time_and_energy(
        self, decode_tokens: float, context_length: float, batch_size: int
    ) -> tuple[float, EnergyBreakdown]:
        """Time/energy to generate ``decode_tokens`` tokens at a given batch size."""
        hw = self.hardware
        steps = decode_tokens / max(1, batch_size)
        macs_per_step = batch_size * (
            self.arch.num_blocks * self.arch.block_weight_params
            + self.arch.num_blocks * self.arch.num_heads * self.arch.head_dim * context_length
        )
        compute_time_per_step = macs_per_step / (
            hw.peak_macs_per_s * hw.decode_efficiency
        )
        # Every decode step reads each in-batch sequence's whole KV cache.
        kv_bytes_per_step = batch_size * context_length * self.kv_bytes_per_token()
        if hw.attention_in_memory:
            # PIM keeps the KV operands in memory but commands, scores and
            # context results still cross the channel (~30% of the KV volume).
            effective_kv_bytes = PIM_CHANNEL_TRAFFIC_FRACTION * kv_bytes_per_step
        else:
            effective_kv_bytes = kv_bytes_per_step
        memory_bytes_per_step = self.weight_bytes() + effective_kv_bytes
        memory_time_per_step = memory_bytes_per_step / (
            hw.memory_bandwidth_bytes_per_s * hw.memory_bandwidth_efficiency
        )
        step_time = max(compute_time_per_step, memory_time_per_step)
        step_time += self._interconnect_time(batch_size)
        total_time = steps * step_time
        total_memory_bytes = steps * (self.weight_bytes() + kv_bytes_per_step)
        total_macs = steps * macs_per_step
        energy = self._phase_energy(total_macs, total_memory_bytes, decode_tokens)
        return total_time, energy

    # ------------------------------------------------------------------ shared

    def _interconnect_time(self, tokens: float) -> float:
        """All-reduce time for tensor parallelism, partially overlapped."""
        hw = self.hardware
        if hw.tensor_parallel <= 1:
            return 0.0
        volume = (
            tokens
            * 2.0  # two all-reduces per block (attention out + FFN out)
            * self.arch.num_blocks
            * self.arch.hidden_size
            * self.hardware.kv_bytes_per_element
            * 2.0
            * (hw.tensor_parallel - 1)
            / hw.tensor_parallel
        )
        raw = volume / hw.interconnect_bandwidth_bytes_per_s
        return raw * (1.0 - self.config.interconnect_overlap)

    def _interconnect_bytes(self, tokens: float) -> float:
        hw = self.hardware
        if hw.tensor_parallel <= 1:
            return 0.0
        return (
            tokens
            * 2.0
            * self.arch.num_blocks
            * self.arch.hidden_size
            * self.hardware.kv_bytes_per_element
            * 2.0
            * (hw.tensor_parallel - 1)
            / hw.tensor_parallel
        )

    def _phase_energy(
        self, macs: float, memory_bytes: float, tokens: float
    ) -> EnergyBreakdown:
        hw = self.hardware
        compute = macs * hw.mac_energy_j
        # Activations and operands staged through on-chip SRAM/caches.
        on_chip = memory_bytes * hw.on_chip_energy_per_byte_j
        if hw.memory_is_on_chip:
            on_chip += memory_bytes * hw.memory_energy_per_byte_j
            off_chip = 0.0
        else:
            off_chip = memory_bytes * hw.memory_energy_per_byte_j
        communication = self._interconnect_bytes(tokens) * hw.interconnect_energy_per_byte_j
        return EnergyBreakdown(
            compute_j=compute,
            on_chip_memory_j=on_chip,
            off_chip_memory_j=off_chip,
            communication_j=communication,
        )

    # ------------------------------------------------------------------ serving

    def serve(self, trace: Trace, workload_name: str | None = None) -> RunResult:
        """Serve a trace and return aggregate throughput/energy results."""
        total_prefill = float(trace.total_prefill_tokens)
        total_decode = float(trace.total_decode_tokens)
        mean_prefill = trace.mean_prefill_length
        mean_decode = trace.mean_decode_length
        avg_context = mean_prefill + mean_decode / 2.0
        batch = self.max_batch_size(mean_prefill + mean_decode)

        prefill_time, prefill_energy = self.prefill_time_and_energy(
            total_prefill, mean_prefill / 2.0
        )
        decode_time, decode_energy = self.decode_time_and_energy(
            total_decode, avg_context, batch
        )
        total_time = prefill_time + decode_time
        energy = prefill_energy + decode_energy
        if self.config.idle_power_per_device_w > 0:
            static = (
                self.config.idle_power_per_device_w
                * self.hardware.num_devices
                * total_time
            )
            energy = energy + EnergyBreakdown(compute_j=static)

        output_tokens = int(total_decode)
        # Compute-side utilisation: achieved MACs / (peak * time).
        total_macs = total_prefill * self.arch.num_blocks * self.arch.block_weight_params
        total_macs += total_decode * self.arch.num_blocks * self.arch.block_weight_params
        utilization = min(
            1.0, total_macs / (self.hardware.peak_macs_per_s * max(total_time, 1e-12))
        )
        return RunResult(
            system=self.hardware.name,
            model=self.arch.name,
            workload=workload_name or trace.spec.name,
            total_time_s=total_time,
            total_tokens=int(total_prefill + total_decode),
            output_tokens=output_tokens,
            energy=energy,
            utilization=utilization,
            extra={"batch_size": batch, "num_devices": self.hardware.num_devices},
        )


def tops(value: float) -> float:
    """Convenience: convert TOPS (ops/s) to MAC/s."""
    return value * TERA / 2.0
