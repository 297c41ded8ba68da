"""End-to-end Ouroboros system builder and simulator.

:class:`OuroborosBuilder` turns a model architecture plus an
:class:`OuroborosSystemConfig` into a *built system*: the wafer(s) with a
sampled defect map, the inter-core weight mapping, the KV-cache manager owning
the leftover cores, and the per-token cost model parameterised by the mapping's
average hop distance.  :meth:`BuiltOuroboros.serve` then runs a request trace
through the selected pipeline strategy and returns a :class:`RunResult`.

Multi-wafer scaling (Section 6.8) is modelled by partitioning the model's
blocks across wafers; the only cross-wafer traffic is the single token-sized
activation hand-off per wafer boundary, which is charged on the optical
Ethernet ports.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from ..errors import ConfigurationError, MappingError
from ..hardware.config import WaferConfig
from ..hardware.energy import EnergyModel
from ..hardware.wafer import Wafer
from ..hardware.yieldmodel import DefectMap, sample_defect_map
from ..kvcache.manager import DistributedKVCacheManager
from ..kvcache.static import StaticKVCacheManager
from ..mapping.fault_tolerance import FaultToleranceManager, RemappingResult
from ..mapping.intercore import WaferMapping, map_model
from ..models.architectures import ModelArch
from ..pipeline.blocked import BlockedTokenGrainedPipeline
from ..pipeline.checkpoint import EngineCheckpoint
from ..pipeline.engine import PipelineConfig, PipelineEngine
from ..pipeline.sequence_grained import SequenceGrainedPipeline
from ..pipeline.stages import TokenCostModel
from ..pipeline.tgp import TokenGrainedPipeline
from ..results import RunResult
from ..workload.generator import Trace
from ..workload.streams import StreamingTrace
from ..workload.scheduler import InterSequenceScheduler


class PipelineMode(enum.Enum):
    """Which pipeline strategy the built system uses."""

    TOKEN_GRAINED = "tgp"
    SEQUENCE_GRAINED = "sequence"
    BLOCKED = "blocked"
    AUTO = "auto"


class KVPolicy(enum.Enum):
    """KV-cache management policy."""

    DYNAMIC = "dynamic"
    STATIC = "static"


class MappingStrategy(enum.Enum):
    """Inter-core mapping quality used by the built system."""

    OPTIMIZED = "optimized"   # greedy + annealing (MIQP substitute)
    GREEDY = "greedy"          # locality-aware but unrefined
    NAIVE = "naive"            # ignore locality (tensor/pipeline parallel style)


@dataclass(frozen=True)
class OuroborosSystemConfig:
    """All knobs of an Ouroboros deployment."""

    wafer: WaferConfig = field(default_factory=WaferConfig)
    num_wafers: int = 1
    pipeline_mode: PipelineMode = PipelineMode.AUTO
    kv_policy: KVPolicy = KVPolicy.DYNAMIC
    kv_threshold: float = 0.1
    mapping_strategy: MappingStrategy = MappingStrategy.OPTIMIZED
    anneal_iterations: int = 100
    defect_seed: int | None = 0
    model_defects: bool = True
    cim_enabled: bool = True
    lut_optimized: bool = False
    #: True = stitched wafer-scale integration; False = the same dies packaged
    #: separately and connected by NVLink-class links (ablation "Baseline")
    wafer_integration: bool = True
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    energy_model: EnergyModel = field(default_factory=EnergyModel)

    def __post_init__(self) -> None:
        if self.num_wafers <= 0:
            raise ConfigurationError("num_wafers must be positive")


@dataclass
class BuiltOuroboros:
    """A fully constructed Ouroboros deployment, ready to serve traces."""

    arch: ModelArch
    config: OuroborosSystemConfig
    wafers: list[Wafer]
    mappings: list[WaferMapping]
    kv_manager: DistributedKVCacheManager | StaticKVCacheManager
    cost_model: TokenCostModel
    defect_maps: list[DefectMap | None]

    # ------------------------------------------------------------------ summary

    @property
    def name(self) -> str:
        """Display name (the ``ServingSystem`` protocol)."""
        return "Ouroboros"

    @property
    def num_weight_cores(self) -> int:
        return sum(mapping.num_weight_cores for mapping in self.mappings)

    @property
    def num_kv_cores(self) -> int:
        return sum(mapping.num_kv_cores for mapping in self.mappings)

    @property
    def total_cores(self) -> int:
        return sum(wafer.num_cores for wafer in self.wafers)

    @property
    def healthy_cores(self) -> int:
        return sum(wafer.num_healthy_cores for wafer in self.wafers)

    def summary(self) -> dict[str, float]:
        return {
            "model": self.arch.name,
            "wafers": len(self.wafers),
            "total_cores": self.total_cores,
            "healthy_cores": self.healthy_cores,
            "weight_cores": self.num_weight_cores,
            "kv_cores": self.num_kv_cores,
            "pipeline_depth": 6 * self.arch.num_blocks,
            "average_hops": self.cost_model.average_hops,
            "kv_capacity_gib": getattr(self.kv_manager, "capacity_bytes", 0) / (1 << 30),
        }

    # ------------------------------------------------------------------ serving

    def make_pipeline(self) -> PipelineEngine:
        """Construct a fresh pipeline engine bound to a fresh KV manager."""
        kv_manager = _build_kv_manager(self.arch, self.config, self.mappings)
        # Admission control: do not admit wildly more sequences than the KV
        # cache can hold at a typical final context length, otherwise the
        # decode-phase growth of an over-committed cache thrashes (evict /
        # re-prefill cycles) instead of making forward progress.
        planning_context = max(256, self.arch.max_context // 2)
        capacity_estimate = kv_manager.max_concurrent_sequences(planning_context)
        max_active = max(2, int(capacity_estimate * 1.25))
        if self.config.pipeline.max_active_sequences is not None:
            # Explicit continuous-batching limit: never loosens the
            # KV-capacity-derived bound, only tightens it.
            max_active = min(max_active, self.config.pipeline.max_active_sequences)
        pipeline_config = self.config.pipeline
        scheduler = InterSequenceScheduler(
            kv_manager,
            max_active_sequences=max_active,
            policy=pipeline_config.make_scheduling_policy(),
            max_queue_depth=pipeline_config.max_queue_depth,
            shed_deadline=pipeline_config.shed_deadline,
            shed_headroom_s=pipeline_config.shed_headroom_s,
            shed_retries=pipeline_config.shed_retries,
            shed_backoff_s=pipeline_config.shed_backoff_s,
            preemptive=pipeline_config.preemptive,
        )
        mode = self.config.pipeline_mode
        if mode is PipelineMode.AUTO:
            mode = (
                PipelineMode.TOKEN_GRAINED
                if self.arch.is_decoder_only
                else PipelineMode.BLOCKED
            )
        engine_cls: type[PipelineEngine]
        if mode is PipelineMode.TOKEN_GRAINED:
            engine_cls = TokenGrainedPipeline
        elif mode is PipelineMode.SEQUENCE_GRAINED:
            engine_cls = SequenceGrainedPipeline
        else:
            engine_cls = BlockedTokenGrainedPipeline
        engine = engine_cls(
            self.arch,
            self.cost_model,
            kv_manager,
            config=self.config.pipeline,
            scheduler=scheduler,
        )
        engine.fault_recovery = self._make_fault_recovery(kv_manager)
        return engine

    def _make_fault_recovery(self, kv_manager):
        """Weight-core recovery hook for the fault injector.

        Bound to wafer 0's mapping and the *per-run* KV manager (wafer 0's
        core-id offset is zero, so local and global KV core ids coincide):
        each call fails one still-healthy weight core — resolved modulo their
        count so abstract fault targets stay valid after earlier failures —
        and routes the replacement chain through
        :class:`~repro.mapping.fault_tolerance.FaultToleranceManager`.
        Returns ``None`` once no healthy weight core remains.  The hook is
        only available with the dynamic KV policy: the replacement chain
        reclaims a KV core, which the static baseline cannot model.
        """
        if not isinstance(kv_manager, DistributedKVCacheManager):
            return None
        manager: FaultToleranceManager | None = None

        def recover(target: int) -> RemappingResult | None:
            nonlocal manager
            if manager is None:  # built at the first weight-core fault
                manager = FaultToleranceManager(
                    self.wafers[0], self.mappings[0], kv_manager=kv_manager
                )
            healthy = sorted(manager.weight_cores - manager.failed_cores)
            if not healthy:
                return None
            return manager.fail_core(healthy[target % len(healthy)])

        return recover

    def serve(
        self,
        trace: Trace | StreamingTrace,
        workload_name: str | None = None,
        *,
        fault_plan=None,
        suspend_at_epoch: int | None = None,
        resume_from: EngineCheckpoint | None = None,
        arrival_feed=None,
        scalar: bool = False,
    ) -> RunResult | EngineCheckpoint:
        """Serve a trace and return throughput/energy results.

        ``fault_plan`` injects runtime faults during the run;
        ``suspend_at_epoch`` returns an :class:`EngineCheckpoint` instead of a
        result once that epoch is reached (the wafer-level cost adjustments
        and summary are applied when the resumed run finishes, not twice), and
        ``resume_from`` continues a suspended run bit for bit.

        ``arrival_feed`` delivers requests live (the daemon path): ``trace``
        then starts empty and accumulates the ingested requests.  The feed
        only controls *when* requests enter the admission queue, never how
        they are served, so draining a replayed trace reproduces the batch
        result bit for bit; a feed-requested checkpoint-and-stop returns the
        :class:`EngineCheckpoint` like a suspended run.  ``scalar`` selects
        the scalar reference engine path (parity tests).
        """
        engine = self.make_pipeline()
        runner = engine.run_scalar if scalar else engine.run
        outcome = runner(
            trace,
            workload_name,
            fault_plan=fault_plan,
            suspend_at_epoch=suspend_at_epoch,
            resume_from=resume_from,
            arrival_feed=arrival_feed,
        )
        if isinstance(outcome, EngineCheckpoint):
            return outcome
        result = self._add_inter_wafer_costs(outcome, trace)
        result.extra.update(self.summary())
        return result

    def _add_inter_wafer_costs(
        self, result: RunResult, trace: Trace | StreamingTrace
    ) -> RunResult:
        crossings = len(self.wafers) - 1
        if crossings <= 0:
            return result
        em = self.config.energy_model
        bytes_per_token = self.arch.activation_bytes_per_token
        total_bytes = float(result.total_tokens) * bytes_per_token * crossings
        result.energy.communication_j += total_bytes * em.optical_j_per_byte
        bandwidth = self.config.wafer.inter_wafer_bandwidth_bytes_per_s
        # The hand-off is pipelined with compute; only charge the serialisation
        # of the crossing if it exceeds the available optical bandwidth budget.
        transfer_time = total_bytes / bandwidth
        if transfer_time > result.total_time_s:
            result.total_time_s = transfer_time
        return result


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


def _mapping_average_hops(mapping: WaferMapping, strategy: MappingStrategy) -> float:
    hops = mapping.activation_route_hops
    if strategy is MappingStrategy.NAIVE:
        # Ignoring locality roughly doubles the average transfer distance and
        # pushes a larger share of traffic across die boundaries.
        return max(hops * 2.5, hops + 4.0)
    if strategy is MappingStrategy.GREEDY:
        return hops * 1.15
    return hops


def _build_kv_manager(
    arch: ModelArch,
    config: OuroborosSystemConfig,
    mappings: list[WaferMapping],
) -> DistributedKVCacheManager | StaticKVCacheManager:
    kv_core_ids: list[int] = []
    for index, mapping in enumerate(mappings):
        offset = index * 10**6  # disjoint core-id space per wafer
        cores = mapping.kv_core_ids
        kv_core_ids.extend([core + offset for core in cores] if offset else cores)
    if not kv_core_ids:
        raise MappingError("mapping left no cores for the KV cache")
    if config.kv_policy is KVPolicy.STATIC:
        return StaticKVCacheManager(
            arch,
            kv_core_ids,
            reserved_context=arch.max_context,
        )
    return DistributedKVCacheManager(
        arch,
        kv_core_ids,
        threshold=config.kv_threshold,
    )


def default_system_config() -> OuroborosSystemConfig:
    """The one place default Ouroboros knobs come from.

    :class:`repro.api.DeploymentSpec` and
    :class:`~repro.core.system.OuroborosSystem` use this as their ``config``
    default instead of each constructing their own ``OuroborosSystemConfig()``.
    """
    return OuroborosSystemConfig()


def _build_system(arch: ModelArch, config: OuroborosSystemConfig) -> BuiltOuroboros:
    """Build a ready-to-serve Ouroboros deployment for ``arch``."""
    wafers: list[Wafer] = []
    defect_maps: list[DefectMap | None] = []
    for index in range(config.num_wafers):
        defect_map = None
        if config.model_defects:
            seed = None if config.defect_seed is None else config.defect_seed + index
            defect_map = sample_defect_map(config.wafer, seed=seed)
        wafer = Wafer(config.wafer, defect_map=defect_map, energy=config.energy_model)
        wafers.append(wafer)
        defect_maps.append(defect_map)

    # Partition the model's blocks across wafers (contiguous pipeline spans).
    blocks_per_wafer = _partition_blocks(arch, config, wafers)
    anneal = (
        config.anneal_iterations
        if config.mapping_strategy is MappingStrategy.OPTIMIZED
        else 0
    )
    mappings: list[WaferMapping] = []
    for wafer, blocks in zip(wafers, blocks_per_wafer):
        sub_arch = replace(arch, num_blocks=blocks) if blocks != arch.num_blocks else arch
        mappings.append(map_model(sub_arch, wafer, anneal_iterations=anneal))

    kv_manager = _build_kv_manager(arch, config, mappings)

    combined_hops = sum(
        _mapping_average_hops(mapping, config.mapping_strategy) for mapping in mappings
    ) / len(mappings)
    energy_model = config.energy_model
    die_crossing_fraction = 0.05
    transfer_bandwidth_scale = 1.0
    # Weight-reuse credit for non-CIM datapaths: sequence-grained scheduling
    # amortises each SRAM weight read over a whole sequence, token-grained
    # scheduling re-reads per token (Section 6.5's red bars).
    if config.pipeline_mode is PipelineMode.SEQUENCE_GRAINED:
        weight_reuse_tokens = 512.0
    else:
        weight_reuse_tokens = 1.0
    if not config.wafer_integration:
        # Separately packaged dies: every die boundary becomes an NVLink-class
        # SerDes crossing, and the die-to-die links are slower than stitched
        # on-wafer links.
        energy_model = dataclasses_replace_energy_for_multi_die(energy_model)
        die_crossing_fraction = 0.35
        transfer_bandwidth_scale = 0.5
    cost_model = TokenCostModel(
        arch=arch,
        wafer_config=config.wafer,
        energy_model=energy_model,
        average_hops=max(1.0, combined_hops),
        die_crossing_fraction=die_crossing_fraction,
        cim_enabled=config.cim_enabled,
        lut_optimized=config.lut_optimized,
        transfer_bandwidth_scale=transfer_bandwidth_scale,
        weight_reuse_tokens=weight_reuse_tokens,
    )
    return BuiltOuroboros(
        arch=arch,
        config=config,
        wafers=wafers,
        mappings=mappings,
        kv_manager=kv_manager,
        cost_model=cost_model,
        defect_maps=defect_maps,
    )


def dataclasses_replace_energy_for_multi_die(energy_model: EnergyModel) -> EnergyModel:
    """Energy table for the non-wafer (multi-die, NVLink-connected) ablation."""
    return replace(
        energy_model,
        die_crossing_j_per_byte=energy_model.nvlink_j_per_byte,
    )


def _partition_blocks(
    arch: ModelArch, config: OuroborosSystemConfig, wafers: list[Wafer]
) -> list[int]:
    """Split the model's transformer blocks across the available wafers."""
    num_wafers = len(wafers)
    if num_wafers == 1:
        return [arch.num_blocks]
    base = arch.num_blocks // num_wafers
    remainder = arch.num_blocks % num_wafers
    split = [base + (1 if i < remainder else 0) for i in range(num_wafers)]
    if any(count == 0 for count in split):
        raise ConfigurationError(
            f"{arch.name} has too few blocks to span {num_wafers} wafers"
        )
    return split


def required_wafers(arch: ModelArch, config: OuroborosSystemConfig | None = None) -> int:
    """Minimum wafer count whose SRAM holds the model weights plus KV headroom."""
    config = config if config is not None else default_system_config()
    per_wafer = config.wafer.sram_bytes * 0.80  # keep ~20% for KV/activations
    return max(1, math.ceil(arch.total_weight_bytes / per_wafer))
