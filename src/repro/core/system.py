"""Public facade of the Ouroboros reproduction.

:class:`OuroborosSystem` is the entry point a downstream user interacts with::

    from repro import OuroborosSystem, get_model, generate_trace

    system = OuroborosSystem(get_model("llama-13b"))
    trace = generate_trace("wikitext2", num_requests=200)
    result = system.serve(trace)
    print(result.throughput_tokens_per_s, result.energy_per_output_token_j)

The facade wraps the builder in :mod:`repro.sim.engine`: it samples wafer
defects, runs the inter-core mapping, sets up the distributed KV-cache manager
and exposes serving, fault-injection and introspection APIs.
"""

from __future__ import annotations

from dataclasses import replace

from ..errors import ConfigurationError
from ..mapping.fault_tolerance import FaultToleranceManager, RemappingResult
from ..models.architectures import ModelArch, get_model
from ..results import RunResult
from ..sim.engine import (
    BuiltOuroboros,
    KVPolicy,
    MappingStrategy,
    OuroborosSystemConfig,
    PipelineMode,
    _build_system,
    default_system_config,
    required_wafers,
)
from ..workload.generator import Trace
from ..workload.streams import StreamingTrace


class OuroborosSystem:
    """A wafer-scale SRAM CIM deployment serving one model."""

    def __init__(
        self,
        model: ModelArch | str,
        config: OuroborosSystemConfig | None = None,
        auto_scale_wafers: bool = True,
    ) -> None:
        self.arch = get_model(model) if isinstance(model, str) else model
        config = config if config is not None else default_system_config()
        if auto_scale_wafers:
            needed = required_wafers(self.arch, config)
            if needed > config.num_wafers:
                config = replace(config, num_wafers=needed)
        self.config = config
        self._built: BuiltOuroboros | None = None

    # ------------------------------------------------------------------ build

    @property
    def name(self) -> str:
        """Display name (the ``ServingSystem`` protocol)."""
        return "Ouroboros"

    @property
    def built(self) -> BuiltOuroboros:
        """The underlying built system (constructed lazily on first use)."""
        if self._built is None:
            self._built = _build_system(self.arch, self.config)
        return self._built

    def rebuild(self) -> BuiltOuroboros:
        """Force a rebuild (e.g. after changing defect seeds)."""
        self._built = _build_system(self.arch, self.config)
        return self._built

    # ---------------------------------------------------------------- serving

    def serve(
        self,
        trace: Trace | StreamingTrace,
        workload_name: str | None = None,
        *,
        fault_plan=None,
        suspend_at_epoch: int | None = None,
        resume_from=None,
        arrival_feed=None,
        scalar: bool = False,
    ) -> RunResult:
        """Serve a request trace and return throughput / energy results.

        ``fault_plan`` injects runtime faults; ``suspend_at_epoch`` /
        ``resume_from`` checkpoint and resume the run; ``arrival_feed``
        ingests requests live into an initially empty ``trace`` (the daemon
        path); ``scalar`` runs the scalar reference engine (see
        :meth:`repro.sim.engine.BuiltOuroboros.serve`).
        """
        return self.built.serve(
            trace,
            workload_name,
            fault_plan=fault_plan,
            suspend_at_epoch=suspend_at_epoch,
            resume_from=resume_from,
            arrival_feed=arrival_feed,
            scalar=scalar,
        )

    # ------------------------------------------------------------ introspection

    def summary(self) -> dict[str, float]:
        """Key facts about the built deployment (core counts, KV capacity...)."""
        return self.built.summary()

    @property
    def num_wafers(self) -> int:
        return self.config.num_wafers

    @property
    def pipeline_depth(self) -> int:
        return 6 * self.arch.num_blocks

    def fits_single_wafer(self) -> bool:
        return required_wafers(self.arch, self.config) == 1

    # ------------------------------------------------------------ fault injection

    def fault_tolerance_manager(self) -> FaultToleranceManager:
        """Build a fault-tolerance manager bound to wafer 0's mapping."""
        built = self.built
        if not built.mappings:
            raise ConfigurationError("system has no mapping to protect")
        from ..kvcache.manager import DistributedKVCacheManager

        kv_manager = built.kv_manager
        if not isinstance(kv_manager, DistributedKVCacheManager):
            kv_manager = None
        return FaultToleranceManager(
            built.wafers[0], built.mappings[0], kv_manager=kv_manager
        )

    def inject_core_failure(self, core_id: int) -> RemappingResult:
        """Fail one core of wafer 0 and return the recovery action taken."""
        return self.fault_tolerance_manager().fail_core(core_id)


__all__ = [
    "OuroborosSystem",
    "OuroborosSystemConfig",
    "PipelineMode",
    "KVPolicy",
    "MappingStrategy",
]
