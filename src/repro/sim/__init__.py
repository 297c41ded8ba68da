"""End-to-end simulation: the system builder and runtime fault injection.

Result types live in :mod:`repro.results`; energy is accumulated by the
pipeline cost model (:mod:`repro.pipeline.stages`) and the baselines
(:mod:`repro.baselines.common`) directly into
:class:`~repro.results.EnergyBreakdown`.
"""

from .engine import (
    BuiltOuroboros,
    KVPolicy,
    MappingStrategy,
    OuroborosSystemConfig,
    PipelineMode,
    required_wafers,
)
from .faults import FaultEvent, FaultInjector, FaultPlan, make_fault_plan

__all__ = [
    "BuiltOuroboros",
    "OuroborosSystemConfig",
    "PipelineMode",
    "KVPolicy",
    "MappingStrategy",
    "required_wafers",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "make_fault_plan",
]
