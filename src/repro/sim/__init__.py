"""End-to-end simulation: system builder, energy accounting and result types."""

from .accounting import EnergyAccountant
from .engine import (
    BuiltOuroboros,
    KVPolicy,
    MappingStrategy,
    OuroborosSystemConfig,
    PipelineMode,
    required_wafers,
)
from .faults import FaultEvent, FaultInjector, FaultPlan, make_fault_plan
from .results import EnergyBreakdown, RunResult

__all__ = [
    "EnergyAccountant",
    "BuiltOuroboros",
    "OuroborosSystemConfig",
    "PipelineMode",
    "KVPolicy",
    "MappingStrategy",
    "required_wafers",
    "EnergyBreakdown",
    "RunResult",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "make_fault_plan",
]
