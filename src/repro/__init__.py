"""Ouroboros reproduction: wafer-scale SRAM CIM with token-grained pipelining.

This package re-implements, in pure Python, the system described in
"Ouroboros: Wafer-Scale SRAM CIM with Token-Grained Pipelining for Large
Language Model Inference" (ASPLOS 2026): the hardware hierarchy (crossbar ->
CIM core -> die -> wafer), the token-grained pipeline, the distributed dynamic
KV-cache manager, the communication-aware fault-tolerant mapping, an
end-to-end analytical simulator, and the baseline systems the paper compares
against.  The :mod:`repro.experiments` subpackage regenerates every table and
figure of the paper's evaluation.
"""

from .api import (
    PRESETS,
    SYSTEM_REGISTRY,
    DeploymentSpec,
    ServingSystem,
    SLOTarget,
    SystemEntry,
    TenantSpec,
    build_deployment,
    deployment,
    get_system,
    preset,
    register_system,
    serve,
)
from .core.system import OuroborosSystem
from .models.architectures import (
    MODEL_REGISTRY,
    AttentionMask,
    ModelArch,
    generic_llm,
    get_model,
)
from .results import EnergyBreakdown, LatencyStats, RunResult, TenantStats
from .sim.engine import (
    KVPolicy,
    MappingStrategy,
    OuroborosSystemConfig,
    PipelineMode,
    default_system_config,
    required_wafers,
)
from .workload.generator import PAPER_WORKLOADS, Trace, generate_trace, make_workload

__version__ = "1.1.0"

__all__ = [
    # unified serving API
    "DeploymentSpec",
    "TenantSpec",
    "SLOTarget",
    "ServingSystem",
    "SystemEntry",
    "SYSTEM_REGISTRY",
    "PRESETS",
    "deployment",
    "preset",
    "serve",
    "build_deployment",
    "get_system",
    "register_system",
    # core system and knobs
    "OuroborosSystem",
    "OuroborosSystemConfig",
    "PipelineMode",
    "KVPolicy",
    "MappingStrategy",
    "default_system_config",
    "required_wafers",
    "ModelArch",
    "AttentionMask",
    "MODEL_REGISTRY",
    "get_model",
    "generic_llm",
    "EnergyBreakdown",
    "LatencyStats",
    "RunResult",
    "TenantStats",
    "Trace",
    "generate_trace",
    "make_workload",
    "PAPER_WORKLOADS",
    "__version__",
]
