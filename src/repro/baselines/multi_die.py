"""The ablation study's starting-point system (Section 6.5).

The paper's ablation baseline keeps the same silicon as Ouroboros but packages
the 63 dies separately, connects them with NVLink-class links, runs tensor
parallelism 8 x pipeline parallelism 8 with a *sequence-grained* pipeline,
reads weights out of SRAM instead of computing in memory, ignores placement
locality, and manages the KV cache statically.  Each "+X" ablation point then
re-enables one Ouroboros feature on top of this configuration.

This module provides convenience constructors for those configurations so the
Fig. 15 experiment (and users exploring the design space) can build them in
one call.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.system import OuroborosSystem
from ..models.architectures import ModelArch
from ..pipeline.engine import PipelineConfig
from ..sim.engine import (
    KVPolicy,
    MappingStrategy,
    OuroborosSystemConfig,
    PipelineMode,
)

#: the order in which the ablation re-enables Ouroboros features
ABLATION_STEPS = ("Baseline", "+Wafer", "+CIM", "+TGP", "+Mapping", "+KV Cache")


def ablation_config(
    step: str,
    pipeline: PipelineConfig | None = None,
    anneal_iterations: int = 50,
) -> OuroborosSystemConfig:
    """System configuration for one cumulative ablation step.

    ``step`` must be one of :data:`ABLATION_STEPS`; each step enables every
    feature of the previous steps plus one more, mirroring Fig. 15.
    """
    if step not in ABLATION_STEPS:
        raise ValueError(f"unknown ablation step {step!r}; expected one of {ABLATION_STEPS}")
    index = ABLATION_STEPS.index(step)
    config = OuroborosSystemConfig(
        wafer_integration=index >= 1,
        cim_enabled=index >= 2,
        pipeline_mode=PipelineMode.TOKEN_GRAINED if index >= 3 else PipelineMode.SEQUENCE_GRAINED,
        mapping_strategy=MappingStrategy.OPTIMIZED if index >= 4 else MappingStrategy.NAIVE,
        anneal_iterations=anneal_iterations if index >= 4 else 0,
        kv_policy=KVPolicy.DYNAMIC if index >= 5 else KVPolicy.STATIC,
        kv_threshold=0.1 if index >= 5 else 0.0,
    )
    if pipeline is not None:
        config = replace(config, pipeline=pipeline)
    return config


def ablation_system(
    arch: ModelArch, step: str, pipeline: PipelineConfig | None = None
) -> OuroborosSystem:
    """Build the system corresponding to one ablation step."""
    return OuroborosSystem(arch, ablation_config(step, pipeline))
