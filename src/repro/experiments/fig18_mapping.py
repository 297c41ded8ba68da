"""Fig. 18 -- normalized transmission volume of the mapping schemes.

Compares the per-token on-wafer communication volume of three execution
schemes for LLaMA-13B/32B/65B: Cerebras's default SUMMA + pipelined
all-reduce, a WaferLLM-style locality-aware placement, and the Ouroboros
MIQP-style mapping.  The paper reports a 45% average reduction versus Cerebras
and 18% versus WaferLLM, with the advantage growing with model size.

LLaMA-65B does not fit one wafer; because every transformer block is identical,
its per-block volume is computed on a single-wafer mapping of as many blocks as
fit and scaled to the full block count (the paper's multi-wafer mapping does the
same per-wafer placement twice).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..hardware.wafer import Wafer
from ..hardware.yieldmodel import sample_defect_map
from ..mapping.baselines import (
    TransmissionVolume,
    cerebras_summa_volume,
    ouroboros_volume,
    waferllm_volume,
)
from ..models.architectures import ModelArch
from ..models.layers import cores_per_block
from .common import DEFAULT_SETTINGS, ExperimentSettings, FigureResult, resolve_model

MAPPING_MODELS = ("llama-13b", "llama-32b", "llama-65b")
SCHEMES = ("Cerebras", "WaferLLM", "Ours")


@dataclass
class MappingResult(FigureResult):
    volumes: dict[tuple[str, str], TransmissionVolume] = field(default_factory=dict)

    def normalized(self, model: str) -> dict[str, float]:
        reference = self.volumes[(model, "Cerebras")].byte_hops_per_token
        return {
            scheme: self.volumes[(model, scheme)].byte_hops_per_token / reference
            for scheme in SCHEMES
        }

    def average_reduction_vs(self, scheme: str, models: tuple[str, ...] | None = None) -> float:
        if models is None:
            models = tuple(sorted({model for model, _ in self.volumes}))
        ratios = []
        for model in models:
            reference = self.volumes[(model, scheme)].byte_hops_per_token
            ours = self.volumes[(model, "Ours")].byte_hops_per_token
            if reference > 0:
                ratios.append(ours / reference)
        if not ratios:
            return 0.0
        return 1.0 - sum(ratios) / len(ratios)


def _fit_arch_and_scale(arch: ModelArch, wafer: Wafer) -> tuple[ModelArch, float]:
    """Cap the block count to what one wafer holds; return the volume scale."""
    capacity = wafer.config.die.core.weight_capacity_bytes
    per_block = cores_per_block(arch, capacity)
    budget = int(wafer.num_healthy_cores * 0.9)
    max_blocks = max(1, budget // per_block)
    if arch.num_blocks <= max_blocks:
        return arch, 1.0
    scaled = replace(arch, num_blocks=max_blocks)
    return scaled, arch.num_blocks / max_blocks


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    models: tuple[str, ...] = MAPPING_MODELS,
) -> MappingResult:
    result = MappingResult(
        figure="Fig. 18",
        description="Normalized per-token transmission volume of mapping schemes",
    )
    defect_map = (
        sample_defect_map(Wafer().config, seed=settings.seed)
        if settings.model_defects
        else None
    )
    wafer = Wafer(defect_map=defect_map)
    for model in models:
        arch = resolve_model(model)
        fit_arch, scale = _fit_arch_and_scale(arch, wafer)
        cerebras = cerebras_summa_volume(fit_arch, wafer)
        waferllm = waferllm_volume(fit_arch, wafer)
        ours = ouroboros_volume(
            fit_arch, wafer, anneal_iterations=settings.anneal_iterations, seed=settings.seed
        )
        for scheme, volume in (("Cerebras", cerebras), ("WaferLLM", waferllm), ("Ours", ours)):
            scaled = TransmissionVolume(
                scheme=scheme,
                byte_hops_per_token=volume.byte_hops_per_token * scale,
                bytes_per_token=volume.bytes_per_token * scale,
            )
            result.volumes[(model, scheme)] = scaled
    for model in models:
        normalized = result.normalized(model)
        row = {"model": model}
        row.update(normalized)
        result.rows_data.append(row)
    return result


def mapping_quality_summary(result: MappingResult) -> dict[str, float]:
    """The paper's headline mapping numbers: reduction vs Cerebras and WaferLLM."""
    return {
        "reduction_vs_cerebras": result.average_reduction_vs("Cerebras"),
        "reduction_vs_waferllm": result.average_reduction_vs("WaferLLM"),
    }
