"""Tests for the ablation configuration helpers."""

import pytest

from repro.baselines.multi_die import ABLATION_STEPS, ablation_config, ablation_system
from repro.sim.engine import KVPolicy, MappingStrategy, PipelineMode


class TestAblationConfigs:
    def test_step_order(self):
        assert ABLATION_STEPS[0] == "Baseline"
        assert ABLATION_STEPS[-1] == "+KV Cache"
        assert len(ABLATION_STEPS) == 6

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError):
            ablation_config("+Everything")

    def test_baseline_strips_all_features(self):
        config = ablation_config("Baseline")
        assert not config.wafer_integration
        assert not config.cim_enabled
        assert config.pipeline_mode is PipelineMode.SEQUENCE_GRAINED
        assert config.mapping_strategy is MappingStrategy.NAIVE
        assert config.kv_policy is KVPolicy.STATIC

    def test_final_step_enables_everything(self):
        config = ablation_config("+KV Cache")
        assert config.wafer_integration
        assert config.cim_enabled
        assert config.pipeline_mode is PipelineMode.TOKEN_GRAINED
        assert config.mapping_strategy is MappingStrategy.OPTIMIZED
        assert config.kv_policy is KVPolicy.DYNAMIC

    def test_steps_are_cumulative(self):
        enabled_counts = []
        for step in ABLATION_STEPS:
            config = ablation_config(step)
            enabled = sum(
                [
                    config.wafer_integration,
                    config.cim_enabled,
                    config.pipeline_mode is PipelineMode.TOKEN_GRAINED,
                    config.mapping_strategy is MappingStrategy.OPTIMIZED,
                    config.kv_policy is KVPolicy.DYNAMIC,
                ]
            )
            enabled_counts.append(enabled)
        assert enabled_counts == [0, 1, 2, 3, 4, 5]

    def test_ablation_system_constructor(self, tiny_arch):
        system = ablation_system(tiny_arch, "+CIM")
        assert system.config.cim_enabled
        assert system.config.pipeline_mode is PipelineMode.SEQUENCE_GRAINED

