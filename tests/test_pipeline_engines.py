"""Tests for the pipeline engines: TGP, sequence-grained and blocked TGP."""

import pytest

from repro.kvcache.manager import DistributedKVCacheManager
from repro.pipeline.blocked import BlockedTokenGrainedPipeline
from repro.pipeline.engine import PipelineConfig
from repro.pipeline.sequence_grained import SequenceGrainedPipeline
from repro.pipeline.stages import TokenCostModel
from repro.pipeline.tgp import TokenGrainedPipeline
from repro.workload.requests import Request, Sequence

from .conftest import make_trace


def build_engine(engine_cls, arch, wafer_config, kv_cores=48, blocks_per_core=256, **kwargs):
    cost_model = TokenCostModel(arch=arch, wafer_config=wafer_config)
    kv_manager = DistributedKVCacheManager(
        arch, kv_core_ids=list(range(kv_cores)), blocks_per_core=blocks_per_core
    )
    config = PipelineConfig(chunk_tokens=32, context_quantum=32)
    return engine_cls(arch, cost_model, kv_manager, config=config, **kwargs)


class TestRunBasics:
    @pytest.mark.parametrize(
        "engine_cls",
        [TokenGrainedPipeline, SequenceGrainedPipeline, BlockedTokenGrainedPipeline],
    )
    def test_trace_completes(self, engine_cls, tiny_arch, small_wafer_config):
        engine = build_engine(engine_cls, tiny_arch, small_wafer_config)
        trace = make_trace(num_requests=6, prefill=24, decode=8)
        result = engine.run(trace)
        assert result.total_tokens == trace.total_tokens
        assert result.output_tokens == trace.total_decode_tokens
        assert result.total_time_s > 0
        assert engine.scheduler.all_done

    def test_energy_accumulated(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config)
        result = engine.run(make_trace(num_requests=4))
        assert result.energy.total_j > 0
        assert result.energy.off_chip_memory_j == 0.0

    def test_utilization_bounded(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config)
        result = engine.run(make_trace(num_requests=4))
        assert 0 < result.utilization <= 1.0

    def test_epoch_records_kept(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config)
        engine.run(make_trace(num_requests=4))
        assert engine.epochs
        assert all(record.tokens > 0 for record in engine.epochs)

    def test_deterministic(self, tiny_arch, small_wafer_config):
        a = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config).run(
            make_trace(num_requests=5)
        )
        b = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config).run(
            make_trace(num_requests=5)
        )
        assert a.total_time_s == pytest.approx(b.total_time_s)
        assert a.energy.total_j == pytest.approx(b.energy.total_j)

    def test_more_requests_take_longer(self, tiny_arch, small_wafer_config):
        short = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config).run(
            make_trace(num_requests=3)
        )
        long = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config).run(
            make_trace(num_requests=12)
        )
        assert long.total_time_s > short.total_time_s
        assert long.energy.total_j > short.energy.total_j


class TestStrategyComparison:
    def test_tgp_beats_sequence_grained_on_mixed_lengths(self, tiny_arch, small_wafer_config):
        """Variable-length workloads create bubbles only for the sequence pipeline."""
        from repro.workload.distributions import UniformLengthDistribution
        from repro.workload.generator import WorkloadSpec
        from repro.workload.streams import stream_from_spec

        spec = WorkloadSpec(
            name="mixed",
            distribution=UniformLengthDistribution(
                prefill_low=8, prefill_high=96, decode_low=4, decode_high=32
            ),
            num_requests=10,
            seed=3,
        )
        trace_a = stream_from_spec(spec).materialize()
        trace_b = stream_from_spec(spec).materialize()
        tgp = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config).run(trace_a)
        seq = build_engine(SequenceGrainedPipeline, tiny_arch, small_wafer_config).run(trace_b)
        assert tgp.throughput_tokens_per_s > seq.throughput_tokens_per_s

    def test_blocked_close_to_tgp_for_decoder_models(self, tiny_arch, small_wafer_config):
        trace_a = make_trace(num_requests=8, prefill=32, decode=16)
        trace_b = make_trace(num_requests=8, prefill=32, decode=16)
        tgp = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config).run(trace_a)
        blocked = build_engine(
            BlockedTokenGrainedPipeline, tiny_arch, small_wafer_config
        ).run(trace_b)
        ratio = blocked.throughput_tokens_per_s / tgp.throughput_tokens_per_s
        assert 0.80 <= ratio <= 1.01

    def test_decode_heavy_workload_bounded_by_pipeline_depth(
        self, tiny_arch, small_wafer_config
    ):
        """With a single decoding sequence, throughput is one token per 6N stages."""
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config)
        trace = make_trace(num_requests=1, prefill=4, decode=64)
        result = engine.run(trace)
        interval = engine.stage_interval(32)
        best_case = 1.0 / (interval * engine.depth)
        assert result.throughput_tokens_per_s <= best_case * 1.05


class TestUtilizationModels:
    def seg(self, prefill=16, decode=16, advance=0):
        seq = Sequence(Request(request_id=0, prefill_length=prefill, decode_length=decode))
        seq.start()
        if advance:
            seq.advance_tokens(advance)
        return seq

    def test_tgp_utilization_saturates(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config)
        seq = self.seg(prefill=1000, decode=0)
        utilization = engine.epoch_utilization([(seq, 32)], decode_sequences=0)
        assert utilization == pytest.approx(1.0)

    def test_tgp_decode_only_utilization(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config)
        utilization = engine.epoch_utilization([], decode_sequences=3)
        assert utilization == pytest.approx(3 / engine.depth)

    def test_tgp_zero_work(self, tiny_arch, small_wafer_config):
        engine = build_engine(TokenGrainedPipeline, tiny_arch, small_wafer_config)
        assert engine.epoch_utilization([], 0) == 0.0

    def test_sequence_grained_penalised_by_imbalance(self, tiny_arch, small_wafer_config):
        engine = build_engine(SequenceGrainedPipeline, tiny_arch, small_wafer_config)
        balanced = engine.epoch_utilization([], decode_sequences=8)
        seq = self.seg(prefill=500, decode=0)
        mixed = engine.epoch_utilization([(seq, 32)], decode_sequences=7)
        assert mixed < balanced

    def test_blocked_penalises_longer_new_sequences(self, tiny_arch, small_wafer_config):
        import dataclasses

        encoder_arch = dataclasses.replace(
            tiny_arch,
            attention_mask=__import__("repro.models.architectures", fromlist=["AttentionMask"]).AttentionMask.BIDIRECTIONAL,
            encoder_blocks=tiny_arch.num_blocks,
        )
        engine = build_engine(BlockedTokenGrainedPipeline, encoder_arch, small_wafer_config)
        first = engine.epoch_utilization([(self.seg(prefill=64), 32)], 0)
        # A second, longer sequence introduces a partitioning bubble.
        second = engine.epoch_utilization([(self.seg(prefill=128), 32)], 0)
        assert second <= first
