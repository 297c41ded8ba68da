"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hardware.config import CrossbarConfig
from repro.hardware.crossbar import effective_sram_ratio
from repro.hardware.htree import LeafAssignment, assignment_cost
from repro.hardware.yieldmodel import murphy_yield
from repro.kvcache.blocks import tokens_per_block
from repro.kvcache.manager import DistributedKVCacheManager
from repro.models.architectures import ModelArch
from repro.results import EnergyBreakdown
from repro.workload.distributions import WikiTextLikeDistribution
from repro.workload.requests import Request, Sequence

# ---------------------------------------------------------------------------
# Hardware invariants
# ---------------------------------------------------------------------------


@given(exponent=st.integers(min_value=2, max_value=8))
def test_crossbar_gemv_cycles_inverse_in_activation_ratio(exponent):
    ratio = 1.0 / (2 ** exponent)
    config = CrossbarConfig(row_activation_ratio=ratio)
    assert config.gemv_cycles == config.activation_bits * math.ceil(
        config.rows / config.rows_active_per_cycle
    )
    # MACs per cycle times cycles always covers the whole array.
    assert config.macs_per_cycle * config.gemv_cycles == config.rows * config.weight_columns


@given(exponent=st.integers(min_value=0, max_value=10))
def test_effective_sram_ratio_monotone(exponent):
    ratio = 1.0 / (2 ** exponent)
    finer = ratio / 2
    assert effective_sram_ratio(finer) >= effective_sram_ratio(ratio)


@given(
    area=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    density=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_murphy_yield_bounded(area, density):
    value = murphy_yield(area, density)
    assert 0.0 < value <= 1.0


@given(
    head_dim=st.integers(min_value=1, max_value=1024),
    element_bytes=st.integers(min_value=1, max_value=4),
)
def test_tokens_per_block_positive(head_dim, element_bytes):
    assert tokens_per_block(head_dim, element_bytes) >= 1


# ---------------------------------------------------------------------------
# H-tree invariants
# ---------------------------------------------------------------------------


@given(
    parts=st.integers(min_value=1, max_value=4),
    per_part=st.sampled_from([1, 2, 4]),
    data=st.data(),
)
def test_htree_node_count_invariant(parts, per_part, data):
    leaves = parts * per_part
    assume(leaves & (leaves - 1) == 0)
    slices = [(i, o) for o in range(parts) for i in range(per_part)]
    permutation = data.draw(st.permutations(slices))
    cost = assignment_cost(LeafAssignment(slices=list(permutation)))
    # A binary tree over N leaves has exactly N-1 internal nodes.
    assert cost.concat_nodes + cost.reduction_nodes == leaves - 1
    assert cost.weighted_concat_depth >= cost.concat_nodes


@given(
    parts=st.integers(min_value=2, max_value=4),
    per_part=st.sampled_from([2, 4]),
    data=st.data(),
)
def test_htree_grouped_layout_is_lower_bound(parts, per_part, data):
    leaves = parts * per_part
    assume(leaves & (leaves - 1) == 0)
    slices = [(i, o) for o in range(parts) for i in range(per_part)]
    grouped_cost = assignment_cost(LeafAssignment(slices=slices))
    permutation = data.draw(st.permutations(slices))
    shuffled_cost = assignment_cost(LeafAssignment(slices=list(permutation)))
    assert grouped_cost.weighted_concat_depth <= shuffled_cost.weighted_concat_depth


# ---------------------------------------------------------------------------
# Sequence lifecycle invariants
# ---------------------------------------------------------------------------


@given(
    prefill=st.integers(min_value=1, max_value=300),
    decode=st.integers(min_value=0, max_value=300),
    chunks=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=30),
)
def test_sequence_bulk_advance_conserves_tokens(prefill, decode, chunks):
    sequence = Sequence(Request(request_id=0, prefill_length=prefill, decode_length=decode))
    sequence.start()
    processed = 0
    for chunk in chunks:
        segments = sequence.advance_tokens(chunk)
        processed += sum(count for _, count, _ in segments)
        assert sequence.context_length == processed
        if sequence.is_complete:
            break
    assert processed <= prefill + decode
    if sequence.is_complete:
        assert processed == prefill + decode


@given(
    prefill=st.integers(min_value=1, max_value=200),
    decode=st.integers(min_value=1, max_value=200),
    evict_after=st.integers(min_value=1, max_value=400),
)
def test_sequence_eviction_preserves_generated_tokens(prefill, decode, evict_after):
    sequence = Sequence(Request(request_id=0, prefill_length=prefill, decode_length=decode))
    sequence.start()
    sequence.advance_tokens(min(evict_after, prefill + decode - 1))
    generated_before = sequence.generated_tokens
    sequence.evict()
    assert sequence.generated_tokens == generated_before
    sequence.start()
    # Finishing the sequence always needs exactly the un-generated decode
    # tokens plus the full (re)prefill of the discarded context.
    sequence.advance_tokens(10**6)
    assert sequence.is_complete
    assert sequence.generated_tokens == decode


# ---------------------------------------------------------------------------
# KV-manager invariants
# ---------------------------------------------------------------------------


@st.composite
def kv_operations(draw):
    return draw(
        st.lists(
            st.tuples(st.sampled_from(["admit", "grow", "release"]), st.integers(0, 5), st.integers(1, 64)),
            min_size=1,
            max_size=30,
        )
    )


@given(ops=kv_operations())
@settings(max_examples=40, deadline=None)
def test_kv_manager_block_conservation(ops):
    arch = ModelArch(
        name="prop", num_blocks=2, hidden_size=256, num_heads=4, ffn_hidden_size=512,
        vocab_size=1000, max_context=512,
    )
    manager = DistributedKVCacheManager(
        arch, kv_core_ids=list(range(16)), blocks_per_core=8
    )
    sequences: dict[int, Sequence] = {}
    for action, seq_id, amount in ops:
        sequence = sequences.get(seq_id)
        if action == "admit" and sequence is None:
            sequence = Sequence(
                Request(request_id=seq_id, prefill_length=64, decode_length=64)
            )
            sequence.start()
            if manager.try_admit(sequence):
                sequences[seq_id] = sequence
        elif action == "grow" and sequence is not None:
            manager.append_tokens(sequence, amount)
        elif action == "release" and sequence is not None:
            manager.release(sequence)
            del sequences[seq_id]
        # Invariants: block accounting never goes negative or above capacity.
        assert 0 <= manager.used_blocks <= manager.total_blocks
        held = sum(manager.blocks_held(sid) for sid in sequences)
        assert held == manager.used_blocks


# ---------------------------------------------------------------------------
# Misc invariants
# ---------------------------------------------------------------------------


@given(
    compute=st.floats(0, 1e3, allow_nan=False),
    on_chip=st.floats(0, 1e3, allow_nan=False),
    off_chip=st.floats(0, 1e3, allow_nan=False),
    communication=st.floats(0, 1e3, allow_nan=False),
    scale=st.floats(0.1, 10.0, allow_nan=False),
)
def test_energy_breakdown_scaling(compute, on_chip, off_chip, communication, scale):
    energy = EnergyBreakdown(compute, on_chip, off_chip, communication)
    scaled = energy.scaled(scale)
    assert scaled.total_j == (
        scaled.compute_j + scaled.on_chip_memory_j + scaled.off_chip_memory_j + scaled.communication_j
    )
    assert abs(scaled.total_j - energy.total_j * scale) < 1e-6 * max(1.0, energy.total_j)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_wikitext_like_lengths_always_in_bounds(seed):
    import numpy as np

    distribution = WikiTextLikeDistribution()
    sample = distribution.sample(np.random.default_rng(seed))
    assert distribution.min_length <= sample.prefill_length <= distribution.max_length
    assert distribution.min_length <= sample.decode_length <= distribution.max_length
