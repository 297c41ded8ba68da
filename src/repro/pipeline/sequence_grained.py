"""Sequence-grained pipelining baseline (Fig. 5a).

Conventional pipelines schedule whole sequences: each stage works on a
different request, so a stage holding a 2048-token prefill keeps its neighbours
waiting while a stage holding a single decode token idles.  Two effects reduce
utilisation relative to TGP:

* **load imbalance** -- concurrently in-flight work items have very different
  sizes (prefills of varying length mixed with single-token decode steps), and
  the pipeline advances at the pace of the largest item; and
* **occupancy** -- each sequence occupies exactly one stage, so at most one
  work item per active sequence is in flight.

Both effects are modelled per epoch from the actual set of in-flight items.
"""

from __future__ import annotations

from operator import add

from .engine import PipelineEngine, PrefillSegments


class SequenceGrainedPipeline(PipelineEngine):
    """Baseline pipeline with sequences as the scheduling unit."""

    name = "ouroboros-seq-grained"

    def segment_utilization(
        self, segments: PrefillSegments, decode_sequences: int, *, commit: bool
    ) -> float:
        # Work-item sizes currently in flight: one item per prefilling
        # sequence (its remaining prompt chunk) and one single-token item per
        # decoding sequence.  The spread below is a float sum, in segment
        # order.
        item_sizes = [
            float(size) for size in map(add, segments.takes, segments.remaining)
        ]
        item_sizes.extend([1.0] * decode_sequences)
        if not item_sizes:
            return 0.0
        occupancy = min(1.0, len(item_sizes) / self.depth)
        mean_size = sum(item_sizes) / len(item_sizes)
        variance = sum((size - mean_size) ** 2 for size in item_sizes) / len(item_sizes)
        std_size = variance ** 0.5
        # Head-of-line blocking behind oversized items grows with the spread of
        # in-flight item sizes; a coefficient-of-variation penalty reproduces
        # the 1.5x-3x bubbles the paper attributes to sequence granularity
        # without the unbounded worst case of a pure mean/max model (stages
        # buffer work, so a single long prefill does not stall everything).
        imbalance = mean_size / (mean_size + std_size) if mean_size > 0 else 1.0
        return occupancy * imbalance
