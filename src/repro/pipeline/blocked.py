"""Token-grained pipelining with blocking for encoder-style attention (§4.2.2).

Bidirectional and prefix masks require each token to attend to *subsequent*
tokens, so the attention stages cannot proceed until the whole sequence's K/V
entries exist.  The paper's adaptation keeps every non-attention stage at token
granularity and lets only the attention stages fall back to sequence
granularity ("TGP with block").  Bubbles then appear solely at sequence
partitioning boundaries: a newly scheduled sequence that is *longer* than the
longest sequence seen so far stalls the attention stages by the length
difference.

For decoder-only models the blocked variant costs about 5% relative to plain
TGP (Section 6.4), which this model reproduces via a fixed blocking overhead.

Admission order (fcfs / wfq / priority) and the sub-epoch split boundary are
inherited unchanged from :class:`~repro.pipeline.engine.PipelineEngine` — the
only strategy-specific state here is the longest-sequence watermark, which
only advances when the utilization is *committed*: the shared ``_plan_epoch``
may evaluate (and then truncate) an epoch at a policy-chosen arrival boundary
before it commits.
"""

from __future__ import annotations

from ..models.architectures import AttentionMask
from .engine import PipelineEngine, PrefillSegments

#: relative throughput penalty of blocking measured on decoder-only models
BLOCKING_OVERHEAD = 0.05


class BlockedTokenGrainedPipeline(PipelineEngine):
    """TGP with sequence-granular attention stages (encoder support)."""

    name = "ouroboros-tgp-blocked"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._longest_seen = 0

    def segment_utilization(
        self, segments: PrefillSegments, decode_sequences: int, *, commit: bool
    ) -> float:
        # Every sum below adds integers, so the sums are exact.
        in_flight = float(segments.in_flight(self.depth)) + decode_sequences
        epoch_tokens = float(decode_sequences) + sum(segments.takes)
        # The attention stages stall for the length differential whenever a
        # longer-than-ever sequence enters (Section 4.2.2); summed over the
        # epoch's entries in order, the differentials telescope to how far
        # the longest-sequence watermark rises.
        longest_seen = max(self._longest_seen, max(segments.lengths, default=0))
        bubble_tokens = float(longest_seen - self._longest_seen)
        if commit:
            self._longest_seen = longest_seen
        if in_flight <= 0:
            return 0.0
        occupancy = min(1.0, in_flight / self.depth)
        if epoch_tokens + bubble_tokens > 0:
            bubble_factor = epoch_tokens / (epoch_tokens + bubble_tokens)
        else:
            bubble_factor = 1.0
        utilization = occupancy * bubble_factor * (1.0 - BLOCKING_OVERHEAD)
        if self.arch.attention_mask is AttentionMask.CAUSAL:
            # Decoder-only models never actually need to wait for later tokens;
            # only the fixed blocking overhead applies.
            utilization = occupancy * (1.0 - BLOCKING_OVERHEAD)
        return utilization
