"""Token-grained pipelining (Section 4.2.1).

TGP makes the single token the unit of pipeline scheduling.  Because every
stage then processes exactly one token, the per-stage work is uniform and the
only source of under-utilisation is an insufficient number of tokens in
flight: prefill sequences can stream their tokens back-to-back (the causal
mask lets token *t* attend to tokens ``< t`` that are already one stage ahead),
while each decode sequence keeps exactly one token in flight (autoregressive
dependency).  Utilisation is therefore

    min(1, (sum of streamable prefill tokens + #decode sequences) / 6N)

which is the quantity the paper's 13B-vs-32B discussion revolves around: when
the KV cache can hold fewer concurrent sequences than the pipeline has stages,
decode-phase utilisation drops below one.
"""

from __future__ import annotations

from .engine import PipelineEngine, PrefillSegments


class TokenGrainedPipeline(PipelineEngine):
    """The paper's TGP strategy."""

    name = "ouroboros-tgp"
    # A sequence without a prefill take adds min(depth, 0 + 0) = 0 below.
    full_prefill_rows = True

    def segment_utilization(
        self, segments: PrefillSegments, decode_sequences: int, *, commit: bool
    ) -> float:
        # A prefilling sequence keeps streaming into the pipeline beyond this
        # epoch's chunk, so its in-flight contribution is bounded by the
        # pipeline depth, not by the chunk size.  (Integer sums: exact.)
        in_flight = segments.in_flight(self.depth) + decode_sequences
        if in_flight <= 0:
            return 0.0
        return min(1.0, in_flight / self.depth)
