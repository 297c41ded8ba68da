"""Request and sequence abstractions for the inference workload.

A *request* arrives with a prompt of ``prefill_length`` tokens and asks for
``decode_length`` output tokens.  Once admitted by the scheduler it becomes a
*sequence* whose KV cache grows by one entry per processed token.  The paper's
evaluation processes batches of 1000 requests per workload setting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigurationError, SchedulingError


#: tenant id of requests that do not belong to an explicit multi-tenant trace
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class SLOTarget:
    """Per-request service-level objective used for goodput accounting.

    A request *meets* the SLO when every specified deadline holds for it:
    ``ttft_s`` bounds arrival-to-first-output-token, ``latency_s`` bounds
    arrival-to-completion.  A deadline left at ``None`` is not enforced, and a
    metric a request never produces (TTFT of a prefill-only request) passes
    vacuously.  *Goodput* is the fraction of completed requests meeting the
    SLO; an operating point *attains* the SLO when goodput reaches
    ``goodput_target`` (the "p99" in a TTFT-p99 SLO: 0.99 means at most 1 % of
    requests may miss their deadline).
    """

    ttft_s: float | None = None
    latency_s: float | None = None
    goodput_target: float = 0.99

    def __post_init__(self) -> None:
        # SLOs are deployment configuration, so invalid targets surface as
        # the spec layer's typed ConfigurationError, not a scheduling fault.
        if self.ttft_s is not None and self.ttft_s <= 0:
            raise ConfigurationError("SLO ttft_s must be positive")
        if self.latency_s is not None and self.latency_s <= 0:
            raise ConfigurationError("SLO latency_s must be positive")
        if not 0.0 < self.goodput_target <= 1.0:
            raise ConfigurationError("SLO goodput_target must lie in (0, 1]")

    def met_by(self, ttft_s: float | None, latency_s: float | None) -> bool:
        """Whether one request's observed latencies meet every deadline."""
        if self.ttft_s is not None and ttft_s is not None and ttft_s > self.ttft_s:
            return False
        if (
            self.latency_s is not None
            and latency_s is not None
            and latency_s > self.latency_s
        ):
            return False
        return True


@dataclass(frozen=True)
class Request:
    """An inference request: a prompt plus a target number of output tokens."""

    request_id: int
    prefill_length: int
    decode_length: int
    arrival_time: float = 0.0
    #: tenant the request belongs to (drives per-tenant serving stats)
    tenant: str = DEFAULT_TENANT
    #: WFQ share of the owning tenant (admission virtual time advances by
    #: ``total_tokens / weight`` per admitted request; ignored by fcfs)
    weight: float = 1.0
    #: static admission priority of the owning tenant (higher = admitted
    #: first under the ``priority`` policy; ignored by fcfs / wfq)
    priority: int = 0

    def __post_init__(self) -> None:
        if self.prefill_length <= 0:
            raise SchedulingError("prefill_length must be positive")
        if self.decode_length < 0:
            raise SchedulingError("decode_length must be non-negative")
        if not self.tenant:
            raise SchedulingError("tenant must be a non-empty string")
        if self.weight <= 0:
            raise SchedulingError("weight must be positive")

    @property
    def total_tokens(self) -> int:
        """Tokens that flow through the pipeline for this request."""
        return self.prefill_length + self.decode_length

    @property
    def final_context_length(self) -> int:
        """KV entries held once the request completes."""
        return self.prefill_length + self.decode_length


class SequencePhase(enum.Enum):
    """Lifecycle of a sequence inside the serving system."""

    WAITING = "waiting"
    PREFILL = "prefill"
    DECODE = "decode"
    EVICTED = "evicted"
    COMPLETE = "complete"


@dataclass
class Sequence:
    """Mutable serving state of one admitted request."""

    request: Request
    phase: SequencePhase = SequencePhase.WAITING
    #: prompt tokens whose KV entries have been produced so far
    prefill_progress: int = 0
    #: output tokens generated so far
    decode_progress: int = 0
    #: number of times this sequence was evicted and had to be recomputed
    eviction_count: int = 0
    #: evictions that were *preemptions*: a scheduling policy displaced this
    #: resident sequence to admit a higher-ranked one (subset of
    #: ``eviction_count``; capacity and fault evictions do not count here)
    preemptions: int = 0
    #: tokens recomputed due to evictions (pure waste)
    recomputed_tokens: int = 0
    #: extra prompt tokens to re-prefill after evictions (previously generated
    #: tokens whose KV entries were discarded)
    extra_prefill: int = 0
    #: decode tokens generated before the most recent eviction (they do not
    #: need to be generated again, only their KV re-built via prefill)
    decode_offset: int = 0
    admission_time: float = 0.0
    #: wall-clock instant the first output token left the pipeline (stamped at
    #: the end of the epoch that produced it; survives later evictions because
    #: generated tokens are never produced twice)
    first_token_time: float | None = None
    completion_time: float | None = None
    #: earliest instant a shed-with-retry request may be admitted again
    #: (0.0 = immediately; the overload shedder pushes this out with backoff)
    retry_at: float = 0.0
    #: times this request was shed from the admission queue and retried
    retries: int = 0
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def sequence_id(self) -> int:
        return self.request.request_id

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def eligible_time(self) -> float:
        """Instant this sequence may be admitted: arrival, or a retry backoff."""
        return max(self.request.arrival_time, self.retry_at)

    @property
    def context_length(self) -> int:
        """KV entries currently cached for this sequence."""
        return self.prefill_progress + self.decode_progress

    @property
    def total_prefill_target(self) -> int:
        """Prompt tokens to prefill, including post-eviction recomputation."""
        return self.request.prefill_length + self.extra_prefill

    @property
    def remaining_prefill(self) -> int:
        return self.total_prefill_target - self.prefill_progress

    @property
    def remaining_decode(self) -> int:
        return self.request.decode_length - self.decode_offset - self.decode_progress

    @property
    def generated_tokens(self) -> int:
        """Unique output tokens produced so far (survives evictions)."""
        return self.decode_offset + self.decode_progress

    @property
    def remaining_tokens(self) -> int:
        return self.remaining_prefill + self.remaining_decode

    @property
    def is_complete(self) -> bool:
        return self.phase is SequencePhase.COMPLETE

    @property
    def ttft_s(self) -> float | None:
        """Arrival-to-first-output-token latency (None before the first token,
        and for prefill-only requests, which never produce output tokens)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.request.arrival_time

    @property
    def latency_s(self) -> float | None:
        """Arrival-to-completion latency (None until the sequence completes)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.request.arrival_time

    def start(self, time: float = 0.0) -> None:
        """Move the sequence from WAITING/EVICTED into the prefill phase."""
        if self.phase not in (SequencePhase.WAITING, SequencePhase.EVICTED):
            raise SchedulingError(
                f"sequence {self.sequence_id} cannot start from phase {self.phase}"
            )
        self.phase = SequencePhase.PREFILL
        self.admission_time = time

    def advance_tokens(self, count: int) -> list[tuple["SequencePhase", int, int]]:
        """Process up to ``count`` tokens in bulk.

        Returns a list of ``(phase, tokens, start_position)`` segments, one per
        phase the advance passed through (a chunk can finish the prefill phase
        and continue into decode).  ``start_position`` is the context length at
        which the segment's first token was processed.
        """
        segments: list[tuple[SequencePhase, int, int]] = []
        remaining = count
        while remaining > 0 and self.phase in (SequencePhase.PREFILL, SequencePhase.DECODE):
            phase = self.phase
            start_position = self.context_length
            if phase is SequencePhase.PREFILL:
                step = min(remaining, self.remaining_prefill)
                self.prefill_progress += step
                if self.remaining_prefill <= 0:
                    self.phase = (
                        SequencePhase.DECODE
                        if self.remaining_decode > 0
                        else SequencePhase.COMPLETE
                    )
            else:
                step = min(remaining, self.remaining_decode)
                self.decode_progress += step
                if self.remaining_decode <= 0:
                    self.phase = SequencePhase.COMPLETE
            if step <= 0:
                break
            segments.append((phase, step, start_position))
            remaining -= step
        return segments

    def apply_advance(self, prefill_tokens: int, decode_tokens: int) -> None:
        """Apply a bulk advance whose phase split was computed externally.

        The fast epoch engine derives ``prefill_tokens`` / ``decode_tokens``
        for every active sequence in one pass over its plan rows (``prefill =
        min(budget, remaining_prefill)``; ``decode = min(budget - prefill,
        remaining_decode)``) and commits them here.  The phase transitions
        are identical to :meth:`advance_tokens` walking the same counts.
        """
        if self.phase not in (SequencePhase.PREFILL, SequencePhase.DECODE):
            raise SchedulingError(
                f"sequence {self.sequence_id} cannot advance from phase {self.phase}"
            )
        if prefill_tokens > 0:
            self.prefill_progress += prefill_tokens
            if self.remaining_prefill <= 0:
                self.phase = (
                    SequencePhase.DECODE
                    if self.remaining_decode > 0
                    else SequencePhase.COMPLETE
                )
        if decode_tokens > 0:
            self.decode_progress += decode_tokens
            if self.remaining_decode <= 0:
                self.phase = SequencePhase.COMPLETE

    def evict(self) -> int:
        """Evict the sequence; its cached prefix must be recomputed on re-entry.

        The discarded context (original prompt plus every token generated so
        far) must be re-prefilled when the sequence is re-admitted; already
        generated output tokens are not generated again.  Returns the number
        of tokens whose KV entries were discarded.
        """
        if self.phase in (SequencePhase.COMPLETE, SequencePhase.WAITING):
            raise SchedulingError(
                f"sequence {self.sequence_id} cannot be evicted from {self.phase}"
            )
        discarded = self.context_length
        self.eviction_count += 1
        self.recomputed_tokens += discarded
        self.decode_offset += self.decode_progress
        self.extra_prefill = self.decode_offset
        self.prefill_progress = 0
        self.decode_progress = 0
        self.phase = SequencePhase.EVICTED
        return discarded

    def complete(self, time: float) -> None:
        self.phase = SequencePhase.COMPLETE
        self.completion_time = time
