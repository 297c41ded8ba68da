"""Inter-sequence scheduling (Section 4.4.4).

Policy reproduced from the paper:

* New requests are admitted in the order chosen by a pluggable
  :class:`~repro.workload.policies.SchedulingPolicy` — First-Come-First-Serve
  by default, exactly the paper's behaviour; ``wfq`` (weighted fair queueing
  over tenants) and ``priority`` (strict priority with starvation-free aging)
  reorder admission across tenants.  In open-loop (arrival-time-driven)
  serving a request additionally cannot be admitted before its
  ``arrival_time``; with the default batch traces every arrival is 0.0 and
  the gate is a no-op.
* Decode iterations of already-admitted requests may be scheduled as soon as
  the current input finishes (preemptive interleave of prefill and decode).
* When the KV cache is full, the most recently *admitted* request is
  evicted, new-request admission is suspended until a prior request completes,
  and the evicted request is placed at the *front* of the waiting queue
  (under the tenant-aware policies: the front of its own tenant's queue).
* A per-core occupancy threshold reserves residual capacity for KV growth in
  the decode phase so freshly admitted sequences do not immediately thrash.

The scheduler is deliberately decoupled from the concrete KV-cache manager: it
drives any object that satisfies :class:`KVCapacityProvider`, which both the
distributed dynamic manager and the static baseline implement.  It is equally
decoupled from admission *order*: capacity, eviction and bookkeeping live
here, while the policy object owns which waiting sequence goes next.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol

from ..errors import ConfigurationError, SchedulingError
from .policies import SchedulingPolicy, make_policy
from .requests import Request, Sequence, SequencePhase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .streams import RequestStream


class KVCapacityProvider(Protocol):
    """What the scheduler needs from a KV-cache manager."""

    def try_admit(self, sequence: Sequence) -> bool:
        """Reserve initial KV space for a sequence; return False if full."""
        ...

    def release(self, sequence: Sequence) -> None:
        """Free all KV space held by a sequence (completion or eviction)."""
        ...

    def append_tokens(self, sequence: Sequence, count: int = 1) -> bool:
        """Reserve KV space for ``count`` more tokens; return False if full."""
        ...

    def commit_tokens(self, sequences: list[Sequence], counts: list[int]) -> int:
        """Append ``counts[i]`` tokens to ``sequences[i]`` in order, for as
        long as each growth cannot be refused; return how many were
        committed.

        Each committed pair is exactly an :meth:`append_tokens` call that
        returned True; the provider owns the arithmetic.  The next growth, if
        any, may be refused: the engine sends it through the scheduler's
        ``grow_sequence``, which may evict, so eviction stays exact.
        """
        ...


@dataclass
class SchedulerStats:
    """Counters describing scheduler behaviour over a run."""

    admitted: int = 0
    completed: int = 0
    evictions: int = 0
    recomputed_tokens: int = 0
    #: evictions initiated by a preemptive policy displacing a resident
    #: sequence for a higher-ranked arrival (subset of ``evictions``)
    preemptions: int = 0
    #: tokens discarded by preemptions (subset of ``recomputed_tokens``)
    preempted_tokens: int = 0
    rejected_admissions: int = 0
    #: requests permanently dropped by the overload shedder
    shed_requests: int = 0
    #: shed-with-backoff events (the request re-enters the queue later)
    shed_retries: int = 0


@dataclass
class InterSequenceScheduler:
    """Policy-ordered scheduler with eviction of the most recent admission.

    ``policy`` selects the admission order: a registry key (``fcfs`` —
    the default, the paper's FCFS queue — ``wfq`` or ``priority``) or a
    ready-built :class:`~repro.workload.policies.SchedulingPolicy` instance
    when the caller needs to parameterise it (e.g. a priority aging rate).
    """

    kv_provider: KVCapacityProvider
    #: maximum sequences resident at once (None = limited only by KV capacity)
    max_active_sequences: int | None = None
    stats: SchedulerStats = field(default_factory=SchedulerStats)
    #: admission-order policy (registry key or instance)
    policy: SchedulingPolicy | str = "fcfs"
    #: bounded admission queue: waiting arrived requests beyond this depth are
    #: shed (None = unbounded, shedding off — the historical behaviour)
    max_queue_depth: int | None = None
    #: drop waiting requests whose TTFT SLO is already unmeetable (the time
    #: since arrival alone exceeds the deadline, so admission cannot save it)
    shed_deadline: bool = False
    #: service-time slack for deadline shedding: drop once the remaining TTFT
    #: budget falls below this, because even an immediate admission would
    #: still need roughly this long to produce the first token
    shed_headroom_s: float = 0.0
    #: times a depth-shed request is re-queued with backoff before the drop
    #: becomes permanent (0 = depth overflow drops immediately)
    shed_retries: int = 0
    #: base retry backoff in seconds; doubles on every further shed
    shed_backoff_s: float = 0.0
    #: allow the policy to displace resident sequences for higher-ranked
    #: arrivals (``select_victim``); False = admission-order-only, the
    #: historical behaviour
    preemptive: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.policy, str):
            self.policy = make_policy(self.policy)
        self._active: list[Sequence] = []  # in admission order (oldest first)
        self._active_ids: set[int] = set()  # O(1) membership mirror of _active
        #: bumped whenever a sequence leaves the active list (or the list is
        #: restored): while it holds still, the list only grew at its end, so
        #: an earlier snapshot is still its prefix, in order
        self.departures = 0
        self._completed: list[Sequence] = []
        #: set when an eviction happened; cleared when a request completes
        self._admission_suspended = False
        #: requests already counted in stats.rejected_admissions (a request
        #: blocked at the head of the queue is rejected once, not once per
        #: epoch it stays blocked)
        self._rejected_ids: set[int] = set()
        #: requests permanently dropped by the overload shedder
        self._shed: list[Sequence] = []
        #: tenant -> SLOTarget lookup for deadline shedding (set by the
        #: engine from the trace; None disables deadline shedding)
        self.slo_lookup: Callable[[str], object] | None = None
        #: admission frozen until this instant (transient fault injection)
        self.admission_stall_until = 0.0
        #: lazy arrival stream the scheduler pulls from as time advances
        #: (None = everything was submitted up front, the historical mode)
        self._stream: RequestStream | None = None
        #: keep the ``_completed``/``_shed`` sequence lists; the engines turn
        #: this off for streaming runs, where holding every finished sequence
        #: would defeat the O(active) memory bound (stats fold incrementally)
        self.retain_history = True
        #: observer invoked on every permanent shed (the engines' streaming
        #: stats accumulator; fires in both retention modes)
        self.on_shed: Callable[[Sequence], None] | None = None
        #: per tenant, a lower bound on the arrival of every queued
        #: never-admitted (``WAITING``) sequence: lowered on submit, made
        #: exact by each deadline scan and on restore.  While no tenant's
        #: bound fails the deadline test, neither can any of its sequences.
        self._oldest_waiting: dict[str, float] = {}

    # ------------------------------------------------------------------ stream

    def attach_stream(self, stream: "RequestStream") -> None:
        """Pull arrivals lazily from ``stream`` instead of a bulk submit.

        ``fill`` drains every request whose arrival time has passed into the
        policy queue before admitting, so admission order, next-arrival
        queries and shedding behave bit-for-bit as if the whole trace had
        been submitted up front.
        """
        if self._stream is not None:
            raise ConfigurationError("scheduler already has an attached stream")
        if len(self.policy) or self._active or self._completed:
            raise ConfigurationError(
                "attach_stream requires a fresh scheduler (no queued work)"
            )
        self._stream = stream

    @property
    def stream(self) -> "RequestStream | None":
        return self._stream

    def _pull_arrivals(self, time: float) -> None:
        """Move every stream request with ``arrival <= time`` into the queue."""
        stream = self._stream
        if stream is None:
            return
        while (arrival := stream.peek_arrival()) is not None and arrival <= time:
            self.submit(stream.pop())

    def _stream_head_candidates(self) -> list[float]:
        """Pending stream arrivals that can affect next-arrival queries."""
        if self._stream is None or self._stream.exhausted:
            return []
        return self.policy.pending_head_arrivals(self._stream.pending_arrivals())

    # ------------------------------------------------------------------ intake

    def submit(self, request: Request) -> Sequence:
        """Queue a new request (admission order chosen by the policy)."""
        sequence = Sequence(request=request)
        self.policy.push(sequence)
        oldest = self._oldest_waiting
        if request.arrival_time < oldest.get(request.tenant, math.inf):
            oldest[request.tenant] = request.arrival_time
        return sequence

    def submit_all(self, requests: list[Request]) -> list[Sequence]:
        return [self.submit(request) for request in requests]

    # ------------------------------------------------------------------- state

    @property
    def waiting(self) -> list[Sequence]:
        return self.policy.waiting()

    @property
    def active(self) -> list[Sequence]:
        """Snapshot of the active sequences in admission order.

        The copy makes ``for seq in scheduler.active: scheduler.complete(seq)``
        safe; the epoch loop's per-sequence membership checks go through the
        O(1) :meth:`is_active` instead of this list.
        """
        return list(self._active)

    @property
    def completed(self) -> list[Sequence]:
        return list(self._completed)

    @property
    def shed(self) -> list[Sequence]:
        """Requests permanently dropped by the overload shedder."""
        return list(self._shed)

    @property
    def num_active(self) -> int:
        return len(self._active)

    def queue_depths(self) -> dict[str, int]:
        """Waiting-queue depth per tenant.

        Feeds both the daemon's rolling metrics and the ``queue_depth`` field
        of the final per-tenant :class:`~repro.results.TenantStats` (0 after
        a drained run).
        """
        depths: dict[str, int] = {}
        for sequence in self.policy.waiting():
            tenant = sequence.request.tenant
            depths[tenant] = depths.get(tenant, 0) + 1
        return depths

    def is_active(self, sequence: Sequence) -> bool:
        """O(1) membership test (the hot check of the epoch loop)."""
        return sequence.sequence_id in self._active_ids

    @property
    def all_done(self) -> bool:
        return (
            len(self.policy) == 0
            and not self._active
            and (self._stream is None or self._stream.exhausted)
        )

    @property
    def has_pending(self) -> bool:
        """True while any work is queued or still inside the arrival stream.

        O(1), unlike ``waiting`` which materialises the queue — the engines'
        idle-skip loop polls this every epoch.
        """
        return len(self.policy) > 0 or (
            self._stream is not None and not self._stream.exhausted
        )

    def next_arrival_time(self) -> float | None:
        """Instant admission can next make progress (None when nothing waits).

        Policy-defined: under FCFS this is the *queue head's* arrival time —
        a later-submitted request that happens to arrive earlier still waits
        behind the head — while the tenant-aware policies report the earliest
        arrival among the tenant queue heads, any of which can be admitted.
        The engines use it to advance the clock across idle gaps instead of
        stalling, and to split epochs at admission boundaries, so the split
        boundary automatically respects the policy's order.

        With an attached stream, not-yet-pulled arrivals that would have been
        candidate heads under full submission (the policy decides which — see
        ``pending_head_arrivals``) compete with the queued answer.
        """
        best = self.policy.next_arrival_time()
        for arrival in self._stream_head_candidates():
            if best is None or arrival < best:
                best = arrival
        return best

    def next_future_arrival(self, time: float) -> float | None:
        """Earliest candidate arrival strictly after ``time`` (policy-defined).

        The engines split epochs at this boundary.  FCFS reports its head's
        arrival only; the tenant-aware policies report the earliest future
        tenant-head arrival even while another (already arrived) head is
        blocked on capacity, because the newcomer may be admitted instantly.
        Stream-pending candidate arrivals compete exactly as in
        :meth:`next_arrival_time`.
        """
        best = self.policy.next_future_arrival(time)
        for arrival in self._stream_head_candidates():
            if arrival > time and (best is None or arrival < best):
                best = arrival
        return best

    def has_arrived_waiting(self, time: float) -> bool:
        """True when the policy has an admission candidate arrived at ``time``.

        Distinguishes "every eligible request is blocked because it has not
        arrived yet" (engine should skip forward) from "one arrived but won't
        fit" (a genuine capacity stall).
        """
        return self.policy.select(time) is not None

    def _remove_active(self, sequence: Sequence) -> None:
        """Drop a sequence from the active list by identity (no dataclass eq)."""
        for index in range(len(self._active) - 1, -1, -1):
            if self._active[index] is sequence:
                del self._active[index]
                break
        self._active_ids.discard(sequence.sequence_id)
        self.departures += 1

    # -------------------------------------------------------------- admission

    def fill(self, time: float = 0.0) -> list[Sequence]:
        """Admit arrived waiting sequences while capacity allows.

        The policy picks each admission candidate.  A candidate blocked on
        capacity is excluded and the policy asked again: under FCFS the
        excluded head yields no further candidate (the classic head-of-line
        block, bit-for-bit the historical behaviour), while the tenant-aware
        policies offer another tenant's head — a 4k-token batch request that
        does not fit must not block an interactive request that would.
        Returns the admitted sequences.
        """
        self._pull_arrivals(time)
        if time < self.admission_stall_until:
            # A transient fault froze admission; already-active sequences
            # keep decoding, but nothing new enters until the stall lifts.
            return []
        self._shed_overload(time)
        admitted: list[Sequence] = []
        blocked: set[int] = set()
        while len(self.policy):
            if self._admission_suspended and self._active:
                # Admission is suspended after an eviction until a prior
                # request completes (Section 4.4.4); re-admitting immediately
                # would thrash the cache.  If nothing is active there is no
                # request to wait for, so admission resumes.
                break
            at_cap = (
                self.max_active_sequences is not None
                and len(self._active) >= self.max_active_sequences
            )
            if at_cap and not self.preemptive:
                break
            candidate = self.policy.select(time, exclude=blocked)
            if candidate is None:
                break
            if at_cap:
                # Preemptive path: the concurrency cap is full, so the
                # candidate enters only by displacing a strictly lower-ranked
                # resident.  A candidate that cannot is skipped (not counted
                # as a capacity rejection — the KV cache may have room), and
                # a higher-ranked tenant's head gets its chance.
                if not self._preempt_for(candidate):
                    blocked.add(candidate.sequence_id)
                    continue
            fits = self.kv_provider.try_admit(candidate)
            while not fits and self.preemptive:
                if getattr(self.kv_provider, "last_failure_quota_bound", False):
                    # The candidate's own tenant quota is the binding
                    # constraint; displacing other tenants cannot help.
                    break
                if not self._preempt_for(candidate):
                    break
                fits = self.kv_provider.try_admit(candidate)
            if not fits:
                used_blocks = getattr(self.kv_provider, "tenant_used_blocks", None)
                if (
                    getattr(self.kv_provider, "last_failure_quota_bound", False)
                    and used_blocks is not None
                    and used_blocks(candidate.tenant) == 0
                ):
                    # The tenant holds nothing, yet its quota still rejects
                    # the admission: this sequence can never fit under the
                    # quota (quotas are static per run), so drop it
                    # permanently instead of livelocking the drain.
                    self.stats.rejected_admissions += 1
                    self._shed_permanently(candidate)
                    continue
                if candidate.sequence_id not in self._rejected_ids:
                    self._rejected_ids.add(candidate.sequence_id)
                    self.stats.rejected_admissions += 1
                blocked.add(candidate.sequence_id)
                continue
            self.policy.pop(candidate, time)
            candidate.start(time)
            self._active.append(candidate)
            self._active_ids.add(candidate.sequence_id)
            self.stats.admitted += 1
            # The id can never be re-blocked without an eviction (which
            # discards it too); dropping it here keeps the dedup set at
            # O(currently blocked) instead of O(every rejection ever).
            self._rejected_ids.discard(candidate.sequence_id)
            admitted.append(candidate)
        if self.preemptive:
            # A sequence admitted earlier in this fill may have been
            # preempted by a later, higher-ranked candidate; the caller only
            # sees sequences that are still resident.
            admitted = [s for s in admitted if s.sequence_id in self._active_ids]
        return admitted

    # --------------------------------------------------------------- shedding

    def _shed_overload(self, time: float) -> None:
        """Apply deadline-aware and depth-bound shedding to the waiting queue.

        Only never-admitted (``WAITING``-phase) requests are shed: an evicted
        sequence re-queued at the front represents in-flight work whose KV
        must be rebuilt, not a fresh admission the system may refuse.
        """
        if not (self.shed_deadline or self.max_queue_depth is not None):
            return
        slo_lookup = self.slo_lookup
        if (
            self.shed_deadline
            and slo_lookup is not None
            and self._deadline_due(time, slo_lookup)
        ):
            for sequence in self.policy.waiting():
                if sequence.phase is not SequencePhase.WAITING:
                    continue
                if sequence.eligible_time > time:
                    continue
                slo = slo_lookup(sequence.tenant)
                ttft_s = getattr(slo, "ttft_s", None)
                if ttft_s is None:
                    continue
                if time - sequence.request.arrival_time > ttft_s - self.shed_headroom_s:
                    # The remaining TTFT budget is below the service headroom:
                    # even an immediate admission would miss the deadline, so
                    # drop the request now instead of burning wafer time on a
                    # guaranteed SLO miss.
                    self._shed_permanently(sequence)
            self._oldest_waiting = _oldest_arrivals(self.policy.waiting())
        if self.max_queue_depth is not None:
            eligible = [
                sequence
                for sequence in self.policy.waiting()
                if sequence.phase is SequencePhase.WAITING
                and sequence.eligible_time <= time
            ]
            if len(eligible) > self.max_queue_depth:
                eligible.sort(key=lambda s: (s.request.arrival_time, s.sequence_id))
                for sequence in eligible[self.max_queue_depth :]:
                    self._shed_or_backoff(sequence, time)

    def _deadline_due(self, time: float, slo_lookup: Callable[[str], object]) -> bool:
        """Whether the deadline scan can shed anything at ``time``: some
        tenant's oldest waiting arrival fails the scan's own test.

        Float subtraction is monotone, so a later arrival of the tenant
        leaves no more elapsed time than the bound does and cannot fail the
        test while the bound passes it.
        """
        for tenant, arrival in self._oldest_waiting.items():
            ttft_s = getattr(slo_lookup(tenant), "ttft_s", None)
            if ttft_s is not None and time - arrival > ttft_s - self.shed_headroom_s:
                return True
        return False

    def _shed_permanently(self, sequence: Sequence) -> None:
        if self.policy.remove(sequence):
            if self.retain_history:
                self._shed.append(sequence)
            self.stats.shed_requests += 1
            self._rejected_ids.discard(sequence.sequence_id)
            if self.on_shed is not None:
                self.on_shed(sequence)

    def _shed_or_backoff(self, sequence: Sequence, time: float) -> None:
        """Depth overflow: back the request off, or drop it once retries run out."""
        if sequence.retries >= self.shed_retries:
            self._shed_permanently(sequence)
            return
        sequence.retries += 1
        sequence.retry_at = time + self.shed_backoff_s * (2 ** (sequence.retries - 1))
        self.stats.shed_retries += 1

    # ------------------------------------------------------------- preemption

    def _preempt_for(self, candidate: Sequence) -> bool:
        """Displace one policy-chosen victim so ``candidate`` can be admitted.

        Mirrors :meth:`recompute_sequence`, not :meth:`_evict`: the victim's
        KV is released and it re-enters the front of its own tenant's queue
        with tenant/priority preserved, but admission is *not* suspended —
        the whole point of the eviction is to admit the candidate right now.
        Returns False when the policy declines to nominate a victim.
        """
        victim = self.policy.select_victim(candidate, self._active)
        if victim is None:
            return False
        self._remove_active(victim)
        self.kv_provider.release(victim)
        discarded = victim.evict()
        victim.preemptions += 1
        self.stats.preemptions += 1
        self.stats.preempted_tokens += discarded
        self.stats.evictions += 1
        self.stats.recomputed_tokens += discarded
        self.policy.push_front(victim)
        self._rejected_ids.discard(victim.sequence_id)
        return True

    # --------------------------------------------------------------- eviction

    def _evict(self, victim: Sequence) -> Sequence:
        """Evict ``victim``: release its KV space, requeue it at the front."""
        self._remove_active(victim)
        self.kv_provider.release(victim)
        discarded = victim.evict()
        self.stats.evictions += 1
        self.stats.recomputed_tokens += discarded
        self.policy.push_front(victim)
        self._admission_suspended = True
        # The victim keeps its sequence id in the waiting queue, so a
        # post-eviction capacity rejection is a *new* rejection and must be
        # countable again (the once-per-blocked-stint dedup in fill() would
        # otherwise swallow it forever).
        self._rejected_ids.discard(victim.sequence_id)
        return victim

    def evict_most_recent(self) -> Sequence | None:
        """Evict the most recently *admitted* active sequence (cache full)."""
        if not self._active:
            return None
        return self._evict(self._active[-1])

    def recompute_sequence(self, sequence: Sequence) -> int:
        """Requeue an active sequence whose KV blocks a fault destroyed.

        Like an eviction — the cached context is gone and must be
        re-prefilled, with tenant/priority preserved by re-entering at the
        front of the owning queue — but attributed to the *fault*, not the
        scheduler: the capacity-pressure counters and the post-eviction
        admission freeze stay untouched.  Returns the discarded token count.
        """
        if sequence.sequence_id not in self._active_ids:
            raise SchedulingError(
                f"sequence {sequence.sequence_id} is not active and cannot "
                "be recomputed"
            )
        self._remove_active(sequence)
        self.kv_provider.release(sequence)
        discarded = sequence.evict()
        self.policy.push_front(sequence)
        self._rejected_ids.discard(sequence.sequence_id)
        return discarded

    # -------------------------------------------------------------- completion

    def complete(self, sequence: Sequence, time: float = 0.0) -> None:
        """Mark an active sequence complete and release its KV space."""
        if sequence.sequence_id not in self._active_ids:
            raise SchedulingError(
                f"sequence {sequence.sequence_id} is not active and cannot complete"
            )
        self._remove_active(sequence)
        self.kv_provider.release(sequence)
        sequence.complete(time)
        if self.retain_history:
            self._completed.append(sequence)
        self.stats.completed += 1
        # A prior request completed: new-request admission may resume.
        self._admission_suspended = False

    # ------------------------------------------------------------ token growth

    def grow_sequence(self, sequence: Sequence, count: int = 1) -> bool:
        """Reserve KV space for the next ``count`` tokens of ``sequence``.

        If the KV cache is full the scheduler applies the paper's policy:
        evict the most recently admitted sequence(s) — never ``sequence``
        itself — until the reservation succeeds or no other victim remains.
        """
        while not self.kv_provider.append_tokens(sequence, count):
            victim = self._growth_victim(sequence)
            if victim is None:
                if self._quota_doomed(sequence):
                    # The tenant's entire holding is this sequence, and one
                    # more growth still breaks its static cap: the context
                    # only ever grows, so no completion, release or eviction
                    # can unblock it.  Shed now instead of livelocking the
                    # epoch loop on a sequence that can never finish.
                    self._shed_doomed_active(sequence)
                return False
            self._evict(victim)
        return True

    def _quota_doomed(self, sequence: Sequence) -> bool:
        """The growth failed on ``sequence``'s own tenant quota while the
        tenant's only resident blocks are the sequence's own — its working
        set alone exceeds the cap, permanently."""
        if not getattr(self.kv_provider, "last_failure_quota_bound", False):
            return False
        used_blocks = getattr(self.kv_provider, "tenant_used_blocks", None)
        blocks_held = getattr(self.kv_provider, "blocks_held", None)
        if used_blocks is None or blocks_held is None:
            return False
        return used_blocks(sequence.tenant) == blocks_held(sequence.sequence_id)

    def _shed_doomed_active(self, sequence: Sequence) -> None:
        """Permanently drop an active sequence whose KV working set can never
        fit its tenant's quota (the mid-flight mirror of the admission-side
        impossible-fit shed).  The discarded tokens are shed work, not
        recompute debt, so the eviction counters stay untouched."""
        self._remove_active(sequence)
        self.kv_provider.release(sequence)
        sequence.evict()
        if self.retain_history:
            self._shed.append(sequence)
        self.stats.shed_requests += 1
        self._rejected_ids.discard(sequence.sequence_id)
        if self.on_shed is not None:
            self.on_shed(sequence)

    def _growth_victim(self, sequence: Sequence) -> Sequence | None:
        """The sequence evicted when ``sequence``'s KV growth does not fit.

        Default: the most recently admitted active sequence, never
        ``sequence`` itself (the paper's policy).  When the growth failed on
        the tenant's *own KV quota* (the manager's
        ``last_failure_quota_bound`` flag), pressure is intra-tenant first:
        only evicting the same tenant's most recently admitted resident
        frees quota headroom — displacing another tenant would thrash their
        cache without unblocking this growth, so with no same-tenant victim
        the growth simply fails.
        """
        if getattr(self.kv_provider, "last_failure_quota_bound", False):
            for index in range(len(self._active) - 1, -1, -1):
                candidate = self._active[index]
                if candidate is not sequence and candidate.tenant == sequence.tenant:
                    return candidate
            return None
        if len(self._active) <= 1:
            return None
        victim = self._active[-1]
        if victim is sequence:
            # Never evict the sequence we are trying to grow; take the
            # next most recently admitted instead (it exists: the guard
            # above leaves at least two active sequences).
            victim = self._active[-2]
        return victim

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict[str, Any]:
        """JSON-able scheduler state for a bit-for-bit checkpoint."""
        return {
            "active": [sequence.sequence_id for sequence in self._active],
            "completed": [sequence.sequence_id for sequence in self._completed],
            "shed": [sequence.sequence_id for sequence in self._shed],
            "admission_suspended": self._admission_suspended,
            "rejected_ids": sorted(self._rejected_ids),
            "admission_stall_until": self.admission_stall_until,
            "stats": asdict(self.stats),
            "policy": self.policy.snapshot_state(),
        }

    def restore_state(
        self, state: dict[str, Any], by_id: dict[int, Sequence]
    ) -> None:
        """Rebuild scheduler state from :meth:`snapshot_state` output.

        ``by_id`` maps request ids to the freshly rebuilt sequences of the
        resumed run; order inside every restored list is the snapshot's.
        """
        self._active = [by_id[seq_id] for seq_id in state["active"]]
        self._active_ids = {sequence.sequence_id for sequence in self._active}
        self.departures += 1
        self._completed = [by_id[seq_id] for seq_id in state["completed"]]
        self._shed = [by_id[seq_id] for seq_id in state["shed"]]
        self._admission_suspended = state["admission_suspended"]
        self._rejected_ids = set(state["rejected_ids"])
        self.admission_stall_until = state["admission_stall_until"]
        self.stats = SchedulerStats(**state["stats"])
        self.policy.restore_state(state["policy"], by_id)
        self._oldest_waiting = _oldest_arrivals(self.policy.waiting())


def _oldest_arrivals(sequences: list[Sequence]) -> dict[str, float]:
    """Per tenant, the earliest arrival among never-admitted sequences."""
    oldest: dict[str, float] = {}
    for sequence in sequences:
        if sequence.phase is SequencePhase.WAITING:
            arrival = sequence.request.arrival_time
            if arrival < oldest.get(sequence.tenant, math.inf):
                oldest[sequence.tenant] = arrival
    return oldest
