"""Pluggable admission-order policies for the inter-sequence scheduler.

PR 4 made head-of-line blocking *measurable* (per-tenant ``TenantStats``);
this module makes it *fixable*: the admission order of
:class:`~repro.workload.scheduler.InterSequenceScheduler` is delegated to a
:class:`SchedulingPolicy`, of which three implementations exist:

``fcfs``
    The paper's First-Come-First-Serve queue, bit-for-bit the historical
    behaviour: the queue head gates everything behind it, whether it is
    blocked on capacity or (open-loop serving) has not arrived yet.

``wfq``
    Weighted fair queueing over tenants (start-time fair queueing at the
    admission granularity).  Each tenant keeps a FIFO queue; an admitted
    request advances its tenant's virtual finish tag by
    ``total_tokens / weight`` (weights ride on
    :class:`~repro.workload.generator.TenantSpec` and thread onto every
    :class:`~repro.workload.requests.Request`), and the arrived tenant head
    with the smallest virtual start tag is admitted next.  The policy is
    work-conserving: whenever *any* waiting request has arrived, one is
    eligible — a long batch request that has not arrived, does not fit the
    cache, or belongs to a tenant that recently consumed its share can no
    longer head-of-line-block an interactive tenant.

``priority``
    Strict per-tenant priority admission with starvation-free aging: the
    arrived tenant head with the highest *effective* priority — its static
    ``priority`` plus ``aging_rate`` priority units per second of waiting —
    is admitted next.  A request outranked by ``d`` priority levels overtakes
    the higher class after at most ``d / aging_rate`` seconds in the queue,
    which bounds starvation; ``aging_rate=0`` degenerates to (starvable)
    strict priority.

Every policy preserves FIFO order *within* a tenant, so per-tenant latency
stays monotone in arrival order and an evicted victim re-enters at the front
of its own tenant's queue.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterator, Mapping
from collections.abc import Set as AbstractSet
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (requests is light,
    from .requests import Sequence  # but keep the runtime surface minimal)


@runtime_checkable
class SchedulingPolicy(Protocol):
    """Admission-order policy driven by the inter-sequence scheduler.

    The scheduler owns capacity, eviction and bookkeeping; the policy owns
    *order*: which waiting sequence is the next admission candidate at a
    given wall-clock instant.
    """

    #: registry key of the policy (``fcfs`` / ``wfq`` / ``priority``)
    name: str

    def push(self, sequence: "Sequence") -> None:
        """Enqueue a newly submitted sequence."""
        ...

    def push_front(self, sequence: "Sequence") -> None:
        """Re-queue an evicted sequence at the front of its (tenant) queue."""
        ...

    def select(
        self, time: float, exclude: AbstractSet[int] = frozenset()
    ) -> "Sequence | None":
        """The admission candidate at ``time`` (None: nothing has arrived).

        Selecting must be side-effect-free: the scheduler may select the same
        candidate across many epochs while it is blocked on capacity.
        ``exclude`` holds sequence ids already rejected on capacity this
        admission round: FCFS returns None when its head is excluded (the
        head gates everything, the historical behaviour), while the
        tenant-aware policies skip excluded heads and propose another
        tenant's — a capacity-blocked 4k-token batch request must not block
        an interactive request that would fit.  The set is read only, and
        the scheduler keeps adding to it, so a policy must not hold on to it.
        """
        ...

    def pop(self, sequence: "Sequence", time: float) -> None:
        """Commit the admission of a previously selected candidate."""
        ...

    def select_victim(
        self, candidate: "Sequence", active: list["Sequence"]
    ) -> "Sequence | None":
        """A resident sequence worth displacing so ``candidate`` can enter.

        Preemptive scheduling only: when the scheduler cannot admit the
        selected candidate (concurrency cap or KV capacity), it asks the
        policy for a victim among the *active* sequences.  A policy may only
        nominate a sequence it ranks *strictly below* the candidate — under
        ``priority`` a strictly lower static priority, under ``wfq`` a
        strictly lower tenant weight — so two preemptions can never
        ping-pong.  ``None`` declines (FCFS always declines: admission order
        is arrival order and a resident sequence always arrived earlier).
        Selection must be side-effect-free; the scheduler performs the
        eviction and re-queues the victim tenant/priority-preserved.
        ``active`` holds sequences that passed through the policy's queue
        (pushed or restored), which lets a policy decline at once when no
        sequence it ever held ranks below the candidate.
        """
        ...

    def next_arrival_time(self) -> float | None:
        """Earliest instant admission can next make progress (None: empty)."""
        ...

    def next_future_arrival(self, time: float) -> float | None:
        """Earliest candidate arrival strictly after ``time`` (None: no such).

        Drives the engines' sub-epoch split boundary: FCFS only ever splits
        at its head's arrival, while the tenant-aware policies split at the
        earliest future tenant-head arrival even when another head has
        already arrived and is blocked on capacity (the newcomer may fit).
        """
        ...

    def pending_head_arrivals(self, pending: list[tuple[str, float]]) -> list[float]:
        """Which not-yet-pulled stream arrivals can affect admission order.

        ``pending`` holds one ``(tenant, next arrival)`` pair per tenant still
        producing in an attached lazy request stream.  The policy answers with
        the arrivals that would have been *next-arrival candidates* had the
        whole trace been submitted up front: FCFS yields none while its queue
        is non-empty (the head gates everything — a pending later submission
        can never be the candidate), and everything once it is empty; the
        tenant-aware policies yield the arrivals of tenants whose own queue is
        currently empty (a tenant with a queued head hides its later
        arrivals, but never another tenant's).  Keeps the scheduler's
        ``next_arrival_time``/``next_future_arrival`` answers — and with them
        the engines' epoch-split boundaries — bit-for-bit equal to the
        materialised submit-everything path.
        """
        ...

    def waiting(self) -> list["Sequence"]:
        """Snapshot of the waiting sequences (policy-specific order)."""
        ...

    def remove(self, sequence: "Sequence") -> bool:
        """Drop a waiting sequence (overload shed); True when it was queued."""
        ...

    def snapshot_state(self) -> dict[str, Any]:
        """JSON-able queue/virtual-time state for checkpointing."""
        ...

    def restore_state(
        self, state: dict[str, Any], by_id: Mapping[int, "Sequence"]
    ) -> None:
        """Rebuild queues from :meth:`snapshot_state` output.

        ``by_id`` maps request ids to the (freshly rebuilt) sequence objects
        of the run being resumed.
        """
        ...

    def __len__(self) -> int: ...


class FCFSPolicy:
    """First-Come-First-Serve: one global queue, the head gates everything.

    Bit-for-bit the pre-policy scheduler behaviour, including the subtlety
    that a later-submitted request arriving *earlier* than the head still
    waits behind it (``next_arrival_time`` is the head's arrival, not the
    minimum over the queue).
    """

    name = "fcfs"

    def __init__(self) -> None:
        self._queue: deque[Sequence] = deque()

    def push(self, sequence: "Sequence") -> None:
        self._queue.append(sequence)

    def push_front(self, sequence: "Sequence") -> None:
        self._queue.appendleft(sequence)

    def select(
        self, time: float, exclude: AbstractSet[int] = frozenset()
    ) -> "Sequence | None":
        if not self._queue:
            return None
        head = self._queue[0]
        if head.eligible_time > time:
            return None
        if head.sequence_id in exclude:
            # The FCFS head gates everything behind it, even on capacity.
            return None
        return head

    def pop(self, sequence: "Sequence", time: float) -> None:
        if not self._queue or self._queue[0] is not sequence:
            raise ConfigurationError(
                "FCFS pop must remove the selected queue head"
            )
        self._queue.popleft()

    def select_victim(
        self, candidate: "Sequence", active: list["Sequence"]
    ) -> "Sequence | None":
        # FCFS never preempts: every resident sequence arrived before the
        # candidate, so displacing one would invert arrival order.
        return None

    def next_arrival_time(self) -> float | None:
        if not self._queue:
            return None
        return self._queue[0].eligible_time

    def next_future_arrival(self, time: float) -> float | None:
        arrival = self.next_arrival_time()
        if arrival is None or arrival <= time:
            return None
        return arrival

    def pending_head_arrivals(self, pending: list[tuple[str, float]]) -> list[float]:
        # A non-empty FCFS queue gates everything behind it: requests still
        # inside the stream were submitted later than every queued sequence,
        # so none of them can be the next candidate.  Once the queue drains,
        # the earliest pending submission is exactly the next head.
        if self._queue:
            return []
        return [arrival for _, arrival in pending]

    def waiting(self) -> list["Sequence"]:
        return list(self._queue)

    def remove(self, sequence: "Sequence") -> bool:
        # Identity scan: Sequence is a plain dataclass whose generated
        # equality compares fields, which is the wrong notion here.
        for index, queued in enumerate(self._queue):
            if queued is sequence:
                del self._queue[index]
                return True
        return False

    def snapshot_state(self) -> dict[str, Any]:
        return {"queue": [seq.sequence_id for seq in self._queue]}

    def restore_state(
        self, state: dict[str, Any], by_id: Mapping[int, "Sequence"]
    ) -> None:
        self._queue = deque(by_id[seq_id] for seq_id in state["queue"])

    def __len__(self) -> int:
        return len(self._queue)


class _TenantQueuedPolicy:
    """Shared structure of the tenant-aware policies: FIFO per tenant.

    Selection only ever considers tenant queue *heads*: within a tenant all
    requests share the policy inputs (weight / static priority) and FIFO
    order dominates every tie-break, so the head is always preferred over
    anything behind it — scanning heads is globally optimal and O(#tenants).
    """

    def __init__(self) -> None:
        #: per-tenant FIFO queues, in first-seen tenant order (deterministic)
        self._queues: dict[str, deque[Sequence]] = {}
        self._size = 0
        #: the lowest :meth:`_rank` of any sequence ever queued or restored
        self._lowest_rank = math.inf

    @staticmethod
    def _rank(sequence: "Sequence") -> float:
        """A sequence's preemption rank: a victim must rank strictly below
        the candidate it makes room for."""
        raise NotImplementedError

    def _queue_for(self, tenant: str) -> "deque[Sequence]":
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        return queue

    def push(self, sequence: "Sequence") -> None:
        self._queue_for(sequence.request.tenant).append(sequence)
        self._size += 1
        rank = self._rank(sequence)
        if rank < self._lowest_rank:
            self._lowest_rank = rank

    def push_front(self, sequence: "Sequence") -> None:
        self._queue_for(sequence.request.tenant).appendleft(sequence)
        self._size += 1
        rank = self._rank(sequence)
        if rank < self._lowest_rank:
            self._lowest_rank = rank

    def pop(self, sequence: "Sequence", time: float) -> None:
        queue = self._queues.get(sequence.request.tenant)
        if not queue or queue[0] is not sequence:
            raise ConfigurationError(
                "policy pop must remove the selected tenant-queue head"
            )
        queue.popleft()
        self._size -= 1

    def _heads(self) -> Iterator[tuple[str, "Sequence"]]:
        for tenant, queue in self._queues.items():
            if queue:
                yield tenant, queue[0]

    def _select_best(
        self,
        time: float,
        exclude: AbstractSet[int],
        key: Callable[[str, "Sequence"], Any],
    ) -> "Sequence | None":
        """Arrived, non-excluded tenant head minimising ``key(tenant, head)``.

        The shared scan behind both tenant-aware ``select`` implementations;
        only the sort key differs between wfq and priority.
        """
        best: Sequence | None = None
        best_key: Any = None
        for tenant, head in self._heads():
            if head.eligible_time > time:
                continue
            if head.sequence_id in exclude:
                continue  # capacity-blocked head: offer another tenant's
            head_key = key(tenant, head)
            if best_key is None or head_key < best_key:
                best, best_key = head, head_key
        return best

    def select_victim(
        self, candidate: "Sequence", active: list["Sequence"]
    ) -> "Sequence | None":
        """The resident :meth:`_lowest_ranked` picks below the candidate's
        :meth:`_rank`.

        Every resident passed through the queue, so when the candidate
        ranks at or below every sequence the policy ever queued or
        restored, none ranks strictly below it: decline without the scan.
        """
        threshold = self._rank(candidate)
        if threshold <= self._lowest_rank:
            return None
        return self._lowest_ranked(active, self._rank, threshold)

    def _lowest_ranked(
        self,
        active: list["Sequence"],
        rank: Callable[["Sequence"], float],
        threshold: float,
    ) -> "Sequence | None":
        """Active sequence with the strictly lowest rank below ``threshold``.

        Ties prefer the most recently admitted victim (largest admission
        time, then largest id): it has sunk the least service, so its
        eviction wastes the fewest recompute tokens.  Deterministic — both
        engine paths scan the same active list in the same order.
        """
        best: Sequence | None = None
        best_key: tuple[float, float, int] | None = None
        for sequence in active:
            value = rank(sequence)
            if value >= threshold:
                continue
            key = (value, -sequence.admission_time, -sequence.sequence_id)
            if best_key is None or key < best_key:
                best, best_key = sequence, key
        return best

    def next_arrival_time(self) -> float | None:
        """Minimum arrival over the tenant heads (any arrived head is
        eligible, unlike FCFS where only the global head can unblock)."""
        arrivals = [head.eligible_time for _, head in self._heads()]
        if not arrivals:
            return None
        return min(arrivals)

    def next_future_arrival(self, time: float) -> float | None:
        """Earliest tenant-head arrival strictly after ``time``.

        Unlike FCFS, an already-arrived (possibly capacity-blocked) head
        does not hide a later head: the engines still split epochs at the
        newcomer's arrival, because the policy may admit it immediately.
        """
        arrivals = [
            head.eligible_time
            for _, head in self._heads()
            if head.eligible_time > time
        ]
        if not arrivals:
            return None
        return min(arrivals)

    def pending_head_arrivals(self, pending: list[tuple[str, float]]) -> list[float]:
        # Per-tenant FIFO: a tenant's queued head hides its own later stream
        # arrivals (they sit behind it), but a tenant whose queue is empty
        # would — under full submission — contribute its next request as a
        # tenant head, so its pending arrival is a genuine candidate.
        return [
            arrival
            for tenant, arrival in pending
            if not self._queues.get(tenant)
        ]

    def waiting(self) -> list["Sequence"]:
        flat: list[Sequence] = []
        for queue in self._queues.values():
            flat.extend(queue)
        return flat

    def remove(self, sequence: "Sequence") -> bool:
        queue = self._queues.get(sequence.request.tenant)
        if not queue:
            return False
        for index, queued in enumerate(queue):
            if queued is sequence:
                del queue[index]
                self._size -= 1
                return True
        return False

    def snapshot_state(self) -> dict[str, Any]:
        # Empty queues are kept: the dict's first-seen tenant order is part
        # of the deterministic selection order and must survive a resume.
        return {
            "queues": [
                [tenant, [seq.sequence_id for seq in queue]]
                for tenant, queue in self._queues.items()
            ]
        }

    def restore_state(
        self, state: dict[str, Any], by_id: Mapping[int, "Sequence"]
    ) -> None:
        self._queues = {
            tenant: deque(by_id[seq_id] for seq_id in ids)
            for tenant, ids in state["queues"]
        }
        self._size = sum(len(queue) for queue in self._queues.values())
        # ``by_id`` holds every sequence the resumed run tracks, the
        # residents among them.
        self._lowest_rank = min(map(self._rank, by_id.values()), default=math.inf)

    def __len__(self) -> int:
        return self._size


class WFQPolicy(_TenantQueuedPolicy):
    """Weighted fair queueing over tenants (start-time fair queueing).

    Each tenant ``t`` carries a virtual finish tag ``F_t``.  Admitting a
    request of cost ``c = request.total_tokens`` and weight ``w`` sets

        S = max(V, F_t);  F_t = S + c / w;  V = S

    where ``V`` is the global virtual time (the start tag of the last
    admitted request).  ``select`` returns the *arrived* tenant head with the
    smallest start tag ``max(V, F_t)``; ties break deterministically on
    (arrival time, request id).  Tenants that recently admitted expensive
    requests therefore wait for the others' virtual time to catch up —
    service (token) fairness, not request-count fairness.

    An evicted-and-re-admitted request is charged again on re-admission.
    That is deliberate: the re-admission really does consume the wafer a
    second time (the entire discarded context is re-prefilled), so the
    tenant's share accounts for the recompute work its eviction caused.
    """

    name = "wfq"

    def __init__(self) -> None:
        super().__init__()
        self._finish: dict[str, float] = {}
        self._vtime = 0.0

    def _start_tag(self, tenant: str) -> float:
        return max(self._vtime, self._finish.get(tenant, 0.0))

    def select(
        self, time: float, exclude: AbstractSet[int] = frozenset()
    ) -> "Sequence | None":
        return self._select_best(
            time,
            exclude,
            lambda tenant, head: (
                self._start_tag(tenant),
                head.request.arrival_time,
                head.request.request_id,
            ),
        )

    def pop(self, sequence: "Sequence", time: float) -> None:
        tenant = sequence.request.tenant
        start = self._start_tag(tenant)
        weight = max(sequence.request.weight, 1e-9)
        self._finish[tenant] = start + sequence.request.total_tokens / weight
        self._vtime = start
        super().pop(sequence, time)

    @staticmethod
    def _rank(sequence: "Sequence") -> float:
        """Tenant weight: a preemption displaces the lightest-weight resident
        strictly below the candidate.

        Weight is wfq's notion of rank (a tenant's service share), so a
        heavier tenant's arrival may reclaim blocks from the lightest
        resident tenant; equal weights never preempt, which keeps the
        preemption relation a strict order.
        """
        return sequence.request.weight

    def snapshot_state(self) -> dict[str, Any]:
        state = super().snapshot_state()
        state["finish"] = [[tenant, tag] for tenant, tag in self._finish.items()]
        state["vtime"] = self._vtime
        return state

    def restore_state(
        self, state: dict[str, Any], by_id: Mapping[int, "Sequence"]
    ) -> None:
        super().restore_state(state, by_id)
        self._finish = {tenant: tag for tenant, tag in state["finish"]}
        self._vtime = state["vtime"]


class PriorityAgingPolicy(_TenantQueuedPolicy):
    """Strict priority admission with starvation-free aging.

    The arrived tenant head with the highest effective priority

        effective = request.priority + aging_rate * (time - arrival_time)

    is admitted next (ties break on arrival time, then request id).  With
    ``aging_rate > 0`` a request outranked by ``d`` priority levels waits at
    most ``d / aging_rate`` seconds longer than the higher class, which
    bounds starvation; ``aging_rate = 0`` is pure strict priority.
    """

    name = "priority"

    def __init__(self, aging_rate: float = 1.0) -> None:
        super().__init__()
        if aging_rate < 0:
            raise ConfigurationError("priority aging_rate cannot be negative")
        self.aging_rate = aging_rate

    def select(
        self, time: float, exclude: AbstractSet[int] = frozenset()
    ) -> "Sequence | None":
        def key(tenant: str, head: "Sequence") -> tuple[float, float, int]:
            arrival = head.request.arrival_time
            effective = head.request.priority + self.aging_rate * (time - arrival)
            return (-effective, arrival, head.request.request_id)

        return self._select_best(time, exclude, key)

    @staticmethod
    def _rank(sequence: "Sequence") -> float:
        """Static priority: a preemption displaces the lowest-priority
        resident strictly below the candidate.

        Static priorities only: aging rewards *waiting*, and a resident
        sequence is being served, not waiting — so a low-priority sequence
        can never age itself into preemption immunity.
        """
        return float(sequence.request.priority)


#: registry key -> factory; the single source of valid policy names
POLICY_REGISTRY: dict[str, Callable[[], SchedulingPolicy]] = {
    "fcfs": FCFSPolicy,
    "wfq": WFQPolicy,
    "priority": PriorityAgingPolicy,
}

POLICY_NAMES = tuple(sorted(POLICY_REGISTRY))


def validate_policy_name(name: str) -> str:
    """Normalise and validate a policy key (typed error on unknown names)."""
    key = name.lower()
    if key not in POLICY_REGISTRY:
        raise ConfigurationError(
            f"unknown scheduling policy '{name}'; known policies: "
            f"{sorted(POLICY_REGISTRY)}"
        )
    return key


def make_policy(name: str, *, aging_rate: float = 1.0) -> SchedulingPolicy:
    """Instantiate a scheduling policy by registry key.

    ``aging_rate`` parameterises the ``priority`` policy (priority units
    gained per second of waiting) and is ignored by the others.
    """
    key = validate_policy_name(name)
    if key == "priority":
        return PriorityAgingPolicy(aging_rate=aging_rate)
    return POLICY_REGISTRY[key]()
