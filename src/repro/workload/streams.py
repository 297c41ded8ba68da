"""Lazy request streams: heap-merged per-tenant arrival generators.

This module is the only place request lengths and arrival gaps are drawn.
Every tenant is an arrival generator that draws one length sample (and,
open-loop, one exponential gap) per request, and a heap merges the tenant
generators on ``(arrival_time, tenant_index, per-tenant order)``.  Request
ids are assigned in pop order, so the merged stream is globally sorted by
that key while holding only one pending request per tenant in memory — a
million-request trace never exists as a list.

Because each tenant's arrivals are non-decreasing (a cumulative sum of
non-negative gaps), the heap invariant "one entry per tenant = that tenant's
earliest remaining request" makes the pop order globally sorted; ties at equal
arrival times break on tenant index then per-tenant order.

:class:`StreamingTrace` duck-types the parts of
:class:`~repro.workload.generator.Trace` the pipeline engines consume (``spec``,
``slo_for``, ``mean_prefill_length``, ``__len__``) without a ``requests`` list;
the scheduler pulls from its :class:`RequestStream` on demand (see
``InterSequenceScheduler.attach_stream``).  :meth:`StreamingTrace.materialize`
drains a stream into a plain ``Trace`` for callers that need the whole list.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

import numpy as np

from ..errors import ConfigurationError
from .distributions import LengthDistribution, get_distribution
from .generator import TenantSpec, Trace, WorkloadSpec, make_workload
from .requests import DEFAULT_TENANT, Request, SLOTarget


#: one request of the merge: ``(arrival, tenant_index, per-tenant order,
#: prefill, decode)`` — the sort key, then the lengths
_Entry = tuple[float, int, int, int, int]


def _arrival_source(
    index: int,
    distribution: LengthDistribution,
    num_requests: int,
    arrival_rate_per_s: float,
    length_rng: np.random.Generator,
    arrival_rng: np.random.Generator,
) -> Iterator[_Entry]:
    """Yield tenant ``index``'s merge entries lazily, one request at a time.

    Draw order per request: one length sample, then (open-loop) one
    exponential gap.  Lengths and gaps come from separate RNG streams, so
    switching a workload between batch and open-loop never changes the
    sampled request lengths (the arrival sweep, fig22, anchors its load
    fractions to the closed-batch service rate of the *same* mix).
    """
    arrival = 0.0
    for order in range(num_requests):
        sample = distribution.sample(length_rng)
        if arrival_rate_per_s > 0:
            arrival += float(arrival_rng.exponential(1.0 / arrival_rate_per_s))
        yield arrival, index, order, sample.prefill_length, sample.decode_length


class _TenantSource:
    """One tenant's lazy arrival generator and the fields its requests carry."""

    __slots__ = ("name", "weight", "priority", "arrivals")

    def __init__(
        self,
        name: str,
        weight: float,
        priority: int,
        arrivals: Iterator[_Entry],
    ) -> None:
        self.name = name
        self.weight = weight
        self.priority = priority
        self.arrivals = arrivals


class RequestStream:
    """Arrival-ordered lazy stream of :class:`Request` objects.

    Pops are globally sorted by ``(arrival_time, tenant_index, order)`` and
    request ids are assigned in pop order.  Memory held is one pending heap
    entry per tenant, independent of the trace length.
    """

    def __init__(self, sources: list[_TenantSource], total: int) -> None:
        self._sources = sources
        #: total number of requests the stream will ever emit
        self.total = total
        self._emitted = 0
        self._prefill_emitted = 0
        self._decode_emitted = 0
        #: one entry per non-exhausted tenant: its earliest remaining request
        self._heap: list[_Entry] = [
            entry for source in sources
            if (entry := next(source.arrivals, None)) is not None
        ]
        heapq.heapify(self._heap)

    # ------------------------------------------------------------------ state

    @property
    def emitted(self) -> int:
        """Requests popped so far — the resumable stream cursor."""
        return self._emitted

    @property
    def exhausted(self) -> bool:
        return not self._heap

    @property
    def prefill_tokens_emitted(self) -> int:
        return self._prefill_emitted

    @property
    def decode_tokens_emitted(self) -> int:
        return self._decode_emitted

    def peek_arrival(self) -> float | None:
        """Arrival time of the next request (None once exhausted)."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def pending_arrivals(self) -> list[tuple[str, float]]:
        """``(tenant, next arrival)`` for every non-exhausted tenant.

        Each heap entry is its tenant's earliest remaining request, so this
        is exactly the per-tenant "next pending arrival" view the scheduler
        needs to answer next-arrival queries as if the whole trace had been
        submitted up front.  Unsorted (heap order); callers take a minimum.
        """
        return [(self._sources[entry[1]].name, entry[0]) for entry in self._heap]

    # ------------------------------------------------------------------- pops

    def pop(self) -> Request:
        """Emit the next request in global arrival order."""
        heap = self._heap
        if not heap:
            raise ConfigurationError("request stream is exhausted")
        arrival, index, _, prefill, decode = heap[0]
        source = self._sources[index]
        # The popped tenant's next request takes its place in the merge.
        following = next(source.arrivals, None)
        if following is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, following)
        # Positional (field order), which is measurably cheaper per request.
        request = Request(
            self._emitted, prefill, decode, arrival,
            source.name, source.weight, source.priority,
        )
        self._emitted += 1
        self._prefill_emitted += prefill
        self._decode_emitted += decode
        return request

    def __iter__(self) -> Iterator[Request]:
        while self._heap:
            yield self.pop()


class StreamingTrace:
    """A trace whose requests are generated on demand.

    Duck-types the :class:`~repro.workload.generator.Trace` surface the
    pipeline engines read (``spec``, ``slo``, ``tenant_slos``, ``slo_for``,
    ``mean_prefill_length``, ``__len__``) — but has no ``requests`` list; the
    scheduler pulls from :attr:`stream` as simulated time advances.

    ``mean_prefill_length`` is accumulated over *emitted* requests with the
    same integer sum / ``max(1, n)`` division as ``Trace``, so once the stream
    has drained (which is when the engines read it) the value is bitwise equal
    to the materialised trace's.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        stream: RequestStream,
        slo: SLOTarget | None = None,
        tenant_slos: dict[str, SLOTarget] | None = None,
        tenant_quotas: dict[str, float] | None = None,
    ) -> None:
        self.spec = spec
        self.stream = stream
        self.slo = slo
        self.tenant_slos: dict[str, SLOTarget] = dict(tenant_slos or {})
        self.tenant_quotas: dict[str, float] = dict(tenant_quotas or {})

    def slo_for(self, tenant: str) -> SLOTarget | None:
        """The SLO a tenant's requests are judged by (override, else global)."""
        return self.tenant_slos.get(tenant, self.slo)

    def __len__(self) -> int:
        return self.stream.total

    def __iter__(self) -> Iterator[Request]:
        """Drain the remaining requests lazily, in arrival order."""
        return iter(self.stream)

    @property
    def mean_prefill_length(self) -> float:
        return self.stream.prefill_tokens_emitted / max(1, self.stream.emitted)

    @property
    def mean_decode_length(self) -> float:
        return self.stream.decode_tokens_emitted / max(1, self.stream.emitted)

    def materialize(self) -> Trace:
        """Drain the stream into a plain :class:`Trace` (small-N shim)."""
        requests = list(self.stream)
        return Trace(
            spec=self.spec,
            requests=requests,
            slo=self.slo,
            tenant_slos=dict(self.tenant_slos),
            tenant_quotas=dict(self.tenant_quotas),
        )


def multi_tenant_stream(
    tenants: tuple[TenantSpec, ...] | list[TenantSpec],
    seed: int = 0,
    slo: SLOTarget | None = None,
) -> StreamingTrace:
    """Interleave independent per-tenant request streams into one stream.

    Every tenant samples lengths and arrival gaps from RNG streams derived
    from ``(seed, tenant index)``, so adding a tenant (or changing its rate)
    never perturbs another tenant's requests.  The merge emits requests in
    ``(arrival, tenant index, order)`` order with ids assigned in emission
    order, which makes the FCFS scheduler's queue order equal arrival order.
    """
    if not tenants:
        raise ConfigurationError("at least one tenant is required")
    names = [tenant.name for tenant in tenants]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"tenant names must be unique, got {names}")
    sources: list[_TenantSource] = []
    for index, tenant in enumerate(tenants):
        distribution = get_distribution(tenant.workload)
        # Independent streams per tenant, lengths decoupled from arrivals:
        # changing a tenant's offered load must not change its request mix.
        length_rng = np.random.default_rng((seed, index))
        arrival_rng = np.random.default_rng((seed, index, 1))
        sources.append(
            _TenantSource(
                name=tenant.name,
                weight=tenant.weight,
                priority=tenant.priority,
                arrivals=_arrival_source(
                    index,
                    distribution,
                    tenant.num_requests,
                    tenant.arrival_rate_per_s,
                    length_rng,
                    arrival_rng,
                ),
            )
        )
    total = sum(tenant.num_requests for tenant in tenants)
    spec = WorkloadSpec(
        name="+".join(names),
        distribution=get_distribution(tenants[0].workload),
        num_requests=total,
        seed=seed,
    )
    tenant_slos = {
        tenant.name: tenant.slo for tenant in tenants if tenant.slo is not None
    }
    tenant_quotas = {
        tenant.name: tenant.kv_quota
        for tenant in tenants
        if tenant.kv_quota is not None
    }
    return StreamingTrace(
        spec=spec,
        stream=RequestStream(sources, total),
        slo=slo,
        tenant_slos=tenant_slos,
        tenant_quotas=tenant_quotas,
    )


def stream_from_spec(spec: WorkloadSpec) -> StreamingTrace:
    """Lazy single-tenant stream of a workload spec.

    Uses ``default_rng(seed)`` for lengths and ``default_rng((seed, 1))`` for
    arrival gaps — not the multi-tenant ``(seed, index)`` derivation — and
    its requests carry the default tenant, weight and priority.
    """
    length_rng = np.random.default_rng(spec.seed)
    arrival_rng = np.random.default_rng((spec.seed, 1))
    source = _TenantSource(
        name=DEFAULT_TENANT,
        weight=1.0,
        priority=0,
        arrivals=_arrival_source(
            0,
            spec.distribution,
            spec.num_requests,
            spec.arrival_rate_per_s,
            length_rng,
            arrival_rng,
        ),
    )
    return StreamingTrace(
        spec=spec, stream=RequestStream([source], spec.num_requests)
    )


def workload_stream(
    name: str,
    num_requests: int = 1000,
    seed: int = 0,
    arrival_rate_per_s: float = 0.0,
) -> StreamingTrace:
    """Convenience wrapper: build a workload spec and stream its trace."""
    return stream_from_spec(
        make_workload(name, num_requests, seed, arrival_rate_per_s)
    )
