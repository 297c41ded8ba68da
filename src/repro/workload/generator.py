"""Trace vocabulary: workload and tenant specs, and the materialised trace.

Request lengths and arrival gaps are drawn in one place, the lazy arrival
streams of :mod:`repro.workload.streams`.  :func:`generate_trace` drains one
of them into a :class:`Trace` for callers that price a whole trace at once
(the analytical baselines) or hand-build one.  A multi-tenant trace carries
each request's tenant id, which is what the per-tenant latency/goodput
accounting in the engines keys on.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from .distributions import LengthDistribution, get_distribution
from .requests import Request, SLOTarget


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload: a length distribution plus a request count."""

    name: str
    distribution: LengthDistribution
    num_requests: int = 1000
    seed: int = 0
    #: mean Poisson arrival rate in requests/s (0 = closed batch, all at t=0)
    arrival_rate_per_s: float = 0.0

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ConfigurationError("num_requests must be positive")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a multi-tenant serving workload.

    ``workload`` names a length distribution (any string
    :func:`~repro.workload.distributions.get_distribution` accepts), and the
    tenant's requests arrive as an independent Poisson process at
    ``arrival_rate_per_s`` (0 = all at t=0).  The spec is frozen and
    serializable so it can ride inside a
    :class:`~repro.api.DeploymentSpec` and the sweep-cache keys.
    """

    name: str
    workload: str
    num_requests: int = 100
    #: mean Poisson arrival rate in requests/s (0 = all requests at t=0)
    arrival_rate_per_s: float = 0.0
    #: tenant-specific SLO; overrides the deployment-wide target for this
    #: tenant's requests (interactive and batch tenants rarely share one)
    slo: SLOTarget | None = None
    #: weighted-fair-queueing share of the tenant (admission virtual time
    #: advances by ``total_tokens / weight``; only the ``wfq`` policy reads it)
    weight: float = 1.0
    #: static admission priority (higher = admitted first; only the
    #: ``priority`` policy reads it, with aging closing the gaps over time)
    priority: int = 0
    #: fraction of the KV cache's blocks this tenant may occupy (None = no
    #: cap).  0.0 is a valid cap that rejects every admission; the KV
    #: managers floor the fraction to whole blocks.  Quotas across tenants
    #: may sum to at most 1.0 (validated by ``DeploymentSpec.validate``).
    kv_quota: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if self.num_requests <= 0:
            raise ConfigurationError("tenant num_requests must be positive")
        if self.arrival_rate_per_s < 0:
            raise ConfigurationError("tenant arrival_rate_per_s cannot be negative")
        if self.weight <= 0:
            raise ConfigurationError("tenant weight must be positive")
        if self.kv_quota is not None and not 0.0 <= self.kv_quota <= 1.0:
            raise ConfigurationError("tenant kv_quota must lie in [0, 1]")
        get_distribution(self.workload)  # validate eagerly


@dataclass
class Trace:
    """A generated batch of requests."""

    spec: WorkloadSpec
    requests: list[Request] = field(default_factory=list)
    #: per-request SLO the serving engines evaluate goodput against (optional)
    slo: SLOTarget | None = None
    #: tenant-specific SLO overrides, keyed by tenant id
    tenant_slos: dict[str, SLOTarget] = field(default_factory=dict)
    #: per-tenant KV-block quota fractions, keyed by tenant id (see
    #: :attr:`TenantSpec.kv_quota`; empty = no tenant is capped)
    tenant_quotas: dict[str, float] = field(default_factory=dict)

    def slo_for(self, tenant: str) -> SLOTarget | None:
        """The SLO a tenant's requests are judged by (override, else global)."""
        return self.tenant_slos.get(tenant, self.slo)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    @property
    def total_prefill_tokens(self) -> int:
        return sum(request.prefill_length for request in self.requests)

    @property
    def total_decode_tokens(self) -> int:
        return sum(request.decode_length for request in self.requests)

    @property
    def total_tokens(self) -> int:
        return self.total_prefill_tokens + self.total_decode_tokens

    @property
    def mean_prefill_length(self) -> float:
        return self.total_prefill_tokens / max(1, len(self.requests))

    @property
    def mean_decode_length(self) -> float:
        return self.total_decode_tokens / max(1, len(self.requests))

    def summary(self) -> dict[str, float]:
        prefills = [request.prefill_length for request in self.requests]
        decodes = [request.decode_length for request in self.requests]
        return {
            "num_requests": len(self.requests),
            "mean_prefill": float(np.mean(prefills)),
            "max_prefill": float(np.max(prefills)),
            "mean_decode": float(np.mean(decodes)),
            "max_decode": float(np.max(decodes)),
            "total_tokens": float(self.total_tokens),
        }


def make_workload(
    name: str,
    num_requests: int = 1000,
    seed: int = 0,
    arrival_rate_per_s: float = 0.0,
) -> WorkloadSpec:
    """Build one of the paper's workload settings by name.

    Recognised names: ``wikitext2``, ``lp128_ld2048``, ``lp2048_ld128``,
    ``lp2048_ld2048``.  A nonzero ``arrival_rate_per_s`` turns the batch into
    an open-loop trace with Poisson arrivals at that mean rate.
    """
    distribution = get_distribution(name)
    return WorkloadSpec(
        name=distribution.name,
        distribution=distribution,
        num_requests=num_requests,
        seed=seed,
        arrival_rate_per_s=arrival_rate_per_s,
    )


def generate_trace(
    name: str,
    num_requests: int = 1000,
    seed: int = 0,
    arrival_rate_per_s: float = 0.0,
) -> Trace:
    """Convenience wrapper: build a workload spec and materialise its trace."""
    from .streams import workload_stream  # local: streams imports us

    return workload_stream(name, num_requests, seed, arrival_rate_per_s).materialize()


PAPER_WORKLOADS = ("wikitext2", "lp128_ld2048", "lp2048_ld128", "lp2048_ld2048")
