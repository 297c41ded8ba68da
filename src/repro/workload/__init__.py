"""Workload generation and inter-sequence scheduling."""

from .distributions import (
    LP128_LD2048,
    LP2048_LD128,
    LP2048_LD2048,
    NAMED_DISTRIBUTIONS,
    WIKITEXT2,
    FixedLengthDistribution,
    LengthDistribution,
    LengthSample,
    UniformLengthDistribution,
    WikiTextLikeDistribution,
    get_distribution,
)
from .generator import (
    PAPER_WORKLOADS,
    Trace,
    WorkloadSpec,
    generate_trace,
    make_workload,
)
from .policies import (
    POLICY_NAMES,
    POLICY_REGISTRY,
    FCFSPolicy,
    PriorityAgingPolicy,
    SchedulingPolicy,
    WFQPolicy,
    make_policy,
)
from .requests import Request, Sequence, SequencePhase
from .scheduler import InterSequenceScheduler, KVCapacityProvider, SchedulerStats

__all__ = [
    "LengthDistribution",
    "LengthSample",
    "FixedLengthDistribution",
    "WikiTextLikeDistribution",
    "UniformLengthDistribution",
    "WIKITEXT2",
    "LP128_LD2048",
    "LP2048_LD128",
    "LP2048_LD2048",
    "NAMED_DISTRIBUTIONS",
    "get_distribution",
    "WorkloadSpec",
    "Trace",
    "make_workload",
    "generate_trace",
    "PAPER_WORKLOADS",
    "Request",
    "Sequence",
    "SequencePhase",
    "InterSequenceScheduler",
    "KVCapacityProvider",
    "SchedulerStats",
    "SchedulingPolicy",
    "FCFSPolicy",
    "WFQPolicy",
    "PriorityAgingPolicy",
    "POLICY_REGISTRY",
    "POLICY_NAMES",
    "make_policy",
]
