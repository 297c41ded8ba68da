"""Shared result dataclasses used by the pipeline engines, simulator and baselines.

Also home of the streaming statistics layer: :class:`LatencyAccumulator`
summarises per-request latency samples in O(1) memory behind the existing
:class:`LatencyStats` shape (exact at small N — the bitwise CI anchors — and
P² quantile estimation beyond :data:`EXACT_SAMPLE_LIMIT` samples), and
:class:`ServeAccumulator` folds completed/shed sequences into per-tenant
stats incrementally so the engines never hold per-sequence sample lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # import cycle guard: workload.requests is engine-side
    import numpy as np
    import numpy.typing as npt

    from .workload.requests import Sequence, SLOTarget


def _percentile(ordered: npt.NDArray[np.float64], percent: float) -> float:
    """``np.percentile(values, percent)`` of the sorted ``values``, bit for bit.

    NumPy's default "linear" rule, step for step as NumPy 2.x computes it:
    the virtual index ``(n - 1) * q``, the two samples round it, and
    ``_lerp``'s two-sided interpolation.  ``np.percentile`` itself imports
    ``numpy.ma`` on its first call (through ``np.unique``), which costs a
    process's first serve about 11 ms.
    """
    last = len(ordered) - 1
    if math.isnan(ordered[last]):
        return float(ordered[last])  # NumPy sorts NaN last and returns it
    virtual = last * (percent / 100)
    if virtual >= last:
        # Both neighbours clamp to the last sample; the weight keeps its
        # distance from index -1.
        below = above = float(ordered[last])
        weight = virtual + 1
    else:
        index = math.floor(virtual)
        below, above = float(ordered[index]), float(ordered[index + 1])
        weight = virtual - index
    difference = above - below
    if weight >= 0.5:
        return above - difference * (1 - weight)
    return below + difference * weight


@dataclass
class LatencyStats:
    """Distribution summary of a per-request latency metric (seconds).

    Used for TTFT (time to first output token) and end-to-end request latency
    in open-loop serving; with batch traces every arrival is t=0, so the
    end-to-end numbers degrade gracefully to completion times.
    """

    count: int = 0
    mean_s: float = 0.0
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    max_s: float = 0.0

    @classmethod
    def from_samples(cls, samples: list[float]) -> "LatencyStats":
        if not samples:
            return cls()
        import numpy as np

        values = np.asarray(samples, dtype=np.float64)
        ordered = np.sort(values)
        return cls(
            count=len(samples),
            mean_s=float(values.mean()),
            p50_s=_percentile(ordered, 50.0),
            p95_s=_percentile(ordered, 95.0),
            p99_s=_percentile(ordered, 99.0),
            max_s=float(values.max()),
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean_s": self.mean_s,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "max_s": self.max_s,
        }


@dataclass
class TenantStats:
    """Per-tenant slice of a serving run's latency and SLO accounting.

    ``goodput`` is the fraction of the tenant's completed requests meeting the
    trace's :class:`~repro.workload.requests.SLOTarget`; it is ``None`` when
    the run had no SLO to evaluate.  Counts sum to the aggregate across the
    tenants of a run (every completed request belongs to exactly one tenant).
    """

    requests: int = 0
    ttft: LatencyStats = field(default_factory=LatencyStats)
    latency: LatencyStats = field(default_factory=LatencyStats)
    goodput: float | None = None
    #: requests of this tenant permanently dropped by the overload shedder
    #: (they count against goodput: a shed request never met its SLO)
    shed: int = 0
    #: requests of this tenant still waiting for admission when the stats
    #: were captured — always 0 for a drained batch run; the daemon's live
    #: metrics report the current depth through the same field
    queue_depth: int = 0
    #: arrival-to-admission wait of the tenant's completed requests
    admission_wait: LatencyStats = field(default_factory=LatencyStats)
    #: KV evictions suffered by the tenant's completed requests (capacity
    #: pressure, faults and preemptions combined)
    evictions: int = 0
    #: evictions that were scheduling preemptions (subset of ``evictions``)
    preemptions: int = 0
    #: tokens the tenant's completed requests re-prefilled after evictions
    #: — the recompute tax of thrashing, faults and preemption
    recomputed_tokens: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "ttft": self.ttft.as_dict(),
            "latency": self.latency.as_dict(),
            "goodput": self.goodput,
            "shed": self.shed,
            "queue_depth": self.queue_depth,
            "admission_wait": self.admission_wait.as_dict(),
            "evictions": self.evictions,
            "preemptions": self.preemptions,
            "recomputed_tokens": self.recomputed_tokens,
        }


@dataclass
class EnergyBreakdown:
    """Energy split into the four categories the paper plots (Fig. 14/20).

    All values in joules.
    """

    compute_j: float = 0.0
    on_chip_memory_j: float = 0.0
    off_chip_memory_j: float = 0.0
    communication_j: float = 0.0

    @property
    def total_j(self) -> float:
        return (
            self.compute_j
            + self.on_chip_memory_j
            + self.off_chip_memory_j
            + self.communication_j
        )

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            compute_j=self.compute_j + other.compute_j,
            on_chip_memory_j=self.on_chip_memory_j + other.on_chip_memory_j,
            off_chip_memory_j=self.off_chip_memory_j + other.off_chip_memory_j,
            communication_j=self.communication_j + other.communication_j,
        )

    def scaled(self, factor: float) -> "EnergyBreakdown":
        return EnergyBreakdown(
            compute_j=self.compute_j * factor,
            on_chip_memory_j=self.on_chip_memory_j * factor,
            off_chip_memory_j=self.off_chip_memory_j * factor,
            communication_j=self.communication_j * factor,
        )

    def fractions(self) -> dict[str, float]:
        total = self.total_j
        if total == 0:
            return {key: 0.0 for key in ("compute", "on_chip_memory", "off_chip_memory", "communication")}
        return {
            "compute": self.compute_j / total,
            "on_chip_memory": self.on_chip_memory_j / total,
            "off_chip_memory": self.off_chip_memory_j / total,
            "communication": self.communication_j / total,
        }

    def as_dict(self) -> dict[str, float]:
        return {
            "compute_j": self.compute_j,
            "on_chip_memory_j": self.on_chip_memory_j,
            "off_chip_memory_j": self.off_chip_memory_j,
            "communication_j": self.communication_j,
            "total_j": self.total_j,
        }


@dataclass
class FaultStats:
    """Counters describing injected faults and their recovery cost.

    Produced by the fault injector (``repro.sim.faults``) and surfaced on
    :class:`RunResult.faults`; lives here so the workload/pipeline layers can
    reference it without importing the simulator.
    """

    #: fault events applied during the run
    injected: int = 0
    kv_core_failures: int = 0
    weight_core_failures: int = 0
    kv_block_losses: int = 0
    admission_stalls: int = 0
    #: resident sequences whose KV a fault destroyed and that were re-queued
    recovered_sequences: int = 0
    #: tokens re-prefilled because a fault discarded their KV entries
    recompute_tokens: int = 0
    #: wall-clock spent in the recovery model (weight remapping transfers)
    recovery_latency_s: float = 0.0
    #: wall-clock admission was frozen by injected stalls
    stall_time_s: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "injected": self.injected,
            "kv_core_failures": self.kv_core_failures,
            "weight_core_failures": self.weight_core_failures,
            "kv_block_losses": self.kv_block_losses,
            "admission_stalls": self.admission_stalls,
            "recovered_sequences": self.recovered_sequences,
            "recompute_tokens": self.recompute_tokens,
            "recovery_latency_s": self.recovery_latency_s,
            "stall_time_s": self.stall_time_s,
        }


@dataclass
class RunResult:
    """Outcome of serving one request trace on one system."""

    system: str
    model: str
    workload: str
    #: wall-clock seconds to serve the whole trace
    total_time_s: float
    #: tokens that left the pipeline (prefill + decode, excluding recompute waste)
    total_tokens: int
    #: generated (decode) tokens only -- the numerator of serving throughput
    output_tokens: int
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    #: average pipeline / compute utilization in [0, 1]
    utilization: float = 0.0
    #: tokens recomputed due to KV-cache eviction (waste)
    recomputed_tokens: int = 0
    #: number of KV-cache evictions observed
    evictions: int = 0
    #: per-request time to first output token (arrival -> first decode token)
    ttft: LatencyStats = field(default_factory=LatencyStats)
    #: per-request end-to-end latency (arrival -> completion)
    latency: LatencyStats = field(default_factory=LatencyStats)
    #: fraction of completed requests meeting the trace's SLO (None = no SLO)
    goodput: float | None = None
    #: per-tenant latency/goodput breakdown, keyed by tenant id
    tenants: dict[str, TenantStats] = field(default_factory=dict)
    #: injected-fault accounting (None = the run had no fault plan)
    faults: FaultStats | None = None
    #: requests permanently dropped by the overload shedder
    shed_requests: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.total_time_s <= 0:
            return 0.0
        return self.output_tokens / self.total_time_s

    @property
    def total_throughput_tokens_per_s(self) -> float:
        if self.total_time_s <= 0:
            return 0.0
        return self.total_tokens / self.total_time_s

    @property
    def energy_per_output_token_j(self) -> float:
        if self.output_tokens <= 0:
            return 0.0
        return self.energy.total_j / self.output_tokens

    def as_dict(self) -> dict[str, Any]:
        return {
            "system": self.system,
            "model": self.model,
            "workload": self.workload,
            "total_time_s": self.total_time_s,
            "total_tokens": self.total_tokens,
            "output_tokens": self.output_tokens,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "energy_per_output_token_j": self.energy_per_output_token_j,
            "utilization": self.utilization,
            "recomputed_tokens": self.recomputed_tokens,
            "evictions": self.evictions,
            "ttft": self.ttft.as_dict(),
            "latency": self.latency.as_dict(),
            "goodput": self.goodput,
            "tenants": {name: stats.as_dict() for name, stats in self.tenants.items()},
            "faults": self.faults.as_dict() if self.faults is not None else None,
            "shed_requests": self.shed_requests,
            "energy": self.energy.as_dict(),
            "extra": dict(self.extra),
        }


#: sample count up to which :class:`LatencyAccumulator` buffers exact samples
#: and reproduces :meth:`LatencyStats.from_samples` bitwise.  Every CI bitwise
#: anchor (fig22–25, daemon replay, checkpoint/resume) serves far fewer
#: requests than this, so the P² approximation only engages at scales where
#: no exact baseline exists.
EXACT_SAMPLE_LIMIT = 4096


class P2Quantile:
    """Streaming quantile estimator (Jain & Chlamtac's P² algorithm).

    Tracks one quantile with five markers in O(1) memory.  Deterministic
    given the sample order, and the full marker state serialises to plain
    JSON for checkpoint/resume.
    """

    __slots__ = ("p", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self._q: list[float] = []  # marker heights (sorted observations)
        self._n: list[int] = [0, 1, 2, 3, 4]  # marker positions
        self._np: list[float] = [0.0, 2 * p, 4 * p, 2 + 2 * p, 4.0]
        self._dn: list[float] = [0.0, p / 2, p, (1 + p) / 2, 1.0]

    def add(self, value: float) -> None:
        q, n, np_ = self._q, self._n, self._np
        if len(q) < 5:
            q.append(value)
            q.sort()
            return
        if value < q[0]:
            q[0] = value
            k = 0
        elif value >= q[4]:
            q[4] = value
            k = 3
        else:
            k = 0
            while value >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1
        for i in range(5):
            np_[i] += self._dn[i]
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1) or (d <= -1.0 and n[i - 1] - n[i] < -1):
                step = 1 if d >= 1.0 else -1
                candidate = self._parabolic(i, step)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:  # parabolic prediction left the bracket: linear fallback
                    q[i] = q[i] + step * (q[i + step] - q[i]) / (n[i + step] - n[i])
                n[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        q, n = self._q, self._n
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def value(self) -> float:
        if not self._q:
            return 0.0
        if len(self._q) < 5:
            import numpy as np

            return _percentile(np.sort(self._q), self.p * 100.0)
        return self._q[2]

    def state(self) -> dict[str, Any]:
        return {
            "p": self.p,
            "q": list(self._q),
            "n": list(self._n),
            "np": list(self._np),
        }

    @classmethod
    def restore(cls, state: dict[str, Any]) -> "P2Quantile":
        estimator = cls(float(state["p"]))
        estimator._q = [float(v) for v in state["q"]]
        estimator._n = [int(v) for v in state["n"]]
        estimator._np = [float(v) for v in state["np"]]
        return estimator


class LatencyAccumulator:
    """Streaming builder of a :class:`LatencyStats` in O(1) memory.

    Buffers exact samples up to :data:`EXACT_SAMPLE_LIMIT` so small-N runs —
    every bitwise CI anchor — finalise through the exact
    :meth:`LatencyStats.from_samples` path, bit for bit.  Beyond the limit
    the buffer is spilled into three P² quantile estimators plus running
    count/sum/max, bounding memory while keeping p50/p95/p99 within the
    estimator's accuracy.
    """

    __slots__ = ("_exact", "_count", "_sum", "_max", "_p50", "_p95", "_p99")

    def __init__(self) -> None:
        self._exact: list[float] | None = []
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._p50 = P2Quantile(0.50)
        self._p95 = P2Quantile(0.95)
        self._p99 = P2Quantile(0.99)

    @property
    def count(self) -> int:
        return self._count

    def add(self, value: float) -> None:
        self._count += 1
        if self._exact is not None:
            self._exact.append(value)
            if len(self._exact) > EXACT_SAMPLE_LIMIT:
                self._spill()
            return
        self._feed(value)

    def _feed(self, value: float) -> None:
        self._sum += value
        if value > self._max:
            self._max = value
        self._p50.add(value)
        self._p95.add(value)
        self._p99.add(value)

    def _spill(self) -> None:
        buffered, self._exact = self._exact, None
        assert buffered is not None
        for value in buffered:
            self._feed(value)

    def finalize(self) -> LatencyStats:
        if self._exact is not None:
            return LatencyStats.from_samples(self._exact)
        return LatencyStats(
            count=self._count,
            mean_s=self._sum / self._count,
            p50_s=self._p50.value(),
            p95_s=self._p95.value(),
            p99_s=self._p99.value(),
            max_s=self._max,
        )

    def state(self) -> dict[str, Any]:
        if self._exact is not None:
            return {"exact": list(self._exact)}
        return {
            "count": self._count,
            "sum": self._sum,
            "max": self._max,
            "p50": self._p50.state(),
            "p95": self._p95.state(),
            "p99": self._p99.state(),
        }

    @classmethod
    def restore(cls, state: dict[str, Any]) -> "LatencyAccumulator":
        accumulator = cls()
        if "exact" in state:
            accumulator._exact = [float(v) for v in state["exact"]]
            accumulator._count = len(accumulator._exact)
            return accumulator
        accumulator._exact = None
        accumulator._count = int(state["count"])
        accumulator._sum = float(state["sum"])
        accumulator._max = float(state["max"])
        accumulator._p50 = P2Quantile.restore(state["p50"])
        accumulator._p95 = P2Quantile.restore(state["p95"])
        accumulator._p99 = P2Quantile.restore(state["p99"])
        return accumulator


class _TenantAccumulator:
    """One tenant's incremental slice of a :class:`ServeAccumulator`."""

    __slots__ = (
        "requests", "ttft", "latency", "admission_wait", "met",
        "evictions", "preemptions", "recomputed_tokens",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.ttft = LatencyAccumulator()
        self.latency = LatencyAccumulator()
        self.admission_wait = LatencyAccumulator()
        self.met = 0
        self.evictions = 0
        self.preemptions = 0
        self.recomputed_tokens = 0

    def state(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "ttft": self.ttft.state(),
            "latency": self.latency.state(),
            "admission_wait": self.admission_wait.state(),
            "met": self.met,
            "evictions": self.evictions,
            "preemptions": self.preemptions,
            "recomputed_tokens": self.recomputed_tokens,
        }

    @classmethod
    def restore(cls, state: dict[str, Any]) -> "_TenantAccumulator":
        accumulator = cls()
        accumulator.requests = int(state["requests"])
        accumulator.ttft = LatencyAccumulator.restore(state["ttft"])
        accumulator.latency = LatencyAccumulator.restore(state["latency"])
        accumulator.admission_wait = LatencyAccumulator.restore(state["admission_wait"])
        accumulator.met = int(state["met"])
        accumulator.evictions = int(state.get("evictions", 0))
        accumulator.preemptions = int(state.get("preemptions", 0))
        accumulator.recomputed_tokens = int(state.get("recomputed_tokens", 0))
        return accumulator


class ServeAccumulator:
    """Folds completed/shed sequences into run statistics incrementally.

    The engines feed every finished sequence in (once its completion epoch has
    been stamped) and every permanently shed request, so at `_finish` time no
    per-sequence sample lists exist — memory is O(tenants), not O(trace).
    Tenant dict ordering reproduces the materialised path: tenants appear in
    first-completion order, then shed-only tenants in first-shed order.
    """

    def __init__(self, slo_for: "Callable[[str], SLOTarget | None]") -> None:
        self._slo_for = slo_for
        self.completed = 0
        self.output_tokens = 0
        self.ttft = LatencyAccumulator()
        self.latency = LatencyAccumulator()
        self._tenants: dict[str, _TenantAccumulator] = {}
        self._shed: dict[str, int] = {}

    @property
    def shed_total(self) -> int:
        return sum(self._shed.values())

    def note_completed(self, sequence: "Sequence") -> None:
        self.completed += 1
        self.output_tokens += sequence.request.decode_length
        ttft = sequence.ttft_s
        if ttft is not None:
            self.ttft.add(ttft)
        latency = sequence.latency_s
        if latency is not None:
            self.latency.add(latency)
        tenant = self._tenants.get(sequence.tenant)
        if tenant is None:
            tenant = self._tenants[sequence.tenant] = _TenantAccumulator()
        tenant.requests += 1
        if ttft is not None:
            tenant.ttft.add(ttft)
        if latency is not None:
            tenant.latency.add(latency)
        if sequence.admission_time is not None:
            tenant.admission_wait.add(
                sequence.admission_time - sequence.request.arrival_time
            )
        tenant.evictions += sequence.eviction_count
        tenant.preemptions += sequence.preemptions
        tenant.recomputed_tokens += sequence.recomputed_tokens
        slo = self._slo_for(sequence.tenant)
        if slo is not None and slo.met_by(ttft, latency):
            tenant.met += 1

    def note_shed(self, sequence: "Sequence") -> None:
        self._shed[sequence.tenant] = self._shed.get(sequence.tenant, 0) + 1

    def tenant_results(
        self, queue_depths: dict[str, int]
    ) -> tuple[dict[str, TenantStats], int, int]:
        """Per-tenant stats plus the aggregate (met, judged) SLO counts.

        Ordering matches the materialised `_finish`: completion-order tenants
        first, then tenants that only ever shed, in first-shed order.
        """
        tenants: dict[str, TenantStats] = {}
        met_total = 0
        judged_total = 0
        for name, acc in self._tenants.items():
            shed = self._shed.get(name, 0)
            slo = self._slo_for(name)
            goodput: float | None = None
            if slo is not None:
                judged = acc.requests + shed
                goodput = (acc.met / judged) if judged else 0.0
                met_total += acc.met
                judged_total += judged
            tenants[name] = TenantStats(
                requests=acc.requests,
                ttft=acc.ttft.finalize(),
                latency=acc.latency.finalize(),
                goodput=goodput,
                shed=shed,
                queue_depth=queue_depths.get(name, 0),
                admission_wait=acc.admission_wait.finalize(),
                evictions=acc.evictions,
                preemptions=acc.preemptions,
                recomputed_tokens=acc.recomputed_tokens,
            )
        for name, shed in self._shed.items():
            if name in tenants:
                continue
            slo = self._slo_for(name)
            goodput = None
            if slo is not None:
                goodput = 0.0 if shed else None
                judged_total += shed
            tenants[name] = TenantStats(
                requests=0,
                goodput=goodput,
                shed=shed,
                queue_depth=queue_depths.get(name, 0),
            )
        return tenants, met_total, judged_total

    def state(self) -> dict[str, Any]:
        return {
            "completed": self.completed,
            "output_tokens": self.output_tokens,
            "ttft": self.ttft.state(),
            "latency": self.latency.state(),
            "tenants": [[name, acc.state()] for name, acc in self._tenants.items()],
            "shed": [[name, count] for name, count in self._shed.items()],
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self.completed = int(state["completed"])
        self.output_tokens = int(state["output_tokens"])
        self.ttft = LatencyAccumulator.restore(state["ttft"])
        self.latency = LatencyAccumulator.restore(state["latency"])
        self._tenants = {
            name: _TenantAccumulator.restore(entry) for name, entry in state["tenants"]
        }
        self._shed = {name: int(count) for name, count in state["shed"]}
