"""Shared pipeline simulation engine.

The engine serves a request trace on the wafer by advancing the admitted
sequences in *epochs*: every epoch each active sequence processes up to
``chunk_tokens`` tokens (prefill tokens stream back-to-back; decode tokens are
one per pipeline traversal).  The wall-clock cost of an epoch is

    epoch_time = processed_tokens * stage_interval / utilization

where ``stage_interval`` is the slowest of the six stage latencies at the
epoch's average context length and ``utilization`` is supplied by the concrete
pipeline strategy (token-grained, sequence-grained or blocked).  Energy is
accumulated from the per-token cost model, and KV-cache growth / eviction is
driven through the inter-sequence scheduler so that thrashing shows up as
recomputed tokens and extra time.

Traces whose requests carry nonzero ``arrival_time``s are served *open-loop*:
admission is gated on arrival, the clock jumps across idle gaps to the next
arrival, and the per-request timestamps (first output token, completion — both
stamped at the end of the epoch that produced them) feed the TTFT and
end-to-end latency distributions on :class:`RunResult`.  Batch traces (every
arrival at t=0) reduce to the original closed-loop behaviour bit for bit.

Epochs additionally *split at arrival boundaries*: when the next admission
candidate's arrival (the FCFS queue head's, or the earliest tenant head's
under the wfq / priority scheduling policies) would land inside the epoch
about to run, the per-sequence token budgets are truncated so the epoch closes
at (token granularity of) that arrival, and the untaken prefill/decode
remainder simply carries into the next epoch.  Without splitting, a request landing just after an epoch starts waits
up to a whole ``chunk_tokens`` epoch before admission — an unbounded TTFT
error at high offered load; with it the admission delay is bounded by one
token per active sequence.  The split decision (:meth:`_plan_epoch`) is shared
verbatim by the fast and scalar paths so the boundary can never diverge
between them, and a trace with every arrival at t=0 never splits, keeping the
closed-batch results bit-for-bit unchanged.

Latency accounting is tenant-aware: every request carries a ``tenant`` id and
:meth:`_finish` folds the per-request samples into per-tenant
:class:`TenantStats` (plus SLO goodput when the trace carries an
:class:`~repro.workload.requests.SLOTarget`).

Two implementations of the epoch loop exist, as two per-epoch *advance
strategies* driven by one shared loop (:meth:`PipelineEngine._drive`):

* :meth:`PipelineEngine.run` -- the fast path.  The shared planner holds
  the active sequences' integer state (remaining prefill/decode, context,
  generated and prompt tokens) as five lists of Python ints
  (:class:`PlanRows`).  An epoch handles 8 to 60 sequences; at 8 NumPy's
  fixed cost per call outweighs its element work, and at about 50 the two
  forms cost about the same, so the per-epoch kernel is one list kernel
  that makes no NumPy call: one pass derives every budget, take and event
  position, and a split scales the budgets.  The fast path *carries* the rows
  across epochs, advanced by the takes, and the next plan reads only the
  sequences admitted since -- unless a sequence left the active set in
  between (the scheduler's ``departures`` counter moved), when it reads
  them all again.  The advance is *event-driven*: the KV provider commits
  in bulk the growths it cannot refuse, and only the next growth, the
  sequences finishing prefill and the completing ones go through the
  per-sequence ``grow_sequence`` -> ``apply_advance`` -> ``complete``
  calls, in snapshot order, so eviction order, mid-epoch KV releases and
  the KV high-water mark are exactly the scalar path's.  The epoch tally is
  one loop in snapshot order: the context-weighted sum, in integers and
  exact (:func:`_halved`), each segment's energy bin, rounded half to even
  as the scalar path's ``_quantize``, the bins in its first-touch order,
  the first decoders and the carried rows.  The token-grained strategy
  reads the plan's rows of every sequence for its in-flight sum
  (:attr:`PipelineEngine.full_prefill_rows`), not only the prefilling ones.
* :meth:`PipelineEngine.run_scalar` -- the retained scalar reference: the
  original one-sequence-at-a-time loop, kept for validation.  It shares the
  epoch loop and the epoch-closing arithmetic (duration, utilization,
  per-bin energy scaling) with the fast path, so the two produce
  bitwise-identical :class:`RunResult` fields; the equivalence suite asserts
  exactly that.

Both entry points accept an optional ``arrival_feed`` — the live-serving hook
used by ``repro serve --daemon`` (see :mod:`repro.serving`).  A feed delivers
requests *while the run executes* instead of up front, under a watermark
contract: the feed's watermark is a simulated-time bound below which no
further arrivals will ever be submitted.  The engine never plans an epoch,
jumps an idle gap, or fills the scheduler past the watermark; it blocks until
the watermark covers the step (or the feed is drained), ingests everything
the feed released, and re-plans.  Because batch planning only consults
arrivals strictly inside the step about to run, a request ingested before the
first fill that could admit it is indistinguishable from one submitted up
front — which is what makes the daemon replay bit-for-bit equal to
``run(trace)`` with the same requests.  With ``arrival_feed=None`` every hook
is skipped and the loop is the exact batch control flow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from itertools import compress, count
from operator import add, mul, sub
from typing import NamedTuple

from ..errors import ConfigurationError, SimulationError
from ..models.architectures import ModelArch
from ..models.pipeline_stages import pipeline_depth
from ..results import EnergyBreakdown, FaultStats, RunResult, ServeAccumulator
from ..workload.generator import Trace
from ..workload.policies import SchedulingPolicy, make_policy, validate_policy_name
from ..workload.requests import Sequence, SequencePhase
from ..workload.scheduler import InterSequenceScheduler, KVCapacityProvider
from .checkpoint import EngineCheckpoint
from .stages import TokenCostModel

#: stalled epochs (no tokens processed) tolerated between two completions
#: before declaring a livelock
_MAX_STALLED_EPOCHS = 2000

#: most recent :class:`EpochRecord` entries retained for inspection.  The
#: epoch history is a ring so a million-request run does not accumulate one
#: record per epoch; every CI-sized run fits inside the ring, and the total
#: count always lives in ``engine.epoch_count`` / ``extra["epochs"]``.
_EPOCH_RING = 4096


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the epoch-based pipeline simulation."""

    #: tokens each active sequence may advance per epoch
    chunk_tokens: int = 128
    #: context-length quantisation for memoising per-token costs
    context_quantum: int = 256
    #: hard cap on epochs (guards against livelock in pathological configs)
    max_epochs: int = 2_000_000
    #: continuous-batching limit: cap on concurrently resident sequences
    #: (None = bounded only by KV capacity).  Real deployments cap the batch
    #: to bound per-request latency; the SLO-goodput experiment relies on it
    #: to make offered load saturate at a realistic operating point.
    max_active_sequences: int | None = None
    #: admission-order policy of the inter-sequence scheduler: ``fcfs`` (the
    #: paper's queue, bit-for-bit the historical behaviour), ``wfq``
    #: (weighted fair queueing over tenants) or ``priority`` (strict
    #: priority with starvation-free aging)
    scheduling_policy: str = "fcfs"
    #: priority units a waiting request gains per second (the ``priority``
    #: policy's starvation bound: a gap of d levels closes in d/rate seconds)
    priority_aging_rate: float = 1.0
    #: bounded admission queue: arrived waiting requests beyond this depth
    #: are shed (None = unbounded, overload shedding off — the historical
    #: behaviour, bit for bit)
    max_queue_depth: int | None = None
    #: drop waiting requests whose TTFT SLO is already unmeetable given how
    #: long they have queued (needs a trace with per-tenant or trace SLOs)
    shed_deadline: bool = False
    #: service-time slack reserved by deadline shedding: a request is dropped
    #: once its remaining TTFT budget falls below this headroom, i.e. it
    #: could no longer meet the deadline even if admitted immediately.  0.0
    #: sheds only requests already past the deadline.
    shed_headroom_s: float = 0.0
    #: times a depth-shed request retries with backoff before a permanent drop
    shed_retries: int = 0
    #: base retry backoff in seconds; doubles on every further shed
    shed_backoff_s: float = 0.0
    #: let the scheduling policy preempt (evict-and-requeue) an active
    #: lower-ranked sequence to admit a higher-ranked arrival once the batch
    #: cap or KV cache is full.  Preempted prefix KV is recomputed on
    #: re-admission (the recompute tax shows up in per-tenant stats).  Off =
    #: the historical run-to-completion behaviour, bit for bit.
    preemptive: bool = False

    def __post_init__(self) -> None:
        # Normalise as well as validate: "WFQ" and "wfq" must produce one
        # canonical spec dict (sweep-cache keys) and compare equal.
        object.__setattr__(
            self, "scheduling_policy", validate_policy_name(self.scheduling_policy)
        )

    def make_scheduling_policy(self) -> "SchedulingPolicy":
        """Instantiate the configured admission-order policy."""
        return make_policy(
            self.scheduling_policy, aging_rate=self.priority_aging_rate
        )


@dataclass
class EpochRecord:
    """Bookkeeping for one simulation epoch (exposed for tests/inspection)."""

    epoch: int
    tokens: int
    utilization: float
    duration_s: float
    active_sequences: int


#: a doubled context-weighted sum below this is exact in float64, and so is
#: its half (see :func:`_halved`)
_EXACT_DOUBLED_LIMIT = 2**53


def _halved(doubled: int) -> float:
    """An epoch's context-weighted token count from its doubled form, exactly.

    Sequence *i* processes ``budget[i]`` tokens at positions ``context[i]``
    onwards; a segment of ``take`` tokens from ``start`` attends on average
    to ``(2·start + take − 1) / 2`` cached tokens, so the count is
    ``Σ budget·(2·context + budget − 1) / 2`` whichever way the budget
    splits into prefill and decode.  The engine sums it doubled, in Python
    ints, and halves it here once.  Every term of the float form
    ``(start + (take − 1) / 2)·take`` is a half-integer, so while the
    doubled sum stays below 2**53 every float partial sum is exact too, and
    any summation order -- the scalar oracle's sequential one included --
    gives this value bit for bit.  An epoch at or past that bound raises
    :class:`SimulationError` rather than disagree with the scalar oracle.
    """
    if not 0 <= doubled < _EXACT_DOUBLED_LIMIT:
        raise SimulationError(
            f"epoch context-weighted token count {doubled} / 2 is outside "
            "the range float64 holds exactly"
        )
    return doubled / 2


def _doubled_count(budgets: list[int], context: list[int]) -> int:
    """``Σ budget·(2·context + budget − 1)`` (see :func:`_halved`)."""
    doubled = 2 * sum(map(mul, budgets, context)) + sum(map(mul, budgets, budgets))
    return doubled - sum(budgets)


class PlanRows(NamedTuple):
    """The planner's state of the active sequences, one list per counter and
    one entry per sequence of the active snapshot (``context`` counts cached
    tokens, ``generated`` output tokens so far)."""

    remaining_prefill: list[int]
    remaining_decode: list[int]
    context: list[int]
    generated: list[int]
    prefill_length: list[int]


@dataclass
class EpochPlan:
    """Per-sequence token takes for one epoch, shared by both engine paths.

    Lists are indexed like the active snapshot.  ``budgets[i]`` caps
    sequence *i*'s tokens this epoch, split into two *segments*: the prefill
    take at the sequence's current position, then the decode take right
    after it.  ``events`` are the positions whose take reaches the end of
    the prompt or -- once the prompt is done -- of the output: the last
    prompt token changes the phase, the last output token completes the
    sequence.  ``rows`` is the state the takes were derived from; the fast
    path carries it across epochs.  ``split`` marks plans whose budgets were
    truncated so the epoch closes at the next queue-head arrival instead of
    running a full chunk past it.
    """

    budgets: list[int]
    prefill_takes: list[int]
    decode_takes: list[int]
    events: list[int]
    rows: PlanRows
    split: bool = False

    @classmethod
    def derive(cls, rows: PlanRows, chunk: int) -> EpochPlan:
        """Budget every sequence ``min(chunk, remaining)`` tokens, prompt
        tokens first, in one pass.

        A budget never exceeds what remains, so a take reaches the end of
        the prompt (or of the output, once the prompt is done) exactly when
        it covers it; a sequence without a budget has no event.
        """
        budgets: list[int] = []
        prefill_takes: list[int] = []
        decode_takes: list[int] = []
        events: list[int] = []
        for index, prefill, decode in zip(
            count(), rows.remaining_prefill, rows.remaining_decode
        ):
            budget = prefill + decode
            if budget > chunk:
                budget = chunk
            budgets.append(budget)
            if prefill > budget:
                prefill_takes.append(budget)
                decode_takes.append(0)
            else:
                take = budget - prefill
                prefill_takes.append(prefill)
                decode_takes.append(take)
                if budget and (prefill or take == decode):
                    events.append(index)
        return cls(budgets, prefill_takes, decode_takes, events, rows)

    def truncated(self, fraction: float) -> EpochPlan:
        """This plan with every budget scaled by ``fraction`` (below 1).

        Truncation floors, but a sequence with a budget keeps one token.  A
        smaller budget reaches the end of a prompt or an output only where
        the full one did, so the events are this plan's the scaled budgets
        reach.
        """
        rows = self.rows
        remaining_prefill = rows.remaining_prefill
        remaining_decode = rows.remaining_decode
        scaled = [
            int(fraction * budget) or 1 if budget else 0 for budget in self.budgets
        ]
        prefill_takes = [
            budget if budget < prefill else prefill
            for budget, prefill in zip(scaled, remaining_prefill)
        ]
        decode_takes = list(map(sub, scaled, prefill_takes))
        events = [
            index for index in self.events
            if scaled[index] >= (remaining_prefill[index] or remaining_decode[index])
        ]
        return EpochPlan(scaled, prefill_takes, decode_takes, events, rows, split=True)


class PrefillSegments(NamedTuple):
    """One epoch's prefill work, one entry per prefilling sequence.

    ``takes`` are the prompt tokens each sequence prefills this epoch,
    ``remaining`` its prompt tokens still to prefill as the caller sees it
    (before the epoch when planning, after it when closing) and ``lengths``
    its prompt length.  The utilization models read these lists.  For a
    strategy with :attr:`PipelineEngine.full_prefill_rows` the lists may
    hold every sequence of the epoch instead; a sequence without a prefill
    take then has ``takes`` and ``remaining`` 0.
    """

    takes: list[int]
    remaining: list[int]
    lengths: list[int]

    @classmethod
    def of(
        cls, segments: PrefillSegments | list[tuple[Sequence, int]]
    ) -> PrefillSegments:
        """Accept ready lists, or ``(sequence, tokens)`` pairs read right now."""
        if isinstance(segments, PrefillSegments):
            return segments
        return cls(
            takes=[tokens for _, tokens in segments],
            remaining=[sequence.remaining_prefill for sequence, _ in segments],
            lengths=[sequence.request.prefill_length for sequence, _ in segments],
        )

    @classmethod
    def prefilling(
        cls, takes: list[int], remaining: list[int], lengths: list[int]
    ) -> PrefillSegments:
        """The entries of every sequence's lists that have a prefill take."""
        return cls(
            takes=list(compress(takes, takes)),
            remaining=list(compress(remaining, takes)),
            lengths=list(compress(lengths, takes)),
        )

    def in_flight(self, depth: int) -> int:
        """``Σ min(depth, take + remaining)``: a prefilling sequence keeps
        streaming prompt tokens into the pipeline beyond this epoch's take,
        up to the pipeline's ``depth``."""
        return sum([
            streaming if streaming < depth else depth
            for streaming in map(add, self.takes, self.remaining)
        ])


@dataclass
class _EpochTally:
    """What one epoch's advance produced, handed to the shared epoch closer.

    Both advance strategies (batched and scalar) fill the same tally, so
    the loop around them — stall handling, epoch closing, timestamp stamping,
    accumulator updates — is written once in :meth:`PipelineEngine._drive`.
    The scalar path appends ``(sequence, tokens)`` prefill segments; the fast
    path hands over :class:`PrefillSegments` lists.
    """

    tokens: int = 0
    context_weighted: float = 0.0
    energy_bins: dict[int, int] = field(default_factory=dict)
    prefill_segments: list[tuple[Sequence, int]] | PrefillSegments = field(
        default_factory=list
    )
    decode_sequences: int = 0
    max_decode_chunk: int = 0
    first_decoders: list[Sequence] = field(default_factory=list)
    finished: list[Sequence] = field(default_factory=list)


class _LiveSuspend(Exception):
    """Control-flow signal: a live feed requested checkpoint-and-stop.

    Raised from deep inside the epoch loop (possibly while blocked waiting
    for arrivals) and caught by :meth:`PipelineEngine._drive`, which returns
    the captured :class:`EngineCheckpoint` exactly as ``suspend_at_epoch``
    would.
    """

    def __init__(self, checkpoint: EngineCheckpoint) -> None:
        super().__init__("live checkpoint-and-stop requested")
        self.checkpoint = checkpoint


class PipelineEngine:
    """Base class for the three pipeline strategies."""

    name = "base"
    #: whether :meth:`segment_utilization` reads the prefill segments only
    #: through ``Σ min(depth, takes + remaining)``, to which a sequence
    #: without a prefill take adds 0.  The engine then hands it the plan's
    #: rows of every sequence instead of gathering the prefilling ones.
    full_prefill_rows = False

    def __init__(
        self,
        arch: ModelArch,
        cost_model: TokenCostModel,
        kv_manager: KVCapacityProvider,
        config: PipelineConfig | None = None,
        scheduler: InterSequenceScheduler | None = None,
    ) -> None:
        self.arch = arch
        self.cost_model = cost_model
        self.kv_manager = kv_manager
        self.config = config or PipelineConfig()
        # A caller-supplied scheduler owns its own admission cap and policy
        # (the system builder combines the config knobs with a KV-capacity
        # estimate); the default scheduler takes the config's
        # continuous-batching limit and scheduling policy directly so the
        # knobs are never silently ignored.
        self.scheduler = scheduler or InterSequenceScheduler(
            kv_manager,
            max_active_sequences=self.config.max_active_sequences,
            policy=self.config.make_scheduling_policy(),
            max_queue_depth=self.config.max_queue_depth,
            shed_deadline=self.config.shed_deadline,
            shed_headroom_s=self.config.shed_headroom_s,
            shed_retries=self.config.shed_retries,
            shed_backoff_s=self.config.shed_backoff_s,
            preemptive=self.config.preemptive,
        )
        #: optional weight-core recovery hook wired by the system builder:
        #: ``hook(target: int) -> RemappingResult | None``; consumed by the
        #: fault injector for ``weight_core`` events
        self.fault_recovery = None
        self.depth = pipeline_depth(arch)
        #: ring of the most recent epoch records (full count: ``epoch_count``)
        self.epochs: deque[EpochRecord] = deque(maxlen=_EPOCH_RING)
        #: total epochs closed over the run, including ones the ring dropped
        self.epoch_count = 0
        self._split_epochs = 0
        #: streaming per-request stats, folded as completion epochs close
        self._accumulator: ServeAccumulator | None = None
        # The per-quantised-context cost memos belong to the cost model, so
        # every engine built on it (every serve of one build) shares them.
        self._interval_cache = cost_model.interval_memo
        self._energy_cache = cost_model.energy_memo
        self._energy_rows = cost_model.energy_row_memo
        #: plan rows of the sequences a fast epoch left active, in active
        #: order, with the scheduler's departure count at that moment (see
        #: :meth:`_plan_rows`)
        self._carried: tuple[PlanRows, int] | None = None

    # ------------------------------------------------------------ cached costs

    def _quantize(self, context: float) -> int:
        quantum = self.config.context_quantum
        return max(1, int(round(context / quantum)) * quantum)

    def stage_interval(self, context: float) -> float:
        key = self._quantize(context)
        if key not in self._interval_cache:
            self._interval_cache[key] = self.cost_model.stage_interval(key)
        return self._interval_cache[key]

    def token_energy(self, context: float) -> EnergyBreakdown:
        return self._energy_for_key(self._quantize(context))

    def _energy_for_key(self, key: int) -> EnergyBreakdown:
        cached = self._energy_cache.get(key)
        if cached is None:
            cached = self.cost_model.token_energy(key)
            self._energy_cache[key] = cached
        return cached

    def _energy_row(self, key: int) -> tuple[float, float, float, float]:
        """Per-token energy of a context bin in :class:`EnergyBreakdown` field order."""
        row = self._energy_rows.get(key)
        if row is None:
            energy = self._energy_for_key(key)
            row = (
                energy.compute_j,
                energy.on_chip_memory_j,
                energy.off_chip_memory_j,
                energy.communication_j,
            )
            self._energy_rows[key] = row
        return row

    # ----------------------------------------------------------- strategy hook

    def segment_utilization(
        self, segments: PrefillSegments, decode_sequences: int, *, commit: bool
    ) -> float:
        """Fraction of pipeline slots doing useful work (the strategy model).

        ``commit`` is False while planning: the planner may evaluate an epoch
        that is then truncated and re-evaluated at close time, so a strategy
        that keeps per-epoch state (blocked TGP's longest-sequence watermark)
        only advances it when ``commit`` is True.
        """
        raise NotImplementedError

    def epoch_utilization(
        self,
        prefill_segments: PrefillSegments | list[tuple[Sequence, int]],
        decode_sequences: int,
    ) -> float:
        """Fraction of pipeline slots doing useful work this epoch."""
        return self.segment_utilization(
            PrefillSegments.of(prefill_segments), decode_sequences, commit=True
        )

    def planned_utilization(
        self,
        prefill_segments: PrefillSegments | list[tuple[Sequence, int]],
        decode_sequences: int,
    ) -> float:
        """Side-effect-free utilization estimate for sub-epoch planning."""
        return self.segment_utilization(
            PrefillSegments.of(prefill_segments), decode_sequences, commit=False
        )

    # ------------------------------------------------------------------ running

    def run(
        self,
        trace: Trace,
        workload_name: str | None = None,
        *,
        fault_plan=None,
        suspend_at_epoch: int | None = None,
        resume_from: EngineCheckpoint | None = None,
        arrival_feed=None,
    ) -> RunResult | EngineCheckpoint:
        """Serve ``trace`` to completion and return aggregate results.

        This is the event-driven fast path; see the module docstring.  The
        retained reference implementation is :meth:`run_scalar`.

        ``fault_plan`` deterministically injects faults at epoch boundaries.
        ``suspend_at_epoch=N`` returns an :class:`EngineCheckpoint` instead of
        running epoch N (or a normal :class:`RunResult` when the trace drains
        first); ``resume_from`` restores such a checkpoint into this freshly
        built engine and continues — the combined run is bitwise identical to
        an uninterrupted one.  ``arrival_feed`` is the live-serving hook (see
        the module docstring); ``trace`` then starts empty and accumulates the
        ingested requests.
        """
        return self._drive(
            self._advance_epoch_fast, trace, workload_name,
            fault_plan=fault_plan, suspend_at_epoch=suspend_at_epoch,
            resume_from=resume_from, arrival_feed=arrival_feed,
        )

    def run_scalar(
        self,
        trace: Trace,
        workload_name: str | None = None,
        *,
        fault_plan=None,
        suspend_at_epoch: int | None = None,
        resume_from: EngineCheckpoint | None = None,
        arrival_feed=None,
    ) -> RunResult | EngineCheckpoint:
        """Retained scalar reference: advance one sequence at a time.

        Kept as the validation oracle for the fast :meth:`run`; both
        paths share the epoch loop and the epoch-closing arithmetic, so their
        results must match bit for bit.  Prefer :meth:`run` everywhere else --
        this advance strategy is an order of magnitude slower on large traces.
        Fault injection, suspend/resume and live arrival feeds behave exactly
        as on :meth:`run`.
        """
        return self._drive(
            self._advance_epoch_scalar, trace, workload_name,
            fault_plan=fault_plan, suspend_at_epoch=suspend_at_epoch,
            resume_from=resume_from, arrival_feed=arrival_feed,
        )

    def _advance_epoch_fast(
        self, snapshot: list[Sequence], plan: EpochPlan, time_s: float
    ) -> _EpochTally:
        """Event-driven advance: per-sequence calls only where something happens.

        The plan fixed every sequence's takes: min(chunk, remaining) tokens —
        truncated when the next arrival lands mid-epoch — split into a prefill
        take at its current position and a decode take right after it.  The
        sequences finishing prefill and the completing ones are *events*: they
        go through ``grow_sequence`` -> ``apply_advance`` -> ``complete`` in
        snapshot order.  The sequences between two events are handed to the
        KV provider's ``commit_tokens``, which commits their growths in order
        for as long as none can be refused; the next one, whose growth may
        fail, becomes an event too.  So every event sees exactly the state the
        one-sequence-at-a-time loop would show it.  The tally then walks the
        takes once (:meth:`_tally`), and the plan rows of the sequences left
        active are carried into the next epoch.
        """
        scheduler = self.scheduler
        kv = scheduler.kv_provider
        budgets = plan.budgets
        prefill_takes = plan.prefill_takes
        decode_takes = plan.decode_takes
        # positions of the sequences that did not process their takes, and
        # of the ones that completed
        skipped: list[int] = []
        completed: list[int] = []
        finished: list[Sequence] = []
        # The active set only shrinks by completions unless an event evicts
        # or sheds; from then on every commit re-checks membership.
        expected_active = scheduler.num_active
        disturbed = False
        end = len(snapshot)
        scheduled = iter(plan.events)
        stop = next(scheduled, end)
        start = 0
        while True:
            index = stop
            if start < stop:
                positions: range | list[int] = range(start, stop)
                run = snapshot[start:stop]
                run_budgets = budgets[start:stop]
                run_prefill = prefill_takes[start:stop]
                run_decode = decode_takes[start:stop]
                if disturbed:
                    # Sequences an earlier growth evicted do not advance.
                    alive = [scheduler.is_active(s) for s in run]
                    if not all(alive):
                        skipped.extend(
                            position for position, live in zip(positions, alive)
                            if not live
                        )
                        positions = list(compress(positions, alive))
                        run = list(compress(run, alive))
                        run_budgets = list(compress(run_budgets, alive))
                        run_prefill = list(compress(run_prefill, alive))
                        run_decode = list(compress(run_decode, alive))
                committed = kv.commit_tokens(run, run_budgets)
                if committed < len(run):
                    # This growth may be refused: it is an event.
                    index = positions[committed]
                    del run[committed:]
                for sequence, prefill, decode in zip(run, run_prefill, run_decode):
                    if prefill:
                        sequence.prefill_progress += prefill
                    else:
                        sequence.decode_progress += decode
            if index == end:
                break
            if index == stop:
                stop = next(scheduled, end)
            start = index + 1
            sequence = snapshot[index]
            if not scheduler.is_active(sequence):
                skipped.append(index)  # evicted by an earlier sequence's KV growth
                continue
            if scheduler.grow_sequence(sequence, budgets[index]):
                sequence.apply_advance(prefill_takes[index], decode_takes[index])
                if sequence.is_complete:
                    # Scheduler bookkeeping (KV release, admission resume)
                    # happens mid-epoch; `_drive` corrects the wall-clock
                    # stamp to the epoch end once the duration is known.
                    scheduler.complete(sequence, time_s)
                    finished.append(sequence)
                    completed.append(index)
                    expected_active -= 1
            else:
                skipped.append(index)
            if scheduler.num_active != expected_active:
                disturbed = True
        if skipped:
            prefill_takes = prefill_takes.copy()
            decode_takes = decode_takes.copy()
            for index in skipped:
                prefill_takes[index] = decode_takes[index] = 0
            # The plan rows no longer describe every sequence either.
            disturbed = True
        tally, carried = self._tally(
            snapshot, plan, prefill_takes, decode_takes, finished, completed,
            disturbed,
        )
        self._carried = None if carried is None else (carried, scheduler.departures)
        return tally

    def _tally(
        self,
        snapshot: list[Sequence],
        plan: EpochPlan,
        prefill_takes: list[int],
        decode_takes: list[int],
        finished: list[Sequence],
        completed: list[int],
        disturbed: bool,
    ) -> tuple[_EpochTally, PlanRows | None]:
        """The fast path's epoch tally, and the rows to carry into the next epoch.

        ``prefill_takes`` / ``decode_takes`` are the takes of the sequences
        that advanced (zero for one that did not), ``completed`` the
        positions that completed.  One loop in snapshot order walks every
        segment.  Twice its average context, ``2·start + take − 1`` (the
        decode segment starts where the prefill take ends), weighted by the
        take sums to the exact context-weighted count (:func:`_halved`);
        divided by twice the quantum -- correctly rounded, on exact operands
        -- and rounded half to even it is the scalar path's ``_quantize`` of
        the half, the segment's energy bin.  The bins fill in the scalar
        loop's first-touch order (prefill, then decode segment).

        ``disturbed`` (a sequence did not advance, or an event evicted
        sequences) means the plan rows may no longer describe a sequence:
        nothing is carried, and the remaining prompts are read back from
        the sequences.  Otherwise the rows advanced by the takes are carried
        without the completed positions, which the prefill segments keep.
        """
        tokens = sum(prefill_takes) + sum(decode_takes)
        if tokens == 0:
            return _EpochTally(finished=finished), None
        quantum = self.config.context_quantum
        width = 2 * quantum
        rows = plan.rows
        energy_bins: dict[int, int] = {}
        first_decoders: list[Sequence] = []
        doubled = 0
        advanced = PlanRows([], [], [], [], rows.prefill_length)
        remaining_prefill, remaining_decode, context, generated, lengths = advanced
        for sequence, prompt_left, output_left, start, output, prefill, decode in zip(
            snapshot, rows.remaining_prefill, rows.remaining_decode, rows.context,
            rows.generated, prefill_takes, decode_takes,
        ):
            if prefill:
                twice = 2 * start + prefill - 1
                doubled += prefill * twice
                key = round(twice / width) * quantum or 1
                energy_bins[key] = energy_bins.get(key, 0) + prefill
                start += prefill
            if decode:
                twice = 2 * start + decode - 1
                doubled += decode * twice
                key = round(twice / width) * quantum or 1
                energy_bins[key] = energy_bins.get(key, 0) + decode
                if not output:
                    first_decoders.append(sequence)
                start += decode
            remaining_prefill.append(prompt_left - prefill)
            remaining_decode.append(output_left - decode)
            context.append(start)
            generated.append(output + decode)
        carried = None if disturbed else advanced
        if disturbed:
            remaining_prefill = [s.remaining_prefill for s in snapshot]
        if self.full_prefill_rows and not disturbed:
            segments = PrefillSegments(prefill_takes, remaining_prefill, lengths)
        else:
            segments = PrefillSegments.prefilling(
                prefill_takes, remaining_prefill, lengths
            )
        if carried is not None and completed:
            # The segments still read every position: drop the completed
            # ones from copies of the lists they share.
            carried = advanced._replace(
                remaining_prefill=remaining_prefill[:], prefill_length=lengths[:]
            )
            for index in reversed(completed):
                for row in carried:
                    del row[index]
        return _EpochTally(
            tokens=tokens,
            context_weighted=_halved(doubled),
            energy_bins=energy_bins,
            prefill_segments=segments,
            decode_sequences=len(decode_takes) - decode_takes.count(0),
            max_decode_chunk=max(decode_takes),
            first_decoders=first_decoders,
            finished=finished,
        ), carried

    def _advance_epoch_scalar(
        self, snapshot: list[Sequence], plan: EpochPlan, time_s: float
    ) -> _EpochTally:
        """Scalar advance: one sequence at a time, the validation oracle.

        Keeps its one-sequence-at-a-time advancing and energy accounting, but
        takes the per-sequence token caps from the shared plan so the
        sub-epoch split boundary is decided by the exact same arithmetic as
        the fast path (the untruncated cap is min(chunk, remaining tokens of
        the current phase chain)).
        """
        scheduler = self.scheduler
        tally = _EpochTally()
        energy_bins = tally.energy_bins

        for index, sequence in enumerate(snapshot):  # `snapshot` is a copy
            if not scheduler.is_active(sequence):
                continue  # evicted by an earlier sequence's KV growth
            budget = plan.budgets[index]
            if budget <= 0:
                continue
            if not scheduler.grow_sequence(sequence, budget):
                continue
            had_output = sequence.generated_tokens > 0
            segments = sequence.advance_tokens(budget)
            for phase, count, start_position in segments:
                avg_context = start_position + (count - 1) / 2.0
                tally.tokens += count
                tally.context_weighted += avg_context * count
                key = self._quantize(avg_context)
                energy_bins[key] = energy_bins.get(key, 0) + count
                if phase is SequencePhase.PREFILL:
                    tally.prefill_segments.append((sequence, count))
                else:
                    tally.decode_sequences += 1
                    tally.max_decode_chunk = max(tally.max_decode_chunk, count)
            if not had_output and sequence.generated_tokens > 0:
                tally.first_decoders.append(sequence)
            if sequence.is_complete:
                # Scheduler bookkeeping (KV release, admission resume)
                # happens mid-epoch; the wall-clock stamp is corrected to
                # the epoch end by the driver, once the duration is known.
                scheduler.complete(sequence, time_s)
                tally.finished.append(sequence)
        return tally

    def _drive(
        self,
        advance,
        trace: Trace,
        workload_name: str | None,
        *,
        fault_plan,
        suspend_at_epoch: int | None,
        resume_from: EngineCheckpoint | None,
        arrival_feed,
    ) -> RunResult | EngineCheckpoint:
        """The shared epoch loop behind :meth:`run` and :meth:`run_scalar`.

        ``advance`` is the per-epoch strategy (batched or scalar).  With
        ``arrival_feed=None`` this is the exact batch control flow; a live
        feed adds the watermark gates described in the module docstring, and
        a feed-requested checkpoint-and-stop surfaces as :class:`_LiveSuspend`
        from the gates and returns the checkpoint like ``suspend_at_epoch``.
        """
        scheduler = self.scheduler
        injector, state = self._prepare_run(trace, fault_plan, resume_from)
        start_epoch, time_s, energy, processed_tokens, utilization_time, stalled_epochs = state

        def live_sync(horizon: float | None, *, wait: bool) -> None:
            """Service the live feed at an epoch boundary.

            Delivers pending checkpoint requests (raising :class:`_LiveSuspend`
            for a stop request), then ingests every released arrival.  With
            ``wait=True`` it first blocks until the feed covers ``horizon``
            (any new input when ``horizon`` is None) or is drained.
            """
            while True:
                request = arrival_feed.take_checkpoint_request()
                if request is not None:
                    snapshot = self._capture_checkpoint(
                        epoch_index, time_s, energy, processed_tokens,
                        utilization_time, stalled_epochs, injector,
                    )
                    arrival_feed.deliver_checkpoint(request, snapshot)
                    if request.stop:
                        raise _LiveSuspend(snapshot)
                    continue
                if not wait or arrival_feed.wait_ready(horizon):
                    break
            self._ingest_live(arrival_feed, trace)

        live_args = (arrival_feed, live_sync) if arrival_feed is not None else (None, None)

        epoch_index = start_epoch
        try:
            while True:
                if epoch_index >= self.config.max_epochs:
                    raise SimulationError(
                        "epoch limit reached before the trace completed"
                    )
                if suspend_at_epoch is not None and epoch_index >= suspend_at_epoch:
                    return self._capture_checkpoint(
                        epoch_index, time_s, energy, processed_tokens,
                        utilization_time, stalled_epochs, injector,
                    )
                if arrival_feed is not None:
                    live_sync(None, wait=False)
                    # Never fill at a clock the watermark has not covered: an
                    # epoch whose actual duration overshot its plan may have
                    # advanced past arrivals a client has yet to submit.
                    if (not arrival_feed.is_drained()
                            and arrival_feed.watermark() < time_s):
                        live_sync(time_s, wait=True)
                if scheduler.all_done:
                    if arrival_feed is None or arrival_feed.is_finished():
                        break
                    # Everything ingested so far is served; block for input.
                    live_sync(None, wait=True)
                    continue
                active, time_s = self._admit_or_skip_idle(time_s, *live_args)
                if injector is not None:
                    applied, delay = injector.poll(time_s)
                    if applied:
                        # Recovery consumed wall-clock, and the fault may have
                        # re-queued (even all of) the active set; re-admit so
                        # the epoch below runs against the post-fault state.
                        time_s += delay
                        if (arrival_feed is not None
                                and not arrival_feed.is_drained()
                                and arrival_feed.watermark() < time_s):
                            live_sync(time_s, wait=True)
                        active, time_s = self._admit_or_skip_idle(time_s, *live_args)
                if not active:
                    if arrival_feed is None or arrival_feed.is_finished():
                        break
                    live_sync(None, wait=True)
                    continue

                # `active` is already a defensive copy.
                plan = self._plan_epoch(active, time_s)
                if arrival_feed is not None and not arrival_feed.is_drained():
                    # The planner only saw ingested arrivals; make sure no
                    # future client submission could land inside this epoch
                    # (which would have split it), then re-plan with whatever
                    # the wait released.  No epoch index is consumed: batch
                    # never ran these aborted plans.
                    # (A split plan's takes already end at the in-queue
                    # arrival, so its horizon never reaches past the
                    # watermark that released that arrival.)
                    horizon = time_s + self._planned_duration(plan)
                    if arrival_feed.watermark() < horizon:
                        live_sync(horizon, wait=True)
                        continue
                if plan.split:
                    self._split_epochs += 1

                tally = advance(active, plan, time_s)

                if tally.tokens == 0:
                    stalled_epochs = self._handle_stall(stalled_epochs)
                    epoch_index += 1
                    continue
                # Only a completion proves the stalls are behind us: a lone
                # sequence whose growth never fits is evicted by the stall,
                # re-admitted and re-prefills the same tokens forever.
                if tally.finished:
                    stalled_epochs = 0

                duration, utilization, epoch_energy = self._close_epoch(
                    tally.tokens,
                    tally.context_weighted,
                    tally.energy_bins,
                    tally.prefill_segments,
                    tally.decode_sequences,
                    tally.max_decode_chunk,
                )
                time_s += duration
                self._stamp_epoch_end(time_s, tally.first_decoders, tally.finished)
                # Fold finished sequences into the streaming stats now — the
                # epoch-end stamps above are their final timestamps, and in
                # streaming mode the scheduler retains no completed list to
                # fold from later.
                if self._accumulator is not None:
                    for sequence in tally.finished:
                        self._accumulator.note_completed(sequence)
                if arrival_feed is not None:
                    arrival_feed.notify_epoch(time_s, tally.finished, scheduler)
                energy = energy + epoch_energy
                processed_tokens += tally.tokens
                utilization_time += utilization * duration
                self.epochs.append(
                    EpochRecord(
                        epoch=epoch_index,
                        tokens=tally.tokens,
                        utilization=utilization,
                        duration_s=duration,
                        active_sequences=len(active),
                    )
                )
                self.epoch_count += 1
                epoch_index += 1
        except _LiveSuspend as suspend:
            return suspend.checkpoint

        return self._finish(
            trace, workload_name, time_s, energy, processed_tokens,
            utilization_time, injector.stats if injector is not None else None,
        )

    def _ingest_live(self, arrival_feed, trace: Trace) -> None:
        """Move feed-released arrivals into the trace and the admission queue.

        Release order is (arrival_time, request_id) — the order a batch trace
        generator emits — so FCFS queue order matches the equivalent batch
        submission exactly.  Queue order among equals is submission order, as
        if the requests had been in the trace from the start; the watermark
        gates of :meth:`_drive` ingest every request before the first fill
        that could admit it, which is what keeps daemon replays bit-for-bit
        equal to batch runs.
        """
        released = arrival_feed.take_released()
        if released:
            trace.requests.extend(released)
            self.scheduler.submit_all(released)

    # ----------------------------------------------------------- run lifecycle

    def _prepare_run(self, trace: Trace, fault_plan, resume_from):
        """Shared run prologue: submit or restore, build the fault injector.

        Returns ``(injector, (start_epoch, time_s, energy, processed_tokens,
        utilization_time, stalled_epochs))``.

        A trace carrying a lazy ``stream``
        (:class:`~repro.workload.streams.StreamingTrace`) is served in
        streaming mode: the scheduler pulls arrivals as simulated time
        advances and drops its completed/shed history lists (the accumulator
        below captures the stats instead), bounding resident memory by the
        active set rather than the trace length.
        """
        scheduler = self.scheduler
        self._carried = None
        # Deadline-aware shedding judges waiting requests against their
        # tenant's SLO; harmless otherwise (only consulted when enabled).
        scheduler.slo_lookup = trace.slo_for
        # Per-tenant KV quotas ride on the trace (duck-typed: streaming traces
        # carry them too).  An empty dict leaves the manager untouched, so
        # quota-free runs stay bitwise identical.
        quotas = getattr(trace, "tenant_quotas", None)
        if quotas:
            set_quotas = getattr(self.kv_manager, "set_tenant_quotas", None)
            if set_quotas is None:
                raise ConfigurationError(
                    "trace carries tenant KV quotas but the KV manager does "
                    "not support them"
                )
            set_quotas(quotas)
        # Per-request stats fold incrementally for *both* intakes (a pulled
        # stream or a submitted list): the exact small-N path is bitwise
        # identical to the historical list-based `_finish`, so the two agree.
        accumulator = ServeAccumulator(trace.slo_for)
        self._accumulator = accumulator
        scheduler.on_shed = accumulator.note_shed
        stream = getattr(trace, "stream", None)
        if stream is not None:
            scheduler.attach_stream(stream)
            scheduler.retain_history = False
        injector = None
        if fault_plan is not None and len(fault_plan):
            from ..sim.faults import FaultInjector  # runtime-only: no cycle

            injector = FaultInjector(plan=fault_plan, engine=self)
        if resume_from is not None:
            return injector, self._restore_checkpoint(trace, resume_from, injector)
        if stream is None:
            scheduler.submit_all(list(trace.requests))
        self.epochs = deque(maxlen=_EPOCH_RING)
        self.epoch_count = 0
        self._split_epochs = 0
        return injector, (0, 0.0, EnergyBreakdown(), 0, 0.0, 0)

    def _capture_checkpoint(
        self,
        next_epoch_index: int,
        time_s: float,
        energy: EnergyBreakdown,
        processed_tokens: int,
        utilization_time: float,
        stalled_epochs: int,
        injector,
    ) -> EngineCheckpoint:
        """Snapshot the complete engine state at an epoch boundary."""
        scheduler = self.scheduler
        sequences: dict[int, dict] = {}
        for sequence in (
            scheduler.waiting
            + scheduler.active
            + scheduler.completed
            + scheduler.shed
        ):
            sequences[sequence.sequence_id] = {
                "phase": sequence.phase.value,
                "prefill_progress": sequence.prefill_progress,
                "decode_progress": sequence.decode_progress,
                "eviction_count": sequence.eviction_count,
                "preemptions": sequence.preemptions,
                "recomputed_tokens": sequence.recomputed_tokens,
                "extra_prefill": sequence.extra_prefill,
                "decode_offset": sequence.decode_offset,
                "admission_time": sequence.admission_time,
                "first_token_time": sequence.first_token_time,
                "completion_time": sequence.completion_time,
                "retry_at": sequence.retry_at,
                "retries": sequence.retries,
                "metadata": dict(sequence.metadata),
            }
        return EngineCheckpoint(
            next_epoch_index=next_epoch_index,
            time_s=time_s,
            energy=asdict(energy),
            processed_tokens=processed_tokens,
            utilization_time=utilization_time,
            stalled_epochs=stalled_epochs,
            split_epochs=self._split_epochs,
            epochs=[asdict(record) for record in self.epochs],
            sequences=[[seq_id, sequences[seq_id]] for seq_id in sorted(sequences)],
            scheduler=scheduler.snapshot_state(),
            kv=self.kv_manager.snapshot_state(),
            faults=injector.snapshot_state() if injector is not None else None,
            epoch_count=self.epoch_count,
            stream_cursor=(
                scheduler.stream.emitted if scheduler.stream is not None else -1
            ),
            accumulator=(
                self._accumulator.state() if self._accumulator is not None else None
            ),
        )

    def _restore_checkpoint(self, trace: Trace, checkpoint: EngineCheckpoint, injector):
        """Load a checkpoint into this (freshly built) engine.

        Returns the epoch-loop state tuple ``_prepare_run`` hands back.
        """
        scheduler = self.scheduler
        if checkpoint.stream_cursor >= 0:
            # Streaming run: the arrival stream (attached by `_prepare_run`,
            # regenerated from the spec) replays deterministically, so rather
            # than persisting every emitted request the checkpoint stores the
            # emission cursor.  Fast-forward to it, keeping only the sequences
            # the checkpoint still tracks (waiting + active; completed and
            # shed history lives in the accumulator state).
            stream = scheduler.stream
            if stream is None:
                raise ConfigurationError(
                    "checkpoint was taken from a streaming run but the "
                    "resumed trace has no attached stream"
                )
            if stream.emitted:
                raise ConfigurationError(
                    "streaming resume requires a freshly regenerated stream"
                )
            needed = {seq_id for seq_id, _ in checkpoint.sequences}
            by_id = {}
            while stream.emitted < checkpoint.stream_cursor:
                request = stream.pop()
                if request.request_id in needed:
                    by_id[request.request_id] = Sequence(request=request)
        else:
            # Materialised run: every request was submitted up front.  A
            # stream stands in for the list by draining here, so the run's
            # not-yet-arrived requests are queued exactly as the checkpoint
            # holds them.
            by_id = {
                request.request_id: Sequence(request=request)
                for request in trace
            }
        for seq_id, data in checkpoint.sequences:
            sequence = by_id.get(seq_id)
            if sequence is None:
                raise ConfigurationError(
                    f"checkpoint does not match the trace: request {seq_id} "
                    "is not part of the regenerated trace"
                )
            sequence.phase = SequencePhase(data["phase"])
            sequence.prefill_progress = data["prefill_progress"]
            sequence.decode_progress = data["decode_progress"]
            sequence.eviction_count = data["eviction_count"]
            sequence.preemptions = data.get("preemptions", 0)
            sequence.recomputed_tokens = data["recomputed_tokens"]
            sequence.extra_prefill = data["extra_prefill"]
            sequence.decode_offset = data["decode_offset"]
            sequence.admission_time = data["admission_time"]
            sequence.first_token_time = data["first_token_time"]
            sequence.completion_time = data["completion_time"]
            sequence.retry_at = data["retry_at"]
            sequence.retries = data["retries"]
            sequence.metadata = dict(data["metadata"])
        scheduler.restore_state(checkpoint.scheduler, by_id)
        self.kv_manager.restore_state(checkpoint.kv)
        self.epochs = deque(
            (EpochRecord(**record) for record in checkpoint.epochs),
            maxlen=_EPOCH_RING,
        )
        self.epoch_count = (
            checkpoint.epoch_count
            if checkpoint.epoch_count >= 0
            else len(self.epochs)
        )
        self._split_epochs = checkpoint.split_epochs
        if self._accumulator is not None:
            if checkpoint.accumulator is not None:
                self._accumulator.restore_state(checkpoint.accumulator)
            else:
                # Pre-streaming checkpoint: the per-request history survived
                # in the scheduler's retained lists with final timestamps, so
                # replaying them in list order reproduces the fold exactly.
                for sequence in scheduler.completed:
                    self._accumulator.note_completed(sequence)
                for sequence in scheduler.shed:
                    self._accumulator.note_shed(sequence)
        if injector is not None and checkpoint.faults is not None:
            injector.restore_state(checkpoint.faults)
        return (
            checkpoint.next_epoch_index,
            checkpoint.time_s,
            EnergyBreakdown(**checkpoint.energy),
            checkpoint.processed_tokens,
            checkpoint.utilization_time,
            checkpoint.stalled_epochs,
        )

    # ------------------------------------------------------------ epoch pieces

    def _plan_epoch(self, snapshot: list[Sequence], time_s: float) -> EpochPlan:
        """Derive every active sequence's takes, splitting at the next arrival.

        The baseline budget is ``min(chunk, remaining)`` per sequence, split
        into a prefill take at its current position and a decode take right
        after it (:meth:`EpochPlan.derive`).  When the next admission
        candidate's arrival (policy-defined, see :meth:`_gap_to_next_arrival`)
        lands strictly inside the epoch's planned duration, the budgets are
        scaled down proportionally (``floor``, but at least one token per
        advancing sequence so the epoch always makes progress) so the epoch
        closes at the arrival (:meth:`EpochPlan.truncated`); the remainder of
        each chunk carries into the next epoch.  Token granularity means the
        boundary can overshoot the arrival by at most one token per active
        sequence — the bounded admission error the split exists to provide.

        Both engine paths call this exact code, so the split decision — the
        only place planned (pre-KV-growth) floating-point arithmetic feeds
        back into the simulation — can never diverge between them.  A trace
        whose queue head has already arrived (closed batch, or a head blocked
        on capacity) never splits.

        The sequences' state comes from :meth:`_plan_rows`; everything else
        is derived from its rows.
        """
        plan = EpochPlan.derive(self._plan_rows(snapshot), self.config.chunk_tokens)
        gap = self._gap_to_next_arrival(time_s)
        if gap is not None:
            planned = self._planned_duration(plan)
            if 0.0 < gap < planned:
                plan = plan.truncated(gap / planned)
        return plan

    def _plan_rows(self, snapshot: list[Sequence]) -> PlanRows:
        """The plan rows of every sequence in ``snapshot``.

        After a fast epoch the rows of the sequences it left active are
        carried over.  While the scheduler reports no departure since, the
        active list has only grown at its end, so the snapshot starts with
        exactly those sequences, in order, and only the newly admitted ones
        behind them are read.  Otherwise every sequence is read.
        """
        carried = self._carried
        if carried is not None and carried[1] == self.scheduler.departures:
            rows = carried[0]
            kept = len(rows.context)
            if kept == len(snapshot):
                return rows
            return PlanRows._make(map(add, rows, self._read_rows(snapshot[kept:])))
        return self._read_rows(snapshot)

    @staticmethod
    def _read_rows(sequences: list[Sequence]) -> PlanRows:
        """Read the plan rows of ``sequences`` from their counters, in one pass."""
        rows = PlanRows([], [], [], [], [])
        for s in sequences:
            prompt = s.request.prefill_length
            prefilled, decoded = s.prefill_progress, s.decode_progress
            offset = s.decode_offset
            for row, value in zip(rows, (
                prompt + s.extra_prefill - prefilled,
                s.request.decode_length - offset - decoded,
                prefilled + decoded,
                offset + decoded,
                prompt,
            )):
                row.append(value)
        return rows

    def _gap_to_next_arrival(self, time_s: float) -> float | None:
        """Seconds until admission can next progress (None when it cannot gate).

        The instant comes from the scheduler's policy — the FCFS queue head's
        arrival (None once the head has arrived, even if blocked on
        capacity), or the earliest *future* tenant-head arrival under wfq /
        priority (an already-arrived capacity-blocked head does not hide a
        later head there, because the policy may admit the newcomer
        immediately) — so the split boundary respects the configured
        admission order.  Returns None when there is no future arrival to
        split at.
        """
        arrival = self.scheduler.next_future_arrival(time_s)
        if arrival is None:
            return None
        return arrival - time_s

    def _planned_duration(self, plan: EpochPlan) -> float:
        """Estimated duration of an epoch advancing the planned takes.

        Mirrors :meth:`_close_epoch`'s duration arithmetic on the *planned*
        state: KV-growth failures and mid-epoch evictions can still shrink the
        epoch that actually runs, so this is a deterministic estimate for the
        split decision, not the closing value.  Uses the side-effect-free
        :meth:`planned_utilization` because a truncated plan is re-evaluated
        at close time.
        """
        budgets = plan.budgets
        epoch_tokens = sum(budgets)
        if epoch_tokens <= 0:
            return 0.0
        rows = plan.rows
        interval = self.stage_interval(
            _halved(_doubled_count(budgets, rows.context)) / epoch_tokens
        )
        if self.full_prefill_rows:
            # A sequence without a prefill take has no prompt left to prefill.
            segments = PrefillSegments(
                plan.prefill_takes, rows.remaining_prefill, rows.prefill_length
            )
        else:
            segments = PrefillSegments.prefilling(
                plan.prefill_takes, rows.remaining_prefill, rows.prefill_length
            )
        decode_takes = plan.decode_takes
        utilization = max(
            1e-6,
            min(
                1.0,
                self.planned_utilization(
                    segments, len(decode_takes) - decode_takes.count(0)
                ),
            ),
        )
        duration = epoch_tokens * interval / utilization
        return max(duration, max(decode_takes) * self.depth * interval)

    def _admit_or_skip_idle(
        self, time_s: float, arrival_feed=None, live_sync=None
    ) -> tuple[list[Sequence], float]:
        """Fill at the current clock, jumping across idle gaps to the next arrival.

        Open-loop serving can leave the wafer idle: nothing active and every
        waiting request still in the future.  The simulation then advances the
        clock to the earliest arrival instead of stalling.  Returns the active
        snapshot and the (possibly advanced) clock; an empty snapshot means the
        trace is drained.  Raises only for a genuine capacity stall — a waiting
        sequence that *has* arrived but cannot be held even with the cache empty.

        With a live ``arrival_feed``, an idle jump past the feed's watermark
        first blocks (via ``live_sync``) until clients have promised the gap
        really is empty — a request they submit meanwhile may land earlier
        than the jump target.
        """
        scheduler = self.scheduler
        scheduler.fill(time_s)
        active = scheduler.active
        # The loop handles cascades the single jump cannot: a shed-with-backoff
        # queue where the jumped-to request is immediately deadline-shed on
        # arrival, leaving only later-eligible requests behind it.  Each pass
        # either admits something, drains the queue, or strictly advances the
        # clock, so it terminates.  `has_pending` also covers arrivals still
        # inside an attached stream (and is O(1), unlike `waiting`).
        while not active and scheduler.has_pending:
            arrived = scheduler.has_arrived_waiting(time_s)
            if arrived and time_s >= scheduler.admission_stall_until:
                raise SimulationError(
                    "KV cache cannot hold even a single waiting sequence; "
                    "reduce sequence lengths or enlarge the wafer"
                )
            target = time_s
            if not arrived:
                # Every waiting request is still in the future (an idle gap,
                # or every candidate backing off after an overload shed), not
                # a capacity stall.  Jump the clock to the earliest admission
                # instant.  The scheduler just reported waiting sequences, so
                # a missing arrival time is a malformed trace/scheduler —
                # raise a typed error instead of poisoning the clock with None.
                arrival = scheduler.next_arrival_time()
                if arrival is None:
                    raise SimulationError(
                        "scheduler reports waiting sequences but no next "
                        "arrival time; the trace or scheduler state is "
                        "malformed"
                    )
                target = max(target, arrival)
            # An injected admission stall freezes intake: with nothing active
            # the wafer simply waits the stall out (no other work to do).
            if scheduler.admission_stall_until > target:
                target = scheduler.admission_stall_until
            if (arrival_feed is not None and not arrival_feed.is_drained()
                    and target > arrival_feed.watermark()):
                live_sync(target, wait=True)
                scheduler.fill(time_s)
                active = scheduler.active
                continue
            if target <= time_s:
                raise SimulationError(
                    "admission cannot make progress: the scheduler reports a "
                    "future candidate that is not in the future; the trace "
                    "or scheduler state is malformed"
                )
            time_s = target
            scheduler.fill(time_s)
            active = scheduler.active
        return active, time_s

    @staticmethod
    def _stamp_epoch_end(
        time_s: float, first_decoders: list[Sequence], finished: list[Sequence]
    ) -> None:
        """Stamp per-request timestamps with the epoch-*end* wall clock.

        A token produced during an epoch leaves the pipeline when the epoch's
        duration has elapsed, so both the first-output-token time and the
        completion time are the post-duration clock (the in-loop
        ``scheduler.complete`` call stamped the epoch start; overwrite it).
        """
        for sequence in first_decoders:
            sequence.first_token_time = time_s
        for sequence in finished:
            sequence.completion_time = time_s

    def _handle_stall(self, stalled_epochs: int) -> int:
        """Nothing could make progress: force an eviction to break the tie."""
        stalled_epochs += 1
        if stalled_epochs > _MAX_STALLED_EPOCHS:
            raise SimulationError(
                f"pipeline stalled {_MAX_STALLED_EPOCHS} epochs without completing "
                "a sequence; a sequence's context does not fit the configured KV cache"
            )
        # With nothing left to evict (the epoch's only sequence was shed
        # mid-growth as quota-doomed) the loop's admission checks decide
        # whether to refill or finish.
        self.scheduler.evict_most_recent()
        return stalled_epochs

    def _close_epoch(
        self,
        epoch_tokens: int,
        context_weighted: float,
        energy_bins: dict[int, int],
        prefill_segments: list[tuple[Sequence, int]] | PrefillSegments,
        decode_sequences: int,
        max_decode_chunk: int,
    ) -> tuple[float, float, EnergyBreakdown]:
        """Duration / utilization / energy of one epoch (shared by both paths)."""
        if epoch_tokens <= 0:
            # Both epoch loops skip empty epochs before closing them; getting
            # here means an engine-invariant violation, which should surface
            # as a typed error rather than a bare ZeroDivisionError.
            raise SimulationError(
                "internal error: _close_epoch called for an epoch that "
                "processed no tokens"
            )
        avg_context = context_weighted / epoch_tokens
        interval = self.stage_interval(avg_context)
        utilization = max(
            1e-6, min(1.0, self.epoch_utilization(prefill_segments, decode_sequences))
        )
        duration = epoch_tokens * interval / utilization
        # Autoregressive dependency bound: a decoding sequence produces at
        # most one token per full pipeline traversal, no matter how much
        # other work keeps the pipeline busy.
        dependency_bound = max_decode_chunk * self.depth * interval
        duration = max(duration, dependency_bound)
        utilization = (
            min(utilization, epoch_tokens * interval / duration)
            if duration > 0
            else utilization
        )
        # One memoized per-token energy per quantized context bin -- not per
        # segment -- scaled by the bin's tokens and summed in first-touch
        # order, one running sum per energy category.
        compute = on_chip = off_chip = communication = 0.0
        rows = self._energy_rows
        for key, tokens in energy_bins.items():
            row = rows.get(key) or self._energy_row(key)
            compute += row[0] * tokens
            on_chip += row[1] * tokens
            off_chip += row[2] * tokens
            communication += row[3] * tokens
        return duration, utilization, EnergyBreakdown(
            compute, on_chip, off_chip, communication
        )

    def _finish(
        self,
        trace: Trace,
        workload_name: str | None,
        time_s: float,
        energy: EnergyBreakdown,
        processed_tokens: int,
        utilization_time: float,
        fault_stats: FaultStats | None = None,
    ) -> RunResult:
        # Pipeline fill/drain: one full traversal at the final context length.
        if processed_tokens > 0:
            time_s += self.cost_model.token_pipeline_latency(
                int(trace.mean_prefill_length) or 1
            )
        # Per-request latency metrics come from the streaming accumulator,
        # which folded every finished sequence as its completion epoch closed
        # (epoch-end timestamps) and every permanent shed as it happened.
        # TTFT excludes prefill-only requests (they never emit an output
        # token); neither metric includes the final pipeline fill/drain
        # correction, which is a trace-level constant.  At small N the
        # accumulator's exact mode reproduces the historical sample-list
        # arithmetic bit for bit.
        #
        # Per-tenant breakdown (single-tenant traces collapse to one entry)
        # plus SLO goodput.  Every tenant is judged by its own SLO when one is
        # set (interactive and batch tenants rarely share a deadline), falling
        # back to the trace-wide target; tenants with no applicable SLO carry
        # goodput None and stay out of the aggregate's denominator.  Shed
        # requests count against goodput (a dropped request never met its
        # SLO): shedding improves goodput only honestly, by freeing capacity
        # so the *surviving* requests meet their deadlines.
        accumulator = self._accumulator
        if accumulator is None:
            raise SimulationError(
                "internal error: _finish called before _prepare_run"
            )
        # Queue depth at capture time: always 0 for a drained batch run, but
        # the same field carries the live depth in the daemon's rolling
        # metrics, so batch results and live telemetry share one shape.
        queue_depths = self.scheduler.queue_depths()
        tenants, met_total, judged_total = accumulator.tenant_results(queue_depths)
        overall_goodput = None
        if trace.slo is not None or trace.tenant_slos:
            overall_goodput = (met_total / judged_total) if judged_total else 0.0

        return RunResult(
            system=self.name,
            model=self.arch.name,
            workload=workload_name or trace.spec.name,
            total_time_s=time_s,
            total_tokens=processed_tokens,
            output_tokens=accumulator.output_tokens,
            energy=energy,
            utilization=(utilization_time / time_s) if time_s > 0 else 0.0,
            recomputed_tokens=self.scheduler.stats.recomputed_tokens,
            evictions=self.scheduler.stats.evictions,
            ttft=accumulator.ttft.finalize(),
            latency=accumulator.latency.finalize(),
            goodput=overall_goodput,
            tenants=tenants,
            faults=fault_stats,
            shed_requests=accumulator.shed_total,
            extra={"epochs": self.epoch_count, "split_epochs": self._split_epochs},
        )

