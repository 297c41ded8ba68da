"""Deterministic runtime fault injection for serving runs.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent`\\ s — KV-core
failures, weight-core failures, transient KV-block losses and admission
stalls — that a :class:`FaultInjector` applies while a pipeline engine serves
a trace.  Events fire at the first epoch boundary whose clock has reached
their ``time_s`` (epoch granularity is the simulation's native resolution;
sub-epoch fault timing would be below the model's fidelity anyway), and every
consequence flows through the existing serving machinery:

* ``kv_core`` permanently fails a healthy KV core through the distributed
  manager's :meth:`fail_core`; resident sequences that stored heads there are
  re-queued (tenant/priority preserved) and re-prefill their context.
* ``kv_block`` destroys the KV blocks on one core *without* failing it — the
  transient-loss case: affected sequences recompute, capacity is untouched.
* ``weight_core`` routes through the replacement-chain recovery model
  (:class:`~repro.mapping.fault_tolerance.FaultToleranceManager`): the chain's
  transfer latency is added to the clock and the terminal KV core's residents
  recompute.
* ``stall`` freezes new admissions for ``duration_s`` seconds; active
  sequences keep decoding.

Plans are plain data: dict/JSON round-trip for :class:`DeploymentSpec`
plumbing, plus a compact string syntax for the CLI —
``kind@time[:target[:duration]]`` items joined by commas, e.g.
``kv_core@0.5,stall@1.0:0:0.25``.  Everything is deterministic: the same plan
against the same trace produces bit-for-bit identical results, and runs
without a plan pay zero overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..results import FaultStats

FAULT_KINDS = ("kv_core", "weight_core", "kv_block", "stall")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: what happens, when, and to which target.

    ``target`` is an abstract index, not a core id: the injector resolves it
    against the *currently healthy* candidates (modulo their count), so plans
    stay valid regardless of wafer size or earlier failures.  ``duration_s``
    only applies to ``stall`` events.
    """

    time_s: float
    kind: str
    target: int = 0
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind '{self.kind}'; known kinds: {list(FAULT_KINDS)}"
            )
        if self.time_s < 0:
            raise ConfigurationError("fault time_s cannot be negative")
        if self.target < 0:
            raise ConfigurationError("fault target cannot be negative")
        if self.duration_s < 0:
            raise ConfigurationError("fault duration_s cannot be negative")

    def as_dict(self) -> dict:
        return {
            "time_s": self.time_s,
            "kind": self.kind,
            "target": self.target,
            "duration_s": self.duration_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A time-ordered set of fault events to inject into one serving run."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        # Normalise: accept any iterable, store a stable time-sorted tuple so
        # the injector can walk a cursor forward.
        ordered = tuple(sorted(self.events, key=lambda e: e.time_s))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def as_dict(self) -> dict:
        return {"events": [event.as_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(events=tuple(FaultEvent.from_dict(e) for e in data["events"]))

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the compact CLI syntax ``kind@time[:target[:duration]],...``."""
        events: list[FaultEvent] = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "@" not in item:
                raise ConfigurationError(
                    f"malformed fault event '{item}': expected "
                    "kind@time[:target[:duration]]"
                )
            kind, _, rest = item.partition("@")
            parts = rest.split(":")
            if len(parts) > 3 or not parts[0]:
                raise ConfigurationError(
                    f"malformed fault event '{item}': expected "
                    "kind@time[:target[:duration]]"
                )
            try:
                time_s = float(parts[0])
                target = int(parts[1]) if len(parts) > 1 and parts[1] else 0
                duration = float(parts[2]) if len(parts) > 2 and parts[2] else 0.0
            except ValueError as exc:
                raise ConfigurationError(
                    f"malformed fault event '{item}': {exc}"
                ) from exc
            events.append(
                FaultEvent(
                    time_s=time_s, kind=kind.strip(), target=target,
                    duration_s=duration,
                )
            )
        return cls(events=tuple(events))


def make_fault_plan(
    rate_per_s: float,
    horizon_s: float,
    *,
    kinds: tuple[str, ...] = ("kv_block", "stall"),
    stall_duration_s: float = 0.05,
    seed: int = 0,
) -> FaultPlan:
    """Deterministic plan: events at a fixed rate, cycling through ``kinds``.

    Used by the fault-recovery experiment to sweep fault rate without a live
    RNG: event times are the exact multiples of ``1 / rate_per_s`` up to the
    horizon, targets walk ``seed + index`` so successive events of one kind
    hit different cores.
    """
    if rate_per_s <= 0 or horizon_s <= 0:
        return FaultPlan()
    period = 1.0 / rate_per_s
    events = []
    index = 0
    while (index + 1) * period <= horizon_s:
        kind = kinds[index % len(kinds)]
        events.append(
            FaultEvent(
                time_s=(index + 1) * period,
                kind=kind,
                target=seed + index,
                duration_s=stall_duration_s if kind == "stall" else 0.0,
            )
        )
        index += 1
    return FaultPlan(events=tuple(events))


@dataclass
class FaultInjector:
    """Applies a :class:`FaultPlan` to a running pipeline engine.

    Constructed per run by ``PipelineEngine.run``/``run_scalar``; ``poll`` is
    called once per epoch after admission and applies every event whose time
    has been reached, returning ``(applied, extra_delay_s)`` — the delay is
    the recovery model's transfer latency, which the engine adds to its clock.
    """

    plan: FaultPlan
    engine: object
    stats: FaultStats = field(default_factory=FaultStats)

    def __post_init__(self) -> None:
        self._cursor = 0
        kv = self.engine.kv_manager
        kinds = {event.kind for event in self.plan.events}
        if kinds & {"kv_core", "kv_block"} and not hasattr(kv, "fail_core"):
            raise ConfigurationError(
                "kv_core/kv_block fault events require the dynamic distributed "
                "KV-cache manager; the static KV policy does not model "
                "per-core failures"
            )
        if "weight_core" in kinds and getattr(self.engine, "fault_recovery", None) is None:
            raise ConfigurationError(
                "weight_core fault events require a fault-recovery hook "
                "(serve through an Ouroboros system with the dynamic KV policy)"
            )

    # ------------------------------------------------------------------ state

    def snapshot_state(self) -> dict:
        return {"cursor": self._cursor, "stats": dict(self.stats.__dict__)}

    def restore_state(self, state: dict) -> None:
        self._cursor = state["cursor"]
        self.stats = FaultStats(**state["stats"])

    # ------------------------------------------------------------------- poll

    def poll(self, time_s: float) -> tuple[bool, float]:
        """Apply every not-yet-applied event with ``event.time_s <= time_s``."""
        applied = False
        delay = 0.0
        events = self.plan.events
        while self._cursor < len(events) and events[self._cursor].time_s <= time_s:
            event = events[self._cursor]
            self._cursor += 1
            delay += self._apply(event, time_s)
            applied = True
            self.stats.injected += 1
        return applied, delay

    def _apply(self, event: FaultEvent, time_s: float) -> float:
        if event.kind == "kv_core":
            return self._apply_kv_core(event)
        if event.kind == "kv_block":
            return self._apply_kv_block(event)
        if event.kind == "weight_core":
            return self._apply_weight_core(event)
        return self._apply_stall(event, time_s)

    def _apply_kv_core(self, event: FaultEvent) -> float:
        kv = self.engine.kv_manager
        failed = kv.failed_cores  # a fresh copy per access: read it once
        healthy = [c for c in kv.kv_core_ids if c not in failed]
        if not healthy:
            return 0.0  # every KV core already failed; nothing left to break
        core = healthy[event.target % len(healthy)]
        affected = kv.fail_core(core)
        self.stats.kv_core_failures += 1
        self._recompute(affected)
        return 0.0

    def _apply_kv_block(self, event: FaultEvent) -> float:
        kv = self.engine.kv_manager
        core = kv.kv_core_ids[event.target % len(kv.kv_core_ids)]
        affected = kv.sequences_on_core(core)
        self.stats.kv_block_losses += 1
        self._recompute(affected)
        return 0.0

    def _apply_weight_core(self, event: FaultEvent) -> float:
        result = self.engine.fault_recovery(event.target)
        if result is None:
            return 0.0  # no healthy weight core left to fail
        self.stats.weight_core_failures += 1
        self.stats.recovery_latency_s += result.recovery_latency_s
        self._recompute(result.affected_sequences)
        return result.recovery_latency_s

    def _apply_stall(self, event: FaultEvent, time_s: float) -> float:
        scheduler = self.engine.scheduler
        scheduler.admission_stall_until = max(
            scheduler.admission_stall_until, time_s + event.duration_s
        )
        self.stats.admission_stalls += 1
        self.stats.stall_time_s += event.duration_s
        return 0.0

    def _recompute(self, affected_ids) -> None:
        """Re-queue every active sequence whose KV the fault destroyed."""
        affected = set(affected_ids)
        if not affected:
            return
        scheduler = self.engine.scheduler
        for sequence in scheduler.active:  # copy; safe to mutate mid-walk
            if sequence.sequence_id in affected:
                tokens = scheduler.recompute_sequence(sequence)
                self.stats.recovered_sequences += 1
                self.stats.recompute_tokens += tokens
