"""Overload admission equals its reference scans, operation by operation.

Two shortcuts of the scheduler's overload path must change no decision:

* the deadline shedder runs its queue scan only when some tenant's oldest
  waiting arrival fails the scan's own test;
* wfq and priority decline a preemption at once when the candidate ranks at
  or below every sequence the policy ever queued or restored.

Each is driven side by side with a reference that always scans, through
random operation sequences: submissions (and live ingests) whose arrivals
are out of order, fills as the clock advances, completions, evictions,
depth shedding with retries and backoff, preemption under a concurrency
cap, and checkpoint restores mid-run.  Every observable -- admissions, the
queue, the shed list, every ``on_shed`` call, the stats and each sequence's
phase and retry state -- must match after every operation.
"""

import json
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.policies import PriorityAgingPolicy, WFQPolicy, make_policy
from repro.workload.requests import Request, SLOTarget
from repro.workload.scheduler import InterSequenceScheduler

from .test_scheduler import FakeKVProvider

TENANTS = ("a", "b", "c")


class UngatedScheduler(InterSequenceScheduler):
    """The deadline scan on every fill: what the gated scheduler must equal."""

    def _deadline_due(self, time, slo_lookup):
        return True


class ScanningWFQ(WFQPolicy):
    """wfq's victim choice as one scan of the residents, never declining
    early."""

    def select_victim(self, candidate, active):
        return self._lowest_ranked(
            active, lambda sequence: sequence.request.weight, candidate.request.weight
        )


class ScanningPriority(PriorityAgingPolicy):
    """priority's victim choice as one scan of the residents."""

    def select_victim(self, candidate, active):
        return self._lowest_ranked(
            active,
            lambda sequence: float(sequence.request.priority),
            float(candidate.request.priority),
        )


SCANNING = {"wfq": ScanningWFQ, "priority": ScanningPriority}


def scan_victim(policy, candidate, active):
    """The parent scan of :meth:`select_victim` for ``policy``'s kind."""
    return SCANNING[policy.name].select_victim(policy, candidate, active)


@st.composite
def overload_scenarios(draw):
    """A scheduler configuration, per-tenant SLOs and ranks, and operations
    that carry the numbers picking their tenant, arrival, clock step or
    sequence."""
    config = {
        "policy": draw(st.sampled_from(["fcfs", "wfq", "priority"])),
        "ttft": [draw(st.sampled_from([None, 0.05, 0.2, 0.6])) for _ in TENANTS],
        "weight": [draw(st.sampled_from([0.5, 1.0, 2.0, 8.0])) for _ in TENANTS],
        "priority": [draw(st.integers(0, 3)) for _ in TENANTS],
        "capacity": draw(st.integers(1, 4)),
        "max_active": draw(st.sampled_from([None, 1, 2, 3])),
        "preemptive": draw(st.booleans()),
        "headroom": draw(st.sampled_from([0.0, 0.02])),
        "depth": draw(st.sampled_from([None, None, 1, 3])),
        "retries": draw(st.integers(0, 2)),
        "backoff": draw(st.sampled_from([0.0, 0.04])),
    }
    submit = st.tuples(
        # a tenant, and an arrival relative to the clock: a request can
        # arrive before ones already queued (out of order) or in the future
        st.sampled_from(["submit", "submit", "ingest"]),
        st.integers(0, len(TENANTS) - 1),
        st.sampled_from([-0.3, -0.1, 0.0, 0.0, 0.03, 0.2]),
    )
    fill = st.tuples(st.just("fill"), st.just(0), st.sampled_from([0.0, 0.02, 0.07, 0.25]))
    other = st.tuples(
        st.sampled_from(["complete", "complete", "evict", "restore"]),
        st.integers(0, 100),
        st.just(0.0),
    )
    ops = draw(st.lists(st.one_of(submit, fill, other), min_size=10, max_size=80))
    return config, ops


class Side:
    """One scheduler of a differential pair, with everything it observed."""

    def __init__(self, config, scheduler_cls, policy_cls):
        self.config = config
        self.scheduler_cls = scheduler_cls
        self.policy_cls = policy_cls
        self.sequences = {}
        self.shed_calls = []
        self.scheduler = self._fresh(FakeKVProvider(config["capacity"]))

    def _fresh(self, provider):
        config = self.config
        policy = (
            make_policy(config["policy"]) if self.policy_cls is None
            else self.policy_cls()
        )
        scheduler = self.scheduler_cls(
            provider,
            max_active_sequences=config["max_active"],
            policy=policy,
            max_queue_depth=config["depth"],
            shed_deadline=True,
            shed_headroom_s=config["headroom"],
            shed_retries=config["retries"],
            shed_backoff_s=config["backoff"],
            preemptive=config["preemptive"],
        )
        slos = {
            tenant: None if ttft is None else SLOTarget(ttft_s=ttft)
            for tenant, ttft in zip(TENANTS, config["ttft"])
        }
        scheduler.slo_lookup = slos.get
        scheduler.on_shed = lambda sequence: self.shed_calls.append(sequence.sequence_id)
        return scheduler

    def restore(self):
        """Checkpoint mid-run and resume on a fresh scheduler."""
        state = json.loads(json.dumps(self.scheduler.snapshot_state()))
        provider = FakeKVProvider(self.config["capacity"])
        provider.resident = dict(self.scheduler.kv_provider.resident)
        self.scheduler = self._fresh(provider)
        self.scheduler.restore_state(state, self.sequences)

    def apply(self, kind, pick, amount, request, now):
        scheduler = self.scheduler
        if kind in ("submit", "ingest"):
            if kind == "submit":
                sequence = scheduler.submit(request)
            else:
                (sequence,) = scheduler.submit_all([request])
            self.sequences[sequence.sequence_id] = sequence
            return sequence.sequence_id
        if kind == "fill":
            return [sequence.sequence_id for sequence in scheduler.fill(now)]
        if kind == "complete":
            active = scheduler.active
            if active:
                scheduler.complete(active[pick % len(active)], now)
            return None
        if kind == "evict":
            victim = scheduler.evict_most_recent()
            return None if victim is None else victim.sequence_id
        self.restore()
        return None

    def observed(self):
        scheduler = self.scheduler
        return {
            "waiting": [sequence.sequence_id for sequence in scheduler.waiting],
            "active": [sequence.sequence_id for sequence in scheduler.active],
            "shed": [sequence.sequence_id for sequence in scheduler.shed],
            "on_shed": list(self.shed_calls),
            "stats": asdict(scheduler.stats),
            "resident": sorted(scheduler.kv_provider.resident),
            "sequences": [
                (seq_id, sequence.phase, sequence.retries, sequence.retry_at)
                for seq_id, sequence in sorted(self.sequences.items())
            ],
        }


def run_pair(config, ops, reference, change, on_step=None):
    """Drive ``reference`` and ``change`` through the same operations and
    require every answer and observable equal after each one."""
    now = 0.0
    for step, (kind, pick, amount) in enumerate(ops):
        if kind == "fill":
            now += amount
        request = None
        if kind in ("submit", "ingest"):
            request = Request(
                request_id=step, prefill_length=8, decode_length=4,
                arrival_time=max(0.0, now + amount), tenant=TENANTS[pick],
                weight=config["weight"][pick], priority=config["priority"][pick],
            )
        answers = [side.apply(kind, pick, amount, request, now) for side in (reference, change)]
        assert answers[0] == answers[1], (step, kind)
        assert reference.observed() == change.observed(), (step, kind)
        if on_step is not None:
            on_step(change)


@given(scenario=overload_scenarios())
@settings(max_examples=400, deadline=None)
def test_gated_deadline_shed_matches_ungated_scan(scenario):
    """Same sheds, in the same order, with the same ``on_shed`` calls and
    stats, as the scan run on every fill -- under FCFS, WFQ and priority,
    with depth shedding, backoff and restores in between."""
    config, ops = scenario
    run_pair(
        config, ops,
        Side(config, UngatedScheduler, None),
        Side(config, InterSequenceScheduler, None),
    )


def test_gate_skips_the_scan_but_not_a_shed(monkeypatch):
    """The gate saves scans: a queue whose oldest arrival is inside every
    deadline is not walked, and the scan runs once the oldest is late."""
    config = {
        "policy": "wfq", "ttft": [0.5, None, 0.1], "weight": [1.0] * 3,
        "priority": [0] * 3, "capacity": 1, "max_active": None,
        "preemptive": False, "headroom": 0.0, "depth": None, "retries": 0,
        "backoff": 0.0,
    }
    side = Side(config, InterSequenceScheduler, None)
    scans = []
    policy = side.scheduler.policy
    original = policy.waiting
    monkeypatch.setattr(policy, "waiting", lambda: scans.append(1) or original())
    # Tenant b has no TTFT SLO: its requests, however old, never trigger it.
    for step, (tenant, arrival) in enumerate([(1, 0.0), (0, 0.1), (0, 0.3), (2, 0.3)]):
        side.apply("submit", 0, 0, Request(
            request_id=step, prefill_length=8, decode_length=4,
            arrival_time=arrival, tenant=TENANTS[tenant],
        ), 0.0)
    assert [s.sequence_id for s in side.scheduler.fill(0.35)] == [0]
    assert scans == [] and side.shed_calls == []
    side.scheduler.fill(0.45)  # c's request is 0.15 old, past its 0.1
    assert side.shed_calls == [3]
    assert len(scans) == 2  # the scan, then the bounds made exact
    scans.clear()
    side.scheduler.fill(0.55)  # a's oldest (0.1) is 0.45 old, inside 0.5
    assert scans == []
    side.scheduler.fill(0.65)
    assert side.shed_calls == [3, 1]


def check_victims(side):
    """Every waiting candidate's victim equals the parent scan's."""
    policy = side.scheduler.policy
    if policy.name not in SCANNING:
        return
    active = side.scheduler.active
    for candidate in side.scheduler.waiting:
        assert policy.select_victim(candidate, active) is scan_victim(
            policy, candidate, active
        )


@given(scenario=overload_scenarios())
@settings(max_examples=400, deadline=None)
def test_victim_decline_matches_resident_scan(scenario):
    """wfq and priority choose every victim as the resident scan does --
    including after a restore and with requests ingested live -- and the
    scheduler driven by them makes the scan-driven one's every decision."""
    config, ops = scenario
    config["policy"] = "priority" if config["policy"] == "priority" else "wfq"
    config["preemptive"] = True
    config["max_active"] = config["max_active"] or 2
    run_pair(
        config, ops,
        Side(config, InterSequenceScheduler, SCANNING[config["policy"]]),
        Side(config, InterSequenceScheduler, None),
        on_step=check_victims,
    )


def test_decline_needs_a_lower_ranked_sequence_seen():
    """A candidate at the lowest weight any queued sequence had is declined
    without the scan; a heavier one still displaces the lightest resident,
    and a restore carries the lowest weight over."""
    config = {
        "policy": "wfq", "ttft": [None] * 3, "weight": [1.0, 8.0, 2.0],
        "priority": [0] * 3, "capacity": 8, "max_active": 1, "preemptive": True,
        "headroom": 0.0, "depth": None, "retries": 0, "backoff": 0.0,
    }
    side = Side(config, InterSequenceScheduler, None)
    light = Request(request_id=0, prefill_length=8, decode_length=4, tenant="a")
    heavy = Request(request_id=1, prefill_length=8, decode_length=4, tenant="b", weight=8.0)
    side.apply("submit", 0, 0, light, 0.0)
    assert [s.sequence_id for s in side.scheduler.fill(0.0)] == [0]
    side.restore()
    policy = side.scheduler.policy
    assert policy._lowest_rank == 1.0
    (resident,) = side.scheduler.active
    twin = side.scheduler.submit(
        Request(request_id=2, prefill_length=8, decode_length=4, tenant="a")
    )
    assert policy.select_victim(twin, [resident]) is None
    side.apply("ingest", 1, 0, heavy, 0.0)
    candidate = side.sequences[1]
    assert policy.select_victim(candidate, [resident]) is resident
    assert [s.sequence_id for s in side.scheduler.fill(0.0)] == [1]
    assert side.scheduler.stats.preemptions == 1


def test_backed_off_request_keeps_its_deadline():
    """A request the depth shedder backed off still counts towards its
    tenant's oldest waiting arrival once a scan makes the bound exact, so
    its deadline shed is not skipped."""
    config = {
        "policy": "fcfs", "ttft": [0.5, None, None], "weight": [1.0] * 3,
        "priority": [0] * 3, "capacity": 1, "max_active": None,
        "preemptive": False, "headroom": 0.0, "depth": 1, "retries": 1,
        "backoff": 0.1,
    }
    sides = [
        Side(config, UngatedScheduler, None), Side(config, InterSequenceScheduler, None)
    ]
    arrivals = [(1, 0.0), (0, 0.0), (0, 0.1)]  # a blocker, then two of a's
    for side in sides:
        for request_id, (tenant, arrival) in enumerate(arrivals):
            side.apply("submit", 0, 0, Request(
                request_id=request_id, prefill_length=8, decode_length=4,
                arrival_time=arrival, tenant=TENANTS[tenant],
            ), 0.0)
        side.scheduler.fill(0.0)
        side.scheduler.fill(0.15)  # depth 1: request 2 backs off to 0.25
        assert side.sequences[2].retries == 1
        side.scheduler.fill(0.55)  # request 1 is 0.55 old: shed
        assert side.shed_calls == [1]
        side.scheduler.fill(0.65)  # request 2 is 0.55 old: shed
        assert side.shed_calls == [1, 2]
    assert sides[0].observed() == sides[1].observed()
