"""The benchmark's three workloads, one repetition each.

Every workload builds its systems cold (setup), serves its requests (the
timed serve calls), and summarises the modelled outcome.  Inputs come only
from the seed: the same seed gives the same traces, so the modelled
(``sim_*``) results of a seed repeat exactly and a change that only speeds
up the simulator must leave them bit for bit.

* ``stream_wikitext`` -- llama-13b, one tenant, WikiText-2 lengths, FCFS,
  streaming trace; open loop, Poisson arrivals at the 93.1 req/s saturation
  anchor.  The epoch hot path: plan, advance, KV growth, stream pops and the
  accumulator fold, with ~38 active sequences per epoch.
* ``tenant_overload`` -- llama-13b, an interactive WikiText-2 tenant (wfq
  weight 8) and a batch 2048/2048 tenant, wfq with preemption, an 8-sequence
  cap, per-tenant KV quotas, deadline shedding and a fault plan of all four
  kinds; open loop past the capped capacity.  Scheduler, policy, quota-bound
  KV and fault work dominate.
* ``closed_grid`` -- the paper's Fig. 13/14 grid: four decoder models by
  four paper workloads on Ours and the four baselines, closed batch, through
  ``SweepRunner(max_workers=1).run_grid`` after four cold builds.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

from repro import api
from repro.api import SLOTarget
from repro.experiments.common import (
    DECODER_MODELS,
    OUROBOROS_NAME,
    PAPER_WORKLOAD_ORDER,
    ExperimentSettings,
)
from repro.perf.sweep import SweepRunner
from repro.results import RunResult
from repro.sim.faults import make_fault_plan
from repro.workload.generator import TenantSpec

MODEL = "llama-13b"
#: committed open-loop saturation anchor of llama-13b on WikiText-2 (req/s)
SATURATION_RATE_PER_S = 93.1

STREAM_REQUESTS = 4000
OVERLOAD_REQUESTS = 1200
#: offered load of ``tenant_overload`` as a share of the saturation anchor;
#: past the 8-sequence cap's capacity, short of shedding most requests
OVERLOAD_LOAD = 0.09
GRID_REQUESTS = 100


@dataclass
class Served:
    """One Ouroboros serve: its result plus what each tenant sent."""

    result: RunResult
    sent: dict[str, int]


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    serve_s: float
    #: requests simulated, summed over every system served
    requests: int
    ours: list[Served]
    #: modelled results only this workload has (printed for information)
    extra_sim: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------- the specs


def stream_spec(seed: int, requests: int = STREAM_REQUESTS):
    settings = ExperimentSettings(
        num_requests=requests, seed=seed, arrival_rate_per_s=SATURATION_RATE_PER_S
    )
    return settings.deployment(MODEL, "wikitext2")


def overload_spec(seed: int, requests: int = OVERLOAD_REQUESTS):
    rate = OVERLOAD_LOAD * SATURATION_RATE_PER_S
    interactive = (2 * requests) // 3
    batch = requests - interactive
    tenants = (
        TenantSpec(
            name="interactive", workload="wikitext2", num_requests=interactive,
            arrival_rate_per_s=rate * interactive / requests,
            slo=SLOTarget(ttft_s=0.6, latency_s=4.0), weight=8.0, kv_quota=0.6,
        ),
        TenantSpec(
            name="batch", workload="lp2048_ld2048", num_requests=batch,
            arrival_rate_per_s=rate * batch / requests,
            slo=SLOTarget(ttft_s=6.0), weight=1.0, kv_quota=0.3,
        ),
    )
    # Eight events over the arrival horizon of the full-size trace, cycling
    # through every fault kind; a shorter prefix sees the earlier ones.
    horizon_s = OVERLOAD_REQUESTS / rate
    faults = make_fault_plan(
        8.0 / horizon_s, horizon_s,
        kinds=("kv_block", "stall", "kv_core", "weight_core"),
        stall_duration_s=0.3,
    )
    settings = ExperimentSettings(
        num_requests=requests, seed=seed, tenants=tenants,
        scheduling_policy="wfq", max_active_sequences=8, preemptive=True,
        shed_deadline=True, shed_headroom_s=0.3, faults=faults,
    )
    return settings.deployment(MODEL, "wikitext2")


def grid_settings(seed: int, requests: int = GRID_REQUESTS) -> ExperimentSettings:
    return ExperimentSettings(num_requests=requests, seed=seed)


def sent_per_tenant(spec) -> dict[str, int]:
    if spec.tenants:
        return {tenant.name: tenant.num_requests for tenant in spec.tenants}
    return {"default": spec.num_requests}


# ------------------------------------------------------------ the workloads


def _timed_build(spec) -> tuple[object, float]:
    """A cold build: no memo, the wafer, defects, mapping and KV set up."""
    start = time.perf_counter()
    system = api.build_deployment(spec, cache=False)
    system.built
    return system, time.perf_counter() - start


def _serve_one(spec) -> Rep:
    system, setup_s = _timed_build(spec)
    trace = api.stream_for(spec)
    kwargs = {"fault_plan": spec.faults} if spec.faults is not None else {}
    start = time.perf_counter()
    result = system.serve(trace, workload_name=spec.label(), **kwargs)
    serve_s = time.perf_counter() - start
    return Rep(
        setup_s=setup_s,
        serve_s=serve_s,
        requests=api.total_spec_requests(spec),
        ours=[Served(result, sent_per_tenant(spec))],
    )


def run_stream_wikitext(seed: int) -> Rep:
    return _serve_one(stream_spec(seed))


def run_tenant_overload(seed: int) -> Rep:
    rep = _serve_one(overload_spec(seed))
    rep.extra_sim["sim_goodput"] = float(rep.ours[0].result.goodput)
    return rep


def run_closed_grid(seed: int) -> Rep:
    settings = grid_settings(seed)
    # Each model's first build is cold: the memo starts empty, so the four
    # timed builds are misses, and the grid below serves on them.
    api.clear_system_cache()
    setup_s = 0.0
    for model in DECODER_MODELS:
        start = time.perf_counter()
        api.build_deployment(settings.deployment(model, PAPER_WORKLOAD_ORDER[0])).built
        setup_s += time.perf_counter() - start
    runner = SweepRunner(max_workers=1)
    start = time.perf_counter()
    grid = runner.run_grid(DECODER_MODELS, PAPER_WORKLOAD_ORDER, settings)
    serve_s = time.perf_counter() - start
    if runner.cache_hits:
        raise RuntimeError("the sweep result cache answered a benchmark cell")

    ours: list[Served] = []
    speedups: list[float] = []
    efficiencies: list[float] = []
    served = 0
    for (model, workload), cell in grid.items():
        served += len(cell) * settings.num_requests
        result = cell[OUROBOROS_NAME]
        ours.append(Served(result, {"default": settings.num_requests}))
        baselines = [r for name, r in cell.items() if name != OUROBOROS_NAME]
        best_throughput = max(r.throughput_tokens_per_s for r in baselines)
        best_energy = min(r.energy_per_output_token_j for r in baselines)
        speedups.append(result.throughput_tokens_per_s / best_throughput)
        efficiencies.append(best_energy / result.energy_per_output_token_j)
    rep = Rep(setup_s=setup_s, serve_s=serve_s, requests=served, ours=ours)
    rep.extra_sim.update({
        "sim_speedup_geomean": _geomean(speedups),
        "sim_speedup_peak": max(speedups),
        "sim_efficiency_geomean": _geomean(efficiencies),
        "sim_efficiency_peak": max(efficiencies),
    })
    return rep


WORKLOADS = {
    "stream_wikitext": run_stream_wikitext,
    "tenant_overload": run_tenant_overload,
    "closed_grid": run_closed_grid,
}


# -------------------------------------------------------------- summaries


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def sim_metrics(rep: Rep) -> dict[str, float]:
    """The modelled end-to-end metrics of a repetition's Ouroboros serves.

    Throughput and energy pool every serve (tokens over simulated seconds,
    energy over tokens); the latency percentiles of several serves (the
    grid's cells) are combined by geometric mean.
    """
    results = [served.result for served in rep.ours]
    tokens = sum(r.output_tokens for r in results)
    return {
        "sim_tokens_per_s": tokens / sum(r.total_time_s for r in results),
        "sim_mj_per_token": 1e3 * sum(r.energy.total_j for r in results) / tokens,
        "sim_ttft_p50_s": _geomean([r.ttft.p50_s for r in results]),
        "sim_ttft_p99_s": _geomean([r.ttft.p99_s for r in results]),
        "sim_latency_p99_s": _geomean([r.latency.p99_s for r in results]),
    }


def sim_counts(rep: Rep) -> dict[str, float]:
    """Deterministic scheduler / pipeline counters summed over the serves."""
    results = [served.result for served in rep.ours]
    return {
        "pipeline.epochs": sum(r.extra["epochs"] for r in results),
        "pipeline.split_epochs": sum(r.extra["split_epochs"] for r in results),
        "scheduler.evictions": sum(r.evictions for r in results),
        "scheduler.preemptions": sum(
            t.preemptions for r in results for t in r.tenants.values()
        ),
        "scheduler.recomputed_tokens": sum(r.recomputed_tokens for r in results),
        "scheduler.shed": sum(r.shed_requests for r in results),
        "faults.injected": sum(r.faults.injected for r in results if r.faults),
    }


def conservation_errors(rep: Rep) -> int:
    """Requests not accounted for: per tenant, completed + shed == sent."""
    missing = 0
    for served in rep.ours:
        tenants = served.result.tenants
        for name, sent in served.sent.items():
            stats = tenants.get(name)
            done = stats.requests + stats.shed if stats is not None else 0
            missing += abs(sent - done)
        missing += sum(1 for name in tenants if name not in served.sent)
    return missing


def shape_errors(workload: str, counts: dict[str, float]) -> list[str]:
    """``tenant_overload`` must exercise every overload mechanism it names."""
    if workload != "tenant_overload":
        return []
    required = ("scheduler.preemptions", "scheduler.evictions", "scheduler.shed",
                "faults.injected")
    return [f"{name} is 0" for name in required if not counts[name]]


# ------------------------------------------------------------ fast == scalar

#: requests of the bounded prefix each Ouroboros serve is checked on
PARITY_REQUESTS = {"stream_wikitext": 300, "tenant_overload": 150, "closed_grid": 12}


def parity_specs(workload: str, seed: int) -> list:
    requests = PARITY_REQUESTS[workload]
    if workload == "stream_wikitext":
        return [stream_spec(seed, requests)]
    if workload == "tenant_overload":
        return [overload_spec(seed, requests)]
    settings = grid_settings(seed, requests)
    return [
        settings.deployment(model, workload_name)
        for model in DECODER_MODELS
        for workload_name in PAPER_WORKLOAD_ORDER
    ]


def parity_holds(spec) -> bool:
    """The vectorised engine path equals the scalar oracle bit for bit."""
    built = api.build_deployment(spec).built
    results = [
        runner(api.stream_for(spec), spec.label(), fault_plan=spec.faults)
        for runner in (built.make_pipeline().run, built.make_pipeline().run_scalar)
    ]
    return digest(results[:1]) == digest(results[1:])


def digest(results: list[RunResult]) -> str:
    """Bitwise fingerprint of modelled results (floats by exact repr)."""
    payload = json.dumps([r.as_dict() for r in results], sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()
