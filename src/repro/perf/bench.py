"""Benchmark harness: time the headline experiments, emit machine-readable JSON.

``repro bench`` (or ``scripts/bench.sh``) times the serving simulator stage by
stage -- system build (mapping + KV setup) per model, trace serving per
workload (closed batch plus one open-loop arrival-driven run at the measured
saturation rate), a multi-tenant SLO-goodput serve (the fig23 shape: two
tenants, sub-epoch admission, per-tenant goodput accounting) under both the
FCFS and WFQ scheduling policies, a fault-recovery serve (the fig25 shape:
overloaded arrivals under a deterministic fault plan, with and without
overload shedding), a preemptive-scheduling serve (the fig26 shape: the
weighted tenant mix at 4x saturation under a batch cap, served with the wfq
preemption knob off and on), a live daemon replay of the open-loop run (booting a real
``ServingDaemon`` and streaming the trace over its socket protocol, with a
bitwise batch-parity headline), the full headline comparison grid, a
mapping-annealer microbenchmark, and a streaming-scale serve (the trace pulled
lazily from a request stream, with a simulated-requests-per-wall-clock-second
headline and a peak-RSS bound) -- and writes the measurements to a JSON file
(``BENCH_LATEST.json`` by default).  A change that adds a report to the
performance trajectory the repository carries alongside the code names it
``BENCH_PR<n>.json`` (``REPRO_BENCH_OUTPUT=BENCH_PR<n>.json scripts/bench.sh``);
``scripts/check_bench_regression.py`` gates CI on the deterministic headline
metrics staying bit-for-bit on trajectory.  A fixed calibration kernel is
timed just before and after every stage (``meta.host_slowdown``), so stage
times of two reports can also be compared with the host's speed divided out.

Runs are described as :class:`repro.api.DeploymentSpec` objects and built
through the system registry.  The harness measures *cold* numbers: every
stage builds its own systems (bypassing the api build memo) and the sweep
result cache is disabled, so the report reflects simulator speed, not cache
hits.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

#: loop iterations of one host-speed sample
CALIBRATION_ITERATIONS = 4_000
#: about the seconds one sample takes on an uncontended host (2-core x86-64
#: VM, Python 3.11, NumPy 2.4); a stage's slowdown is its samples over this
NOMINAL_CALIBRATION_S = 0.002


def calibration_kernel() -> float:
    """Seconds a fixed mix of dict, int and small-array work takes now.

    The mix resembles the simulator's own (Python bookkeeping around small
    NumPy calls), so a host slowed by its neighbours slows both by a similar
    factor.  The same mix as the repository benchmark's (``simbench``).
    """
    import numpy as np

    counts: dict[int, int] = {}
    array = np.arange(64, dtype=np.int64)
    total = 0
    start = time.perf_counter()
    for i in range(CALIBRATION_ITERATIONS):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
        if i % 8 == 0:
            total += int(np.minimum(array, i & 63).sum())
    return time.perf_counter() - start


@dataclass
class BenchReport:
    """Per-stage wall-clock timings of one benchmark run."""

    label: str
    num_requests: int
    #: stage name -> seconds (flat, machine-readable)
    timings_s: dict[str, float] = field(default_factory=dict)
    #: contextual metadata (python version, platform, cpu count, settings)
    meta: dict[str, object] = field(default_factory=dict)
    #: headline figures of merit measured during the grid stage
    headline: dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.timings_s.values())

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time the ``with`` body as stage ``name``.

        The calibration kernel runs just before and just after the timed
        body, and ``meta["host_slowdown"][name]`` records the mean of the
        two samples over the nominal one (>1: a slower host), so two
        reports' stage times can also be compared host-normalised.
        """
        before = calibration_kernel()
        start = time.perf_counter()
        yield
        self.timings_s[name] = time.perf_counter() - start
        after = calibration_kernel()
        slowdowns = self.meta.setdefault("host_slowdown", {})
        slowdowns[name] = (before + after) / (2 * NOMINAL_CALIBRATION_S)

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["total_s"] = self.total_s
        return payload

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n")
        return path

    def format_table(self) -> str:
        lines = [f"benchmark '{self.label}' ({self.num_requests} requests/workload)"]
        width = max(len(name) for name in self.timings_s) if self.timings_s else 10
        for name, seconds in self.timings_s.items():
            lines.append(f"  {name:<{width}} {seconds:9.3f} s")
        lines.append(f"  {'TOTAL':<{width}} {self.total_s:9.3f} s")
        for name, value in self.headline.items():
            lines.append(f"  headline.{name}: {value:.3f}")
        return "\n".join(lines)


def run_bench(
    num_requests: int = 150,
    models: tuple[str, ...] | None = None,
    label: str = "headline",
    anneal_iterations: int = 500,
    stream_requests: int | None = None,
) -> BenchReport:
    """Time the headline experiment pipeline stage by stage.

    ``stream_requests`` sizes the streaming-scale stage (stage 5); ``None``
    falls back to ``$REPRO_BENCH_STREAM_REQUESTS``, then 20000.  The headline
    1M-request run sets it to 1000000.
    """
    import os

    from .. import api
    from ..experiments import headline
    from ..experiments.common import (
        DECODER_MODELS,
        PAPER_WORKLOAD_ORDER,
        ExperimentSettings,
    )
    from ..hardware.wafer import Wafer
    from ..mapping.intercore import map_model

    models = tuple(models) if models else DECODER_MODELS
    settings = ExperimentSettings(num_requests=num_requests)
    report = BenchReport(
        label=label,
        num_requests=num_requests,
        meta={
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "models": list(models),
            "anneal_iterations_sweep": settings.anneal_iterations,
            "anneal_iterations_micro": anneal_iterations,
        },
    )

    # Stage 1: system build (defect sampling + mapping + KV setup) per model.
    # `cache=False` keeps the numbers cold (no api build memoisation).
    for model in models:
        spec = settings.deployment(model, PAPER_WORKLOAD_ORDER[0])
        with report.stage(f"build.{model}"):
            system = api.build_deployment(spec, cache=False)
            system.built

    # Stage 2: serving each paper workload on the first model.
    system = api.build_deployment(
        settings.deployment(models[0], PAPER_WORKLOAD_ORDER[0]), cache=False
    )
    system.built
    first_batch_result = None
    for workload in PAPER_WORKLOAD_ORDER:
        trace = api.trace_for(settings.deployment(models[0], workload))
        with report.stage(f"serve.{models[0]}.{workload}"):
            result = system.serve(trace, workload_name=workload)
        if first_batch_result is None:
            first_batch_result = result

    # Stage 2b: open-loop (arrival-time-driven) serving of the first workload
    # at the saturation rate measured by the closed-batch run above.
    workload = PAPER_WORKLOAD_ORDER[0]
    rate = num_requests / first_batch_result.total_time_s
    open_loop_settings = replace(settings, arrival_rate_per_s=rate)
    trace = api.trace_for(open_loop_settings.deployment(models[0], workload))
    with report.stage(f"serve_open_loop.{models[0]}.{workload}"):
        open_result = system.serve(trace, workload_name=workload)
    report.meta["open_loop_arrival_rate_per_s"] = rate
    report.headline["open_loop_ttft_p95_s"] = open_result.ttft.p95_s
    report.headline["open_loop_latency_p99_s"] = open_result.latency.p99_s

    # Stage 2c: multi-tenant SLO serving (the fig23 shape) on the first
    # model -- two tenants with independent arrival processes at the measured
    # saturation rate, a TTFT/latency SLO, and sub-epoch admission splitting
    # epochs at arrival boundaries.
    from ..api import SLOTarget
    from ..experiments.fig23_slo_goodput import default_tenants

    tenants = default_tenants(num_requests)
    total = sum(tenant.num_requests for tenant in tenants)
    slo_settings = replace(
        settings,
        tenants=tuple(
            replace(
                tenant,
                arrival_rate_per_s=rate * (tenant.num_requests / total),
            )
            for tenant in tenants
        ),
        slo=SLOTarget(
            ttft_s=open_result.ttft.p95_s or 1.0,
            latency_s=open_result.latency.p99_s or 10.0,
            goodput_target=0.95,
        ),
    )
    trace = api.trace_for(slo_settings.deployment(models[0], workload))
    with report.stage(f"serve_slo_multi_tenant.{models[0]}"):
        slo_result = system.serve(trace, workload_name="multi-tenant-slo")
    report.headline["slo_goodput"] = float(slo_result.goodput or 0.0)
    for name, stats in slo_result.tenants.items():
        report.headline[f"slo_goodput_{name}"] = float(stats.goodput or 0.0)
    report.headline["slo_interactive_ttft_p95_s"] = (
        slo_result.tenants["interactive"].ttft.p95_s
    )
    report.meta["slo_split_epochs"] = slo_result.extra.get("split_epochs", 0)

    # Stage 2d: the same multi-tenant SLO trace under weighted fair queueing
    # (the wfq scheduling policy lives in the pipeline config, so this builds
    # its own system; the trace is identical to stage 2c's).
    wfq_settings = replace(slo_settings, scheduling_policy="wfq")
    wfq_system = api.build_deployment(
        wfq_settings.deployment(models[0], workload), cache=False
    )
    wfq_system.built
    trace = api.trace_for(wfq_settings.deployment(models[0], workload))
    with report.stage(f"serve_slo_wfq.{models[0]}"):
        wfq_result = wfq_system.serve(trace, workload_name="multi-tenant-slo-wfq")
    report.headline["slo_wfq_goodput"] = float(wfq_result.goodput or 0.0)
    report.headline["slo_wfq_interactive_ttft_p95_s"] = (
        wfq_result.tenants["interactive"].ttft.p95_s
    )

    # Stage 2e: fault-tolerant serving under overload -- the fig25 shape.  The
    # stage-2c tenant mix is offered at 4x the measured saturation rate while
    # a deterministic fault plan fails cores, destroys KV blocks and stalls
    # admission; the trace is served twice, without shedding and with
    # deadline-aware early rejection, so the report carries both sides of the
    # graceful-degradation comparison.
    from ..sim.faults import make_fault_plan

    fault_slo = slo_settings.slo
    overload = 4.0
    fault_settings = replace(
        slo_settings,
        tenants=tuple(
            replace(
                tenant,
                arrival_rate_per_s=overload * rate * (tenant.num_requests / total),
            )
            for tenant in tenants
        ),
    )
    horizon_s = total / (overload * rate)
    fault_plan = make_fault_plan(
        4.0 / horizon_s,
        horizon_s,
        kinds=("kv_block", "stall", "kv_core", "weight_core"),
        stall_duration_s=0.5 * fault_slo.ttft_s,
    )
    trace = api.trace_for(fault_settings.deployment(models[0], workload))
    with report.stage(f"serve_faults.{models[0]}"):
        no_shed_result = system.serve(
            trace, workload_name="fault-recovery", fault_plan=fault_plan
        )

    shed_settings = replace(
        fault_settings,
        shed_deadline=True,
        shed_headroom_s=0.4 * fault_slo.ttft_s,
    )
    shed_system = api.build_deployment(
        shed_settings.deployment(models[0], workload), cache=False
    )
    shed_system.built
    trace = api.trace_for(shed_settings.deployment(models[0], workload))
    with report.stage(f"serve_faults_shed.{models[0]}"):
        shed_result = shed_system.serve(
            trace, workload_name="fault-recovery-shed", fault_plan=fault_plan
        )
    fault_stats = shed_result.faults
    report.headline["fault_goodput_no_shed"] = float(no_shed_result.goodput or 0.0)
    report.headline["fault_goodput_shed"] = float(shed_result.goodput or 0.0)
    report.headline["fault_ttft_p95_no_shed_s"] = no_shed_result.ttft.p95_s
    report.headline["fault_ttft_p95_shed_s"] = shed_result.ttft.p95_s
    report.headline["fault_shed_requests"] = float(shed_result.shed_requests)
    report.headline["fault_injected"] = float(fault_stats.injected)
    report.headline["fault_recovered_sequences"] = float(
        fault_stats.recovered_sequences
    )
    report.headline["fault_recompute_tokens"] = float(fault_stats.recompute_tokens)

    # Stage 2f: live daemon replay of the stage-2b open-loop deployment.  A
    # real ServingDaemon is booted on a background thread, the spec's trace is
    # streamed in over the socket protocol and drained; the timing covers the
    # whole round trip (build + ingestion + serving + protocol).  The headline
    # records the replayed tail latencies plus a bitwise batch-parity
    # indicator -- the daemon must reproduce the stage-2b numbers exactly.
    from ..serving import serve_via_daemon

    daemon_spec = open_loop_settings.deployment(models[0], workload)
    with report.stage(f"serve_daemon_replay.{models[0]}.{workload}"):
        daemon_result = serve_via_daemon(daemon_spec)
    daemon_matches = (
        daemon_result["total_time_s"] == open_result.total_time_s
        and daemon_result["total_tokens"] == open_result.total_tokens
        and daemon_result["output_tokens"] == open_result.output_tokens
        and daemon_result["ttft"] == open_result.ttft.as_dict()
        and daemon_result["latency"] == open_result.latency.as_dict()
        and daemon_result["energy"] == open_result.energy.as_dict()
    )
    report.headline["daemon_replay_ttft_p95_s"] = daemon_result["ttft"]["p95_s"]
    report.headline["daemon_replay_latency_p99_s"] = (
        daemon_result["latency"]["p99_s"]
    )
    report.headline["daemon_replay_total_time_s"] = daemon_result["total_time_s"]
    report.headline["daemon_replay_matches_batch"] = 1.0 if daemon_matches else 0.0

    # Stage 2g: preemptive scheduling under overload -- the fig26 shape.  The
    # stage-2c tenant mix (interactive tenant carrying a wfq weight) is
    # offered at 4x the measured saturation rate under a continuous-batching
    # cap and served twice through the wfq scheduler, preemption off and on;
    # the headline carries the interactive TTFT-p95 cut preemption buys and
    # the recompute tax (preemptions, recomputed tokens) it pays for it.
    preempt_base = replace(
        slo_settings,
        tenants=tuple(
            replace(
                tenant,
                weight=8.0 if tenant.name == "interactive" else 1.0,
                arrival_rate_per_s=overload * rate * (tenant.num_requests / total),
            )
            for tenant in tenants
        ),
        scheduling_policy="wfq",
        max_active_sequences=8,
    )
    preempt_results = {}
    for preemptive in (False, True):
        preempt_settings = replace(preempt_base, preemptive=preemptive)
        preempt_system = api.build_deployment(
            preempt_settings.deployment(models[0], workload), cache=False
        )
        preempt_system.built
        trace = api.trace_for(preempt_settings.deployment(models[0], workload))
        suffix = "on" if preemptive else "off"
        with report.stage(f"serve_preempt_{suffix}.{models[0]}"):
            preempt_results[preemptive] = preempt_system.serve(
                trace, workload_name=f"preempt-{suffix}"
            )
    preempt_off, preempt_on = preempt_results[False], preempt_results[True]
    report.headline["preempt_off_interactive_ttft_p95_s"] = (
        preempt_off.tenants["interactive"].ttft.p95_s
    )
    report.headline["preempt_interactive_ttft_p95_s"] = (
        preempt_on.tenants["interactive"].ttft.p95_s
    )
    report.headline["preempt_off_goodput"] = float(preempt_off.goodput or 0.0)
    report.headline["preempt_goodput"] = float(preempt_on.goodput or 0.0)
    report.headline["preempt_preemptions"] = float(
        sum(stats.preemptions for stats in preempt_on.tenants.values())
    )
    report.headline["preempt_recomputed_tokens"] = float(
        sum(stats.recomputed_tokens for stats in preempt_on.tenants.values())
    )

    # Stage 3: the full headline grid (models x workloads x all systems).
    with report.stage("headline_grid"):
        result = headline.run(settings, models=models)
    report.headline.update({
        "average_speedup": result.average_speedup,
        "peak_speedup": result.peak_speedup,
        "average_efficiency_gain": result.average_efficiency_gain,
        "peak_efficiency_gain": result.peak_efficiency_gain,
    })

    # Stage 4: mapping-annealer microbenchmark (incremental delta evaluation).
    arch = api.resolve_model(models[0])
    wafer = Wafer(settings.system_config().wafer)
    with report.stage(f"mapping_anneal_{anneal_iterations}"):
        map_model(arch, wafer, anneal_iterations=anneal_iterations)

    # Stage 5: streaming-scale serving -- the requests-per-second headline.
    # An open-loop single-tenant run at the stage-2b saturation rate, but with
    # the trace pulled lazily from a request stream (O(active) memory), sized
    # by `stream_requests` (20k in CI, 1M for the headline run).  The figure
    # of merit is *simulated requests per wall-clock second*; peak RSS is the
    # process-wide `ru_maxrss` high-water mark -- a bound, not a per-stage
    # measurement, but one an O(trace) regression at 1M requests would blow
    # through immediately.
    import resource

    if stream_requests is None:
        stream_requests = int(os.environ.get("REPRO_BENCH_STREAM_REQUESTS", "20000"))
    stream_settings = replace(open_loop_settings, num_requests=stream_requests)
    stream_trace = api.stream_for(stream_settings.deployment(models[0], workload))
    stream_stage = f"serve_stream.{models[0]}.{workload}"
    with report.stage(stream_stage):
        stream_result = system.serve(stream_trace, workload_name="stream-scale")
    stream_elapsed = report.timings_s[stream_stage]
    report.meta["stream_requests"] = stream_requests
    report.meta["stream_arrival_rate_per_s"] = rate
    report.headline["stream_requests_per_s"] = stream_requests / stream_elapsed
    report.headline["stream_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    report.headline["stream_sim_total_time_s"] = stream_result.total_time_s
    report.headline["stream_sim_output_tokens"] = float(stream_result.output_tokens)
    report.headline["stream_sim_latency_p99_s"] = stream_result.latency.p99_s

    return report
