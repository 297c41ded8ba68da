"""Per-layer span tracer, attached to the simulator from outside.

A traced repetition replaces selected layer entry points with timing
wrappers before any work runs.  Every call then records one span: its
calls, inclusive time, self time (the span minus the time its child spans
cover) and, for calls that can fail, how many failed.  Spans nest through a
stack, so the self times of all spans plus the time outside every span
(``unattributed``) add up exactly to the traced wall time.

Names are wrapped where the simulator looks them up: methods on their class,
so every instance sees the wrapper, and the module globals that
``repro.sim.engine`` calls while building a system.  The simulator's own
code is not touched; the wrappers stay installed for the life of the
process, which is one repetition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class SpanStats:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    failed: int = 0
    #: whether a call can fail (reports a ``fail_ratio``)
    can_fail: bool = False


def _returned_false(result: Any) -> bool:
    return result is False


def _returned_none(result: Any) -> bool:
    return result is None


def _nearest_rank(ordered: list[int], share: float) -> float:
    if not ordered:
        return 0.0
    return float(ordered[min(len(ordered) - 1, int(share * len(ordered)))])


class Tracer:
    """Span aggregates plus the per-epoch observations of the engine loop."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        #: time covered by top-level spans (the sum of every span's self time)
        self.covered_ns = 0
        #: child time accumulated by each open span, innermost last
        self._stack: list[int] = []
        #: active sequences handed to each epoch advance
        self.active_per_epoch: list[int] = []
        #: host time between successive epoch plans of one engine
        self.epoch_host_ns: list[int] = []
        self._last_plan: tuple[Any, int] | None = None
        #: KV managers of the engines that ran, for the peak-occupancy count
        self.kv_managers: dict[int, Any] = {}

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        failed: Callable[[Any], bool] | None = None,
        observe: Callable[[tuple], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``."""
        function = getattr(owner, attr)
        stats = self.spans.setdefault(name, SpanStats())
        stats.can_fail = failed is not None
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if observe is not None:
                observe(args)
            stack.append(0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_ns += elapsed
            if failed is not None and failed(result):
                stats.failed += 1
            return result

        setattr(owner, attr, traced)

    # ----------------------------------------------------------- observations

    def _observe_plan(self, args: tuple) -> None:
        """``_plan_epoch(engine, snapshot, time_s)``: one loop iteration began."""
        engine = args[0]
        now = time.perf_counter_ns()
        # Holding the engine (not its id) keeps a later engine from reusing
        # the id and turning the gap between two serves into an "epoch".
        if self._last_plan is not None and self._last_plan[0] is engine:
            self.epoch_host_ns.append(now - self._last_plan[1])
        else:
            self.kv_managers[id(engine.kv_manager)] = engine.kv_manager
        self._last_plan = (engine, now)

    def _observe_advance(self, args: tuple) -> None:
        """``_advance_epoch_fast(engine, snapshot, plan, time_s)``."""
        self.active_per_epoch.append(len(args[1]))

    # ---------------------------------------------------------------- results

    def attribution_error(self, wall_ns: int) -> str | None:
        """Why self times plus unattributed time miss the wall time, if they do."""
        if self._stack:
            return f"{len(self._stack)} spans still open"
        self_ns = sum(stats.self_ns for stats in self.spans.values())
        if self_ns != self.covered_ns:
            return f"span self times {self_ns} ns != covered {self.covered_ns} ns"
        if self.covered_ns > wall_ns:
            return f"spans cover {self.covered_ns} ns of a {wall_ns} ns wall"
        return None

    def layer_metrics(self, wall_ns: int) -> dict[str, float]:
        """Per-span metrics plus the epoch-loop observations of one rep."""
        metrics: dict[str, float] = {}
        for name, stats in self.spans.items():
            calls = stats.calls
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = stats.self_ns / 1e9
            metrics[f"{name}.ns_per_call"] = stats.total_ns / calls if calls else 0.0
            if stats.can_fail:
                metrics[f"{name}.fail_ratio"] = stats.failed / calls if calls else 0.0
        active = self.active_per_epoch
        metrics["pipeline.active_per_epoch_mean"] = (
            sum(active) / len(active) if active else 0.0
        )
        gaps = sorted(self.epoch_host_ns)
        metrics["pipeline.epoch_host_us_p50"] = _nearest_rank(gaps, 0.50) / 1e3
        metrics["pipeline.epoch_host_us_p99"] = _nearest_rank(gaps, 0.99) / 1e3
        metrics["kv.peak_utilization"] = max(
            (
                manager.stats.peak_used_blocks
                / (manager.num_kv_cores * manager.blocks_per_core)
                for manager in self.kv_managers.values()
            ),
            default=0.0,
        )
        metrics["unattributed_s"] = (wall_ns - self.covered_ns) / 1e9
        return metrics

    # ------------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap every layer entry point the benchmark reports on."""
        import repro.sim.engine as sim_engine
        from repro.baselines.common import BaselineSystem
        from repro.kvcache.manager import DistributedKVCacheManager
        from repro.kvcache.pagetable import PageTable
        from repro.pipeline.engine import PipelineEngine
        from repro.results import ServeAccumulator
        from repro.sim.faults import FaultInjector
        from repro.workload.policies import (
            FCFSPolicy,
            PriorityAgingPolicy,
            WFQPolicy,
        )
        from repro.workload.scheduler import InterSequenceScheduler
        from repro.workload.streams import RequestStream

        # pipeline: the engine's epoch loop pieces, looked up on the class
        self.wrap(PipelineEngine, "_plan_epoch", "pipeline.plan_epoch",
                  observe=self._observe_plan)
        self.wrap(PipelineEngine, "_advance_epoch_fast", "pipeline.advance_epoch",
                  observe=self._observe_advance)
        self.wrap(PipelineEngine, "_close_epoch", "pipeline.close_epoch")
        # workload: scheduler, policies and the arrival stream
        self.wrap(InterSequenceScheduler, "fill", "scheduler.fill")
        self.wrap(InterSequenceScheduler, "grow_sequence", "scheduler.grow_sequence",
                  failed=_returned_false)
        for policy in (FCFSPolicy, WFQPolicy, PriorityAgingPolicy):
            self.wrap(policy, "select", "policies.select")
            self.wrap(policy, "select_victim", "policies.select_victim",
                      failed=_returned_none)
        self.wrap(RequestStream, "pop", "streams.pop")
        # kvcache: manager and page table
        self.wrap(DistributedKVCacheManager, "try_admit", "kv.try_admit",
                  failed=_returned_false)
        self.wrap(DistributedKVCacheManager, "append_tokens", "kv.append_tokens",
                  failed=_returned_false)
        self.wrap(DistributedKVCacheManager, "release", "kv.release")
        self.wrap(PageTable, "register_heads", "kv.register_heads")
        # results: the streaming accumulator fold
        self.wrap(ServeAccumulator, "note_completed", "results.note_completed")
        # sim: faults, and the build steps as the builder looks them up
        self.wrap(FaultInjector, "poll", "faults.poll")
        self.wrap(sim_engine, "sample_defect_map", "build.defects")
        self.wrap(sim_engine, "map_model", "build.map_model")
        self.wrap(sim_engine, "_build_kv_manager", "build.kv_manager")
        # baselines: the analytical comparison systems
        self.wrap(BaselineSystem, "serve", "baselines.serve")
