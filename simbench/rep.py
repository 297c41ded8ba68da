"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

    python3 simbench/rep.py --workload NAME --seed N --mode plain|traced|check

``plain`` builds and serves the workload once and prints what it measured;
``traced`` does the same with the per-layer tracer installed first; ``check``
runs the fast == scalar engine parity on bounded prefixes of the workload's
Ouroboros serves.  The last line of standard output is one JSON object.
Needs the simulator's ``src`` directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import time

import numpy as np
from repro import api
from tracer import Tracer
from workloads import (
    WORKLOADS,
    conservation_errors,
    digest,
    parity_holds,
    parity_specs,
    shape_errors,
    sim_counts,
    sim_metrics,
)


#: wall-clock period of the host-speed samples taken while a repetition runs
SAMPLE_PERIOD_S = 0.25
#: loop iterations of one host-speed sample
SAMPLE_ITERATIONS = 4_000
#: about the seconds one sample takes on an uncontended host (2-core
#: x86-64 VM, Python 3.11, NumPy 2.4); host times are scaled to this speed
NOMINAL_SAMPLE_S = 0.002


def calibration_kernel() -> float:
    """Seconds a fixed mix of dict, int and small-array work takes now.

    The mix resembles the simulator's own (Python bookkeeping around small
    NumPy calls), so a host that is slowed by its neighbours slows both by
    a similar factor.
    """
    counts: dict[int, int] = {}
    array = np.arange(64, dtype=np.int64)
    total = 0
    start = time.perf_counter()
    for i in range(SAMPLE_ITERATIONS):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
        if i % 8 == 0:
            total += int(np.minimum(array, i & 63).sum())
    return time.perf_counter() - start


class HostSpeed:
    """Samples the calibration kernel from a timer signal while work runs.

    The host's speed changes within a repetition, so one sample at each end
    misses what happened in between.  A sample every ``SAMPLE_PERIOD_S``
    follows those changes; it runs in the main thread between bytecodes,
    costs about 1% of the time and touches no simulator state.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        self.samples.append(calibration_kernel())

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def slowdown(self) -> float:
        """Mean sample time over the nominal one (>1 = a slower host)."""
        return statistics.fmean(self.samples) / NOMINAL_SAMPLE_S


def measure(workload: str, seed: int, tracer: Tracer | None) -> dict:
    with HostSpeed() as host:
        start = time.perf_counter_ns()
        rep = WORKLOADS[workload](seed)
        wall_ns = time.perf_counter_ns() - start
    counts = sim_counts(rep)
    errors = shape_errors(workload, counts)
    missing = conservation_errors(rep)
    if missing:
        errors.append(f"{missing} requests neither completed nor shed")
    out = {
        "setup_s": rep.setup_s,
        "serve_s": rep.serve_s,
        "wall_s": wall_ns / 1e9,
        "slowdown": host.slowdown,
        "requests": rep.requests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": sim_metrics(rep),
        "extra_sim": rep.extra_sim,
        "counts": counts,
        "digest": digest([served.result for served in rep.ours]),
    }
    if tracer is not None:
        error = tracer.attribution_error(wall_ns)
        if error:
            errors.append(error)
        out["layers"] = {**tracer.layer_metrics(wall_ns), **counts}
    out["errors"] = errors
    return out


def check(workload: str, seed: int) -> dict:
    specs = parity_specs(workload, seed)
    broken = [spec for spec in specs if not parity_holds(spec)]
    return {
        "requests": sum(api.total_spec_requests(spec) for spec in specs),
        "failed": sum(api.total_spec_requests(spec) for spec in broken),
        "broken": [f"{spec.model}/{spec.label()}" for spec in broken],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("plain", "traced", "check"))
    args = parser.parse_args()
    if args.mode == "check":
        out = check(args.workload, args.seed)
    else:
        tracer = None
        if args.mode == "traced":
            tracer = Tracer()
            tracer.install()
        out = measure(args.workload, args.seed, tracer)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
