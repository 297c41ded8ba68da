"""Benchmark of the Ouroboros serving simulator, run from the repository root.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
workloads themselves live in ``simbench/workloads.py``.  For ``S`` seconds
the benchmark runs repetitions of the workload, each in a fresh interpreter
(``simbench/rep.py``) so that every build is cold and the peak RSS belongs
to one repetition, one at a time, with no threads or pools.  With
``--trace 0`` it reports the end-to-end metrics: medians over repetitions
for host time and memory, and the modelled ``sim_*`` results of the seed,
which every repetition must reproduce bit for bit.  With ``--trace 1`` it
alternates traced and untraced repetitions and reports the per-layer
metrics of the traced ones plus their overhead over the untraced ones.

The benchmark host is shared, and neighbours slow its CPU by up to 2x for
minutes at a time.  Each repetition therefore times a small fixed
calibration kernel every quarter second while it works, and the reported
host times (serve, setup and the traced/untraced walls) are divided by the
kernel's mean slowdown against its nominal time, which turns them into
times at one reference host speed.  Per-layer span times are reported as
measured.

After measuring, and outside the timed region, it checks correctness:
per tenant, completed + shed == sent; the vectorised engine equals the
scalar oracle on a bounded prefix of each Ouroboros serve; repetitions of a
seed (traced or not) produce identical modelled results; and
``tenant_overload`` exercises preemption, eviction, shedding and faults.  A
repetition failing a check counts all its requests as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero, with no result printed, when the simulator sources are missing
or a repetition crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: repetitions a run makes at least, whatever ``--seconds`` says
MIN_PLAIN_REPS = 3
MIN_TRACED_REPS = 2
#: no repetition starts this long after the run began (bounds the run time)
LAST_START_S = 100.0
#: longest a single repetition may take
REP_TIMEOUT_S = 120.0
#: the paper's claims for Ouroboros against the best baseline of each grid
#: cell (abstract): average and peak throughput and energy-efficiency gains
PAPER_CLAIMS = {
    "sim_speedup_geomean": 4.1,
    "sim_speedup_peak": 9.1,
    "sim_efficiency_geomean": 4.2,
    "sim_efficiency_peak": 17.0,
}


def child_env(root: Path) -> dict[str, str]:
    """Environment of a repetition: the checkout's sources, one thread, no caches."""
    env = dict(os.environ)
    # A sweep result cache would turn a grid repetition into a cache hit.
    env.pop("REPRO_RESULT_CACHE_DIR", None)
    env["PYTHONPATH"] = str(root / "src")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_rep(root: Path, env: dict, workload: str, seed: int, mode: str) -> dict:
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    done = subprocess.run(command, cwd=root, env=env, capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{mode} repetition of {workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def nominal(rep: dict, key: str) -> float:
    """A repetition's host time scaled to the calibration kernel's nominal speed."""
    return rep[key] / rep["slowdown"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"simulator sources not found under {root / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    env = child_env(root)

    # ------------------------------------------------------------- measure
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if args.trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACED_REPS
        else:
            enough = len(plain) >= MIN_PLAIN_REPS
        if elapsed >= LAST_START_S or (elapsed >= args.seconds and enough):
            break
        if args.trace and len(traced) <= len(plain):
            traced.append(run_rep(root, env, args.workload, args.seed, "traced"))
        else:
            plain.append(run_rep(root, env, args.workload, args.seed, "plain"))

    # ------------------------------------------------------- check (untimed)
    check = run_rep(root, env, args.workload, args.seed, "check")
    attempted = check["requests"]
    failed = check["failed"]
    problems = [f"fast != scalar on {label}" for label in check["broken"]]
    reference = plain[0]["digest"]
    for index, rep in enumerate(plain + traced):
        errors = list(rep["errors"])
        if rep["digest"] != reference:
            errors.append("modelled results differ from the first repetition")
        attempted += rep["requests"]
        if errors:
            failed += rep["requests"]
            problems += [f"repetition {index}: {error}" for error in errors]

    # -------------------------------------------------------------- report
    if args.trace:
        values = {
            name: median([rep["layers"][name] for rep in traced])
            for name in traced[0]["layers"]
        }
        values["trace_overhead_ratio"] = (
            median([nominal(rep, "wall_s") for rep in traced])
            / median([nominal(rep, "wall_s") for rep in plain])
        )
    else:
        values = {
            "requests_per_s": median(
                [rep["requests"] / nominal(rep, "serve_s") for rep in plain]
            ),
            "setup_s": median([nominal(rep, "setup_s") for rep in plain]),
            "peak_rss_mb": median([rep["peak_rss_mb"] for rep in plain]),
            **plain[0]["sim"],
        }
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }

    slowdowns = ", ".join(f"{rep['slowdown']:.2f}" for rep in plain + traced)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, {check['requests']} requests "
          "checked against the scalar engine")
    print(f"  host slowdown against the calibration kernel, per repetition: "
          f"{slowdowns} (host times are divided by it)")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in plain[0]["extra_sim"].items():
        claim = PAPER_CLAIMS.get(name)
        note = f"paper {claim:g}x; " if claim is not None else ""
        print(f"  {name:<40} {value:>16.6g}  ({note}modelled, for information)")
    if plain[0]["extra_sim"]:
        print("  the model is not validated against hardware; no error is claimed")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
