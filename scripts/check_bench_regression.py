#!/usr/bin/env python
"""Gate CI on the benchmark report staying on trajectory.

Compares a freshly generated bench report (``BENCH_LATEST.json``, written by
``scripts/bench.sh``) against the committed ``BENCH_PR<n>.json`` trajectory —
the highest-numbered report in the *git HEAD tree* (i.e. the report the
current PR itself committed; the working-tree copy is not trusted because a
bench run with ``REPRO_BENCH_OUTPUT=BENCH_PR<n>.json`` rewrites it) — and
fails when:

* any *deterministic* headline metric shared by both reports differs
  bitwise — the simulator is deterministic, so throughput / energy /
  goodput / latency figures of merit must reproduce exactly; a PR that
  intentionally changes serving results must commit a matching
  ``BENCH_PR<n>.json``, which then becomes the baseline this gate verifies;
* total wall-clock regresses by more than ``--wallclock-tolerance``
  (default 10%) against the committed report;
* the streaming-scale stage regresses directionally beyond the same
  tolerance: ``stream_requests_per_s`` below the committed floor, or
  ``stream_peak_rss_mb`` above the committed ceiling.

It also prints every ``timings_s`` stage's change against the committed
report, for information only: a stage's host wall-clock moves with the host's
load, so no stage is gated on it.  When both reports carry the stage's
``meta.host_slowdown`` (the calibration kernel sampled around the stage), the
host-normalised change -- each side's seconds divided by its slowdown -- is
printed beside the raw one.

The reports must have been generated with the same ``num_requests`` —
comparing a 50-request CI run against a committed 150-request report would
silently compare different simulations, so that is an error, not a skip.

Usage::

    scripts/bench.sh                      # writes BENCH_LATEST.json
    python scripts/check_bench_regression.py            # compare vs trajectory
    python scripts/check_bench_regression.py --fresh BENCH_LATEST.json \
        --baseline BENCH_PR4.json --wallclock-tolerance 0.25
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_NAME = re.compile(r"^BENCH_PR(\d+)\.json$")

#: headline keys whose values are wall-clock independent (pure simulation
#: outputs) and therefore must reproduce bit for bit.  Matched as prefixes so
#: per-tenant variants (slo_goodput_interactive, ...) are covered too.
DETERMINISTIC_PREFIXES = (
    "average_speedup",
    "peak_speedup",
    "average_efficiency_gain",
    "peak_efficiency_gain",
    "open_loop_",
    "slo_",
    "fault_",
    "daemon_",
    "preempt_",
    "stream_sim_",
)

#: wall-clock-dependent streaming headline keys gated *directionally* with
#: the wall-clock tolerance instead of bitwise: throughput may only drop so
#: far, peak RSS may only grow so far.  (key, direction) where direction
#: "min" = fresh must stay above baseline*(1-tol), "max" = below
#: baseline*(1+tol).
DIRECTIONAL_KEYS = (
    ("stream_requests_per_s", "min"),
    ("stream_peak_rss_mb", "max"),
)


def _pick_latest(names) -> str | None:
    best: tuple[int, str] | None = None
    for name in names:
        match = _BENCH_NAME.match(name)
        if match is None:
            continue
        number = int(match.group(1))
        if best is None or number > best[0]:
            best = (number, name)
    return best[1] if best else None


def latest_committed_report(root: Path) -> tuple[str, dict] | None:
    """The *committed* BENCH_PR<n>.json with the highest PR number.

    Read from the git HEAD tree, not the working tree: a bench run with
    ``REPRO_BENCH_OUTPUT=BENCH_PR<n>.json`` overwrites the checked-out
    baseline on disk — a working-tree glob would then compare the fresh
    report against itself and the gate could never fail.  Falls back to the
    filesystem (with a loud warning) only when git is unavailable.
    """
    try:
        names = subprocess.run(
            ["git", "-C", str(root), "ls-tree", "--name-only", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        name = _pick_latest(names)
        if name is None:
            return None
        content = subprocess.run(
            ["git", "-C", str(root), "show", f"HEAD:{name}"],
            capture_output=True, text=True, check=True,
        ).stdout
        return f"HEAD:{name}", json.loads(content)
    except (subprocess.CalledProcessError, FileNotFoundError, json.JSONDecodeError):
        print(
            "warning: could not read the committed baseline from git HEAD; "
            "falling back to the working tree, which the fresh bench run may "
            "have overwritten (a self-comparison cannot fail)"
        )
        name = _pick_latest(path.name for path in root.glob("BENCH_PR*.json"))
        if name is None:
            return None
        return name, json.loads((root / name).read_text())


def is_deterministic(key: str) -> bool:
    return any(key.startswith(prefix) for prefix in DETERMINISTIC_PREFIXES)


def compare(fresh: dict, baseline: dict, wallclock_tolerance: float) -> list[str]:
    """Return a list of human-readable failures (empty = gate passes)."""
    failures: list[str] = []
    if fresh.get("num_requests") != baseline.get("num_requests"):
        return [
            f"request-count mismatch: fresh ran {fresh.get('num_requests')} "
            f"requests, baseline {baseline.get('num_requests')} — the reports "
            "describe different simulations; rerun the bench with "
            f"REPRO_BENCH_REQUESTS={baseline.get('num_requests')}"
        ]

    fresh_stream = fresh.get("meta", {}).get("stream_requests")
    baseline_stream = baseline.get("meta", {}).get("stream_requests")
    if baseline_stream is not None and fresh_stream != baseline_stream:
        return [
            f"stream-request-count mismatch: fresh ran {fresh_stream} "
            f"streaming requests, baseline {baseline_stream} — rerun with "
            f"REPRO_BENCH_STREAM_REQUESTS={baseline_stream}"
        ]

    fresh_headline = fresh.get("headline", {})
    baseline_headline = baseline.get("headline", {})
    shared = sorted(set(fresh_headline) & set(baseline_headline))
    if not shared:
        failures.append("no shared headline metrics between the reports")
    # Metrics the fresh run emits that the committed trajectory has never
    # recorded cannot be gated bitwise — warn instead of silently ignoring
    # them, so a PR that adds a deterministic metric without committing a new
    # BENCH_PR<n>.json is visible in the CI log.
    for key in sorted(set(fresh_headline) - set(baseline_headline)):
        if is_deterministic(key):
            print(
                f"warning: headline.{key} = {fresh_headline[key]!r} is "
                "deterministic but absent from the committed baseline; "
                "skipping it (commit a new BENCH_PR<n>.json to start gating "
                "on it)"
            )
    for key in shared:
        if not is_deterministic(key):
            continue
        if fresh_headline[key] != baseline_headline[key]:
            failures.append(
                f"headline.{key}: {fresh_headline[key]!r} != committed "
                f"{baseline_headline[key]!r} (deterministic metric must "
                "reproduce bitwise; commit a new BENCH_PR<n>.json if the "
                "change is intentional)"
            )

    for key, direction in DIRECTIONAL_KEYS:
        if key not in fresh_headline or key not in baseline_headline:
            continue
        fresh_value = float(fresh_headline[key])
        baseline_value = float(baseline_headline[key])
        if direction == "min":
            floor = baseline_value * (1.0 - wallclock_tolerance)
            if fresh_value < floor:
                failures.append(
                    f"headline.{key}: {fresh_value:.3f} fell below "
                    f"{floor:.3f} (committed {baseline_value:.3f} - "
                    f"{wallclock_tolerance:.0%})"
                )
        else:
            ceiling = baseline_value * (1.0 + wallclock_tolerance)
            if fresh_value > ceiling:
                failures.append(
                    f"headline.{key}: {fresh_value:.3f} exceeded "
                    f"{ceiling:.3f} (committed {baseline_value:.3f} + "
                    f"{wallclock_tolerance:.0%})"
                )

    fresh_total = float(fresh.get("total_s", 0.0))
    baseline_total = float(baseline.get("total_s", 0.0))
    if baseline_total > 0 and fresh_total > baseline_total * (1.0 + wallclock_tolerance):
        failures.append(
            f"wall-clock regression: {fresh_total:.3f}s vs committed "
            f"{baseline_total:.3f}s (> {wallclock_tolerance:.0%} over)"
        )
    return failures


def stage_deltas(fresh: dict, baseline: dict) -> list[str]:
    """One line per ``timings_s`` stage: seconds in both reports and the
    change, also host-normalised where both reports measured the host."""
    fresh_stages = fresh.get("timings_s", {})
    baseline_stages = baseline.get("timings_s", {})
    fresh_slowdown = fresh.get("meta", {}).get("host_slowdown", {})
    baseline_slowdown = baseline.get("meta", {}).get("host_slowdown", {})
    lines: list[str] = []
    for stage in sorted(set(fresh_stages) | set(baseline_stages)):
        if stage not in baseline_stages:
            lines.append(f"{stage}: {float(fresh_stages[stage]):.4f} s (new stage)")
            continue
        before = float(baseline_stages[stage])
        if stage not in fresh_stages:
            lines.append(f"{stage}: not run (committed {before:.4f} s)")
            continue
        after = float(fresh_stages[stage])
        change = f"{(after - before) / before:+.1%}" if before > 0 else "n/a"
        slowdowns = (fresh_slowdown.get(stage), baseline_slowdown.get(stage))
        if before > 0 and all(slowdowns):
            normalised = (after / slowdowns[0]) / (before / slowdowns[1]) - 1
            change += f"; host-normalised {normalised:+.1%}"
        lines.append(f"{stage}: {before:.4f} s -> {after:.4f} s ({change})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh", default=str(REPO_ROOT / "BENCH_LATEST.json"),
        help="freshly generated report (default: BENCH_LATEST.json)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="committed report to compare against "
             "(default: highest-numbered BENCH_PR<n>.json)",
    )
    parser.add_argument(
        "--wallclock-tolerance", type=float, default=0.10,
        help="allowed relative wall-clock increase (default 0.10 = 10%%)",
    )
    args = parser.parse_args(argv)

    fresh_path = Path(args.fresh)
    if not fresh_path.exists():
        print(f"error: fresh report {fresh_path} not found (run scripts/bench.sh)")
        return 2
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"error: baseline report {baseline_path} not found")
            return 2
        baseline_name, baseline = baseline_path.name, json.loads(
            baseline_path.read_text()
        )
    else:
        committed = latest_committed_report(REPO_ROOT)
        if committed is None:
            print("no committed BENCH_PR*.json trajectory yet; nothing to gate on")
            return 0
        baseline_name, baseline = committed

    fresh = json.loads(fresh_path.read_text())
    deltas = stage_deltas(fresh, baseline)
    if deltas:
        print(f"stage timings vs {baseline_name} (information only, not gated):")
        for line in deltas:
            print(f"  {line}")
    failures = compare(fresh, baseline, args.wallclock_tolerance)
    if failures:
        print(f"bench regression gate FAILED ({fresh_path.name} vs {baseline_name}):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"bench regression gate passed: {fresh_path.name} matches "
        f"{baseline_name} (wall-clock {float(fresh.get('total_s', 0.0)):.3f}s "
        f"vs {float(baseline.get('total_s', 0.0)):.3f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
