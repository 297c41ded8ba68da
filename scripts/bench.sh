#!/usr/bin/env bash
# Run the serving-simulator benchmark and write BENCH_PR<n>.json at the repo
# root, plus a stable BENCH_LATEST.json copy so CI artifacts and the
# regression gate never chase the per-PR file name.  The stages build every
# system through the unified DeploymentSpec API, so the report doubles as a
# smoke test that the serve path has not regressed.
#
# Usage: scripts/bench.sh [extra `repro bench` args...]
#   REPRO_BENCH_REQUESTS  requests per workload (default 150; the paper uses 1000)
#   REPRO_BENCH_STREAM_REQUESTS  requests for the streaming-scale stage
#                         (default 20000; the headline run uses 1000000)
#   REPRO_BENCH_OUTPUT    report path (default BENCH_PR22.json)
#   REPRO_SWEEP_PROCS     process-pool workers for the sweep stages (default: CPU count)
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
output="${REPRO_BENCH_OUTPUT:-BENCH_PR22.json}"
python -m repro bench \
    --requests "${REPRO_BENCH_REQUESTS:-150}" \
    --output "$output" \
    "$@"
cp -f "$output" BENCH_LATEST.json
echo "copied $output -> BENCH_LATEST.json"
