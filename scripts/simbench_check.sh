#!/usr/bin/env bash
# Run the repo benchmark's own correctness checks without caring about its
# timings: every workload once untraced, and stream_wikitext and
# tenant_overload (whose fault plan fails KV and weight cores) once traced.
# simbench/run.py ends each run with one JSON line; this script fails unless
# that line reports "correct": true and "failed": 0.  That catches a fast !=
# scalar engine divergence, a request-conservation break, or a traced run
# crashing because a method the tracer wraps was renamed -- before the
# benchmark itself trips over it.
#
# Usage: scripts/simbench_check.sh [seed]   (default seed 21)
set -euo pipefail

cd "$(dirname "$0")/.."
seed="${1:-21}"

check() {
    local workload="$1" trace="$2" last
    last="$(python3 simbench/run.py --workload "$workload" --seed "$seed" \
        --seconds 0 --trace "$trace" | tail -n 1)"
    python3 -c '
import json, sys
workload, trace, line = sys.argv[1:]
result = json.loads(line)
correct, failed, attempted = result["correct"], result["failed"], result["attempted"]
print(f"{workload} --trace {trace}: correct={correct} "
      f"failed={failed} of {attempted} requests")
sys.exit(0 if correct is True and failed == 0 else 1)
' "$workload" "$trace" "$last"
}

for workload in stream_wikitext tenant_overload closed_grid; do
    check "$workload" 0
done
check stream_wikitext 1
check tenant_overload 1
