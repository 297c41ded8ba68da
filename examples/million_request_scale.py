#!/usr/bin/env python3
"""Million-request scale: streaming serve in O(active) memory.

Serves a large open-loop trace through `serve()`, which pulls requests from
a lazy arrival stream, and shows that it is (a) bit-for-bit identical to
serving the same trace handed over as a list and (b) bounded in resident
memory, then prints the wall-clock serving rate — the
`stream_requests_per_s` headline the benchmark gates.

The stream holds one pending request per tenant (the heap-merged arrival
generators in `repro.workload.streams`); the engine folds completed
sequences into an O(1) accumulator at each epoch end and estimates
latency/TTFT percentiles with P^2 quantile estimators above 4096 samples.

Run:  python examples/million_request_scale.py [num_requests] [arrival_rate]

The default (2000 requests) finishes in seconds and demonstrates the
bitwise equivalence.  The headline run is::

    python examples/million_request_scale.py 1000000 90

which serves one million requests in a flat memory footprint (~20 min).
Keep the arrival rate at or below saturation (~93 req/s for wikitext2 on
llama-13b): above saturation the admission queue itself must grow with
the trace, which is a property of the workload, not the engine.
"""

from __future__ import annotations

import resource
import sys
import time

from repro import build_deployment, deployment, serve
from repro.api import trace_for


def main(num_requests: int = 2000, arrival_rate: float = 90.0) -> None:
    spec = (
        deployment("llama-13b")
        .system("ouroboros")
        .workload("wikitext2", num_requests=num_requests)
        .arrival_rate(arrival_rate)
        .build()
    )

    print(f"Serving {num_requests:,} requests at {arrival_rate:g} req/s "
          f"(streaming path)")
    start = time.perf_counter()
    streamed = serve(spec)
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"  wall clock:          {elapsed:8.2f} s "
          f"({num_requests / elapsed:,.0f} simulated req/s)")
    print(f"  peak RSS:            {peak_rss_mb:8.1f} MB (process-wide bound)")
    print(f"  simulated time:      {streamed.total_time_s:8.2f} s")
    print(f"  throughput:          {streamed.throughput_tokens_per_s:,.0f} tok/s")
    print(f"  TTFT p50/p95:        {streamed.ttft.p50_s * 1e3:7.1f} / "
          f"{streamed.ttft.p95_s * 1e3:7.1f} ms")
    print(f"  latency p50/p95/p99: {streamed.latency.p50_s * 1e3:7.1f} / "
          f"{streamed.latency.p95_s * 1e3:7.1f} / "
          f"{streamed.latency.p99_s * 1e3:7.1f} ms")

    # At demo sizes, re-serve the same trace handed over as a list and check
    # that how the engine takes in requests never changes a result.
    # (Skipped at headline sizes — materialising 1M requests is the very
    # thing the stream exists to avoid.)
    if num_requests <= 20_000:
        materialised = build_deployment(spec).serve(
            trace_for(spec), workload_name=spec.label()
        )
        materialised.system = streamed.system  # serve() relabels the system
        match = materialised.as_dict() == streamed.as_dict()
        print(f"\n  materialised trace == streaming path: {match}")
        if not match:
            raise SystemExit("streaming result diverged from materialised run")


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    rate = float(sys.argv[2]) if len(sys.argv) > 2 else 90.0
    main(count, rate)
