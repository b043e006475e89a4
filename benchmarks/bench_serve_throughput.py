"""Throughput and coalescing efficiency of the ``repro serve`` service.

The serving layer's pitch (``docs/serving.md``) is that N callers cost
far fewer than N kernel executions: identical in-flight requests
coalesce onto one computation, and repeated requests replay from the
content-addressed result store.  This benchmark drives the
:class:`~repro.serve.service.JobService` directly (no sockets -- the
HTTP layer is a thin frame parser; what scales or regresses is the
submission machinery) with a deterministic duplicate-heavy workload:
``UNIQUE`` distinct distance requests, each submitted ``COPIES`` times
in one burst.  A behavioral distance job runs at submission, so the
first copy of each request executes and the later copies replay it
from the store: ``UNIQUE`` executions and ``UNIQUE * (COPIES - 1)``
store hits.

Emitted metrics:

* ``requests_per_s`` -- end-to-end service throughput over the whole
  burst (submission through last completion);
* ``coalesce_ratio`` -- fraction of requests that did *not* need their
  own kernel execution (coalesced followers + result-store hits over
  total requests).  The workload makes the
  floor exact: with every duplicate coalescing or replaying, at least
  ``(COPIES-1)/COPIES`` of all requests are saved, so the committed
  baseline pins ``{"min": 0.6}`` under ``COPIES = 3``;
* ``serve_p50_ms`` / ``serve_p95_ms`` / ``serve_p99_ms`` -- exact
  nearest-rank quantiles of the burst's per-job submit-to-settle
  latency (``finished_at - submitted_at``, the value the service
  observes into ``serve.latency_seconds``).  ``serve_p95_ms`` carries
  an absolute ``{"max"}`` pin in the committed baseline: tail latency
  of the serving stack is a budget, not a trend, so breaching it is a
  hard CI failure (see ``tools/check_perf.py``).
"""

import asyncio
import math
import time

from conftest import emit_table

from repro.serve import JobService, ServeConfig

UNIQUE = 40
COPIES = 3
PAIRS_PER_REQUEST = 4


def _request_params(index):
    base = float(index)
    return {"pairs": [[base + offset, base + offset + 1.0]
                      for offset in range(PAIRS_PER_REQUEST)]}


async def _drive_burst():
    service = JobService(ServeConfig(
        workers=1, queue_depth=UNIQUE * COPIES + 1, tenant_quota=None,
        job_concurrency=2))
    await service.start()
    try:
        start = time.perf_counter()
        jobs = [service.submit("distance", _request_params(index))
                for _ in range(COPIES) for index in range(UNIQUE)]
        await asyncio.gather(*(job.future for job in jobs))
        elapsed = time.perf_counter() - start
        assert all(job.state == "done" for job in jobs)
        # Every copy of a request must agree with the original.
        by_key = {}
        for job in jobs:
            expected = by_key.setdefault(job.key,
                                         job.result["measures"])
            assert job.result["measures"] == expected
        latencies = sorted(job.finished_at - job.submitted_at
                           for job in jobs)
        return {"elapsed": elapsed, "stats": service.stats(),
                "latencies": latencies}
    finally:
        await service.close()


def _nearest_rank(ascending, q):
    """The nearest-rank ``q`` quantile of an ascending list."""
    return ascending[max(1, math.ceil(q * len(ascending))) - 1]


def test_serve_throughput(benchmark):
    measurement = benchmark.pedantic(lambda: asyncio.run(_drive_burst()),
                                     rounds=1, iterations=1)
    stats = measurement["stats"]
    total = UNIQUE * COPIES
    saved = stats["coalesced"] + stats["cache_hits"]
    coalesce_ratio = saved / total
    requests_per_s = total / measurement["elapsed"]
    quantiles_ms = {
        name: _nearest_rank(measurement["latencies"], q) * 1000.0
        for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))
    }
    rows = [
        ("requests", total),
        ("unique workloads", UNIQUE),
        ("kernel executions", stats["executions"]),
        ("coalesced followers", stats["coalesced"]),
        ("result-store hits", stats["cache_hits"]),
        ("elapsed [s]", "%.3f" % measurement["elapsed"]),
        ("requests/s", "%.1f" % requests_per_s),
        ("coalesce ratio", "%.3f" % coalesce_ratio),
        ("latency p50 [ms]", "%.2f" % quantiles_ms["p50"]),
        ("latency p95 [ms]", "%.2f" % quantiles_ms["p95"]),
        ("latency p99 [ms]", "%.2f" % quantiles_ms["p99"]),
    ]
    notes = [
        "%d unique distance requests x %d copies each, submitted in "
        "one burst; each request's first copy runs at submission and "
        "the others replay it from the store" % (UNIQUE, COPIES),
        "coalesce ratio = (coalesced + store hits) / requests; the "
        "duplicate-heavy workload guarantees >= %.2f"
        % ((COPIES - 1) / COPIES),
        "service driven in-process (no sockets): the metric isolates "
        "submission/store machinery from TCP framing",
    ]
    emit_table(
        "serve_throughput",
        "repro serve burst throughput (%d requests, %d unique)"
        % (total, UNIQUE),
        ["quantity", "value"],
        rows,
        notes=notes,
        metrics={"requests_per_s": requests_per_s,
                 "coalesce_ratio": coalesce_ratio,
                 "executions": stats["executions"],
                 "serve_p50_ms": quantiles_ms["p50"],
                 "serve_p95_ms": quantiles_ms["p95"],
                 "serve_p99_ms": quantiles_ms["p99"]})
    # Duplicates never execute: every copy beyond the first coalesces
    # (in flight) or replays from the result store (finished).
    assert stats["executions"] <= UNIQUE
    assert coalesce_ratio >= (COPIES - 1) / COPIES
