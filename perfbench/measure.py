"""One benchmark run: set up, measure, check, and collect every metric.

An untraced run (``trace=0``) measures the end-to-end metrics over the
whole ``seconds``.  A traced run (``trace=1``) spends half of them
untraced and half with a span around every operation -- the ratio of
the two medians is the tracing overhead -- then replays a sample of the
operations layer by layer (:mod:`perfbench.replay`) and reads the
program's counters from outside.
"""

import gc
import os
import time

from repro.core.provenance import host_provenance

from . import catalog, hostspeed, ledger, replay, stats
from .workloads import (WORKLOADS, ServeWorkload, group_durations,
                        paradigm_seconds)


#: Idle time between set-up and the window.  Right after set-up (three
#: server starts, pre-warm writes) a 2-vCPU VM served the same requests
#: up to 1.8x slower for several seconds; an idle pause removes that.
SETTLE_S = 4.0

#: Reference-loop samples taken on each side of set-up.
SETUP_SAMPLES = 10


def latencies(records, speed=None):
    return list(group_durations(records, speed).values())


def end_to_end(workload, records, speed):
    """``(ops_per_s, latency_p50_ms)`` over the window, each operation
    at the reference host speed (see :mod:`perfbench.hostspeed`)."""
    return (workload.ops_per_s(records, speed),
            1e3 * stats.median(latencies(records, speed)))


def library_counts(run):
    """Counts for the in-process workloads: no service, no result store
    (library calls default to no cache), chunk counts from a registry
    snapshot of one default call per sampled op."""
    counts = {name: 0 for name in (
        "service.executions", "service.coalesced", "service.cache_hits",
        "service.batched", "service.reuse_ratio", "cache.hit_ratio",
        "cache.mem_hit_share", "cache.stores", "cache.evictions",
        "cache.disk_evictions", "serve.failures")}
    factorizations = run.counts["quantum.shor.factorizations"]
    counts.update({
        "parallel.chunks": run.counts["parallel.tasks"],
        "parallel.retries": run.counts["parallel.retries"],
        "parallel.failures": run.counts["parallel.failures"],
        "shor.order_attempts":
            run.counts["quantum.shor.order_finding_attempts"]
            / factorizations if factorizations else 0.0,
    })
    return counts


def run(ctx):
    """Returns a dict: attempted, failed, metrics, flags, provenance..."""
    workload = WORKLOADS[ctx.workload](ctx)
    serve = isinstance(workload, ServeWorkload)
    flags = []
    spans = None
    try:
        # Set-up is scaled by the host's speed just before and after it.
        # (Sampled from a thread during an in-process set-up, the loop
        # waited for the interpreter lock and read up to 6x slow.)
        around_setup = hostspeed.HostSpeed()
        around_setup.burst(SETUP_SAMPLES)
        raw_setup_s = workload.setup()
        around_setup.burst(SETUP_SAMPLES)
        setup_s = raw_setup_s * hostspeed.REFERENCE_S / around_setup.median()
        # Inputs held for the whole run must not make every garbage
        # collection in this process slower than in a user's.
        gc.collect()
        gc.freeze()
        # Set-up's file writes (server logs, pre-warmed entries) must
        # reach the disk before the window, not slow its stores: on a
        # virtio ext4 disk a small-file store took 3x longer while
        # earlier writes were still going out.
        os.sync()
        time.sleep(SETTLE_S)
        speed = hostspeed.HostSpeed(workload.speed_neighbourhood_s)
        before = workload.read_counters() if serve else None
        if ctx.trace:
            plain, short_a = workload.window(ctx.seconds / 2.0, speed)
            spans = ledger.SpanLog()
            traced, short_b = workload.window(ctx.seconds / 2.0, speed,
                                              spans)
            records = plain + traced
            exhausted = short_a or short_b
        else:
            plain, exhausted = workload.window(ctx.seconds, speed)
            records = plain
        after = workload.read_counters() if serve else None
        failed = workload.failures(records)
        counts = workload.count_metrics(before, after) if serve else {}
        if ctx.trace:
            miss_port, hit_port = workload.replay_servers()
            sample = workload.sample()
            gc.collect()
            gc.freeze()
            replayed = replay.Replay(sample, workload.reps, spans,
                                     ctx.workdir, miss_port, hit_port).run()
            if not serve:
                counts = library_counts(replayed)
    finally:
        workload.close()

    ops_per_s, p50_ms = end_to_end(workload, plain, speed)
    metrics = {"setup_s": setup_s, "ops_per_s": ops_per_s,
               "latency_p50_ms": p50_ms}
    scaled_latency = latencies(plain, speed)
    summary = stats.latency_summary(scaled_latency)
    diagnostics = {
        "window_setup_s": raw_setup_s,
        "window_ops_per_s": workload.ops_per_s(plain),
        "window_p50_ms": 1e3 * stats.median(latencies(plain)),
        "host.reference_ms": 1e3 * speed.median(),
        "latency_p90_ms": summary["p90_ms"],
        "latency_p99_ms": summary["p99_ms"],
        "latency_samples": summary["samples"],
        "error_rate": failed / len(records),
    }
    for paradigm, seconds in paradigm_seconds(workload, plain,
                                              speed).items():
        diagnostics["%s_s" % paradigm] = seconds
    for name in ("parallel.retries", "parallel.failures", "serve.failures"):
        if counts.get(name):
            flags.append("%s = %s (should stay 0)" % (name, counts[name]))
    if workload.hit_path and counts.get("cache.stores"):
        flags.append("cache.stores = %s in a hit-only window, so "
                     "cache.mem_hit_share is not exact"
                     % counts["cache.stores"])
    if exhausted:
        flags.append("input pool exhausted before the window ended")
    if ctx.trace:
        # Each half measured the way its end-to-end figures are.
        traced_p50 = end_to_end(workload, traced, speed)[1]
        overhead = traced_p50 / p50_ms
        layer = replayed.metrics(workload.hit_path)
        disagree = abs(traced_p50 - p50_ms) \
            > 1e3 * stats.iqr(scaled_latency)
        if disagree:
            flags.append("traced median disagrees with untraced median by "
                         "more than the untraced IQR")
        if layer["trace.sanity_violations"]:
            flags.append("%d ledger rows below zero by more than their "
                         "spread" % layer["trace.sanity_violations"])
        layer["trace.sanity_violations"] += int(disagree)
        layer["trace.overhead"] = overhead
        layer.update(counts)
        layer.update(diagnostics)
        reported = {name: layer[name] for name in catalog.PER_LAYER}
    else:
        reported = metrics
    return {
        "workload": ctx.workload, "seed": ctx.seed,
        "seconds": ctx.seconds, "trace": ctx.trace,
        "attempted": len(records), "failed": failed,
        "metrics": reported, "end_to_end": metrics,
        "diagnostics": diagnostics, "counts": counts, "flags": flags,
        "latency_tail_q": summary["tail_q"],
        "input_digest": workload.digest,
        "provenance": dict(host_provenance(cwd=ctx.root),
                           nproc=len(os.sched_getaffinity(0))),
        "spans": spans,
    }
