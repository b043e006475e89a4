"""Parallel scaling of the DMM trajectory ensemble.

The parallel execution engine (``repro.core.parallel``, see
``docs/parallelism.md``) promises two things at once: results that are
**bit-identical across worker counts** (chunking and per-chunk RNG
spawning depend only on the workload) and wall-clock speedup on
multi-core hosts.  This benchmark holds it to both on the repository's
canonical fan-out workload -- a ``solve_ensemble`` batch of
``BATCH`` >= 64 independent DMM trajectories on one planted 3-SAT
instance.

For each worker count in the sweep (1, 2, 4 by default plus an
``"auto"`` row; see ``conftest.bench_workers``) the same ensemble is
solved with the same seed and a pinned ``chunk_size``, timed as
min-of-``REPEATS``.  The identity check is exact (``np.array_equal``
on the time-to-solution arrays), *including* the auto row -- auto mode
may pick any width but must never change results.  The speedup
assertion (>= ``SPEEDUP_FLOOR`` at 4 workers) is enforced only when
the host actually has >= 4 CPUs -- on smaller machines the measured
ratios are still reported, with the host core count in the table
notes, but cannot meaningfully pass a wall-clock bar.  The 2-worker
and auto ratios are emitted as ``speedup_at_2`` / ``speedup_at_auto``
metrics so ``tools/check_perf.py`` can pin "multi-worker dispatch is
never materially slower than serial" as a regression floor.
"""

import os
import time

import numpy as np
from conftest import bench_workers, emit_table

from repro.core.sat_instances import planted_ksat
from repro.memcomputing.ensemble import solve_ensemble

NUM_VARIABLES = 40
NUM_CLAUSES = 168  # ratio 4.2
INSTANCE_SEED = 7
ENSEMBLE_SEED = 11
BATCH = 64
CHUNK_SIZE = 8  # pinned: same chunks (hence same streams) at every width
MAX_STEPS = 60_000
REPEATS = 2
SPEEDUP_FLOOR = 2.0
ASSERT_MIN_CORES = 4


def run_scaling_study():
    formula = planted_ksat(NUM_VARIABLES, NUM_CLAUSES, rng=INSTANCE_SEED)
    sweep = bench_workers() + ["auto"]
    times = {}
    steps = {}
    for workers in sweep:
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = solve_ensemble(formula, batch=BATCH,
                                    max_steps=MAX_STEPS,
                                    rng=ENSEMBLE_SEED, workers=workers,
                                    chunk_size=CHUNK_SIZE)
            samples.append(time.perf_counter() - start)
        times[workers] = min(samples)
        steps[workers] = result.solve_steps
    baseline = steps[sweep[0]]
    for workers in sweep:
        assert np.array_equal(baseline, steps[workers]), (
            "worker count changed the ensemble results (workers=%r)"
            % (workers,))
    return {
        "sweep": sweep,
        "times": times,
        "speedups": {w: times[sweep[0]] / times[w] for w in sweep},
        "solved_fraction": float(np.mean(np.isfinite(baseline))),
    }


def test_parallel_scaling_dmm_ensemble(benchmark):
    measurement = benchmark.pedantic(run_scaling_study, rounds=1,
                                     iterations=1)
    sweep = measurement["sweep"]
    times = measurement["times"]
    speedups = measurement["speedups"]
    cores = os.cpu_count() or 1
    rows = [(workers, times[workers], "%.2fx" % speedups[workers])
            for workers in sweep]
    notes = [
        "identical solve_steps arrays at every worker count, "
        "including 'auto' (bit-exact determinism contract)",
        "'auto' lets the engine pick the width: serial when the "
        "workload or host is too small to win, else min(cores, chunks) "
        "from the persistent pool",
        "host: %d CPU core(s); the >= %.0fx @ 4 workers bar is "
        "asserted only with >= %d cores"
        % (cores, SPEEDUP_FLOOR, ASSERT_MIN_CORES),
    ]
    if cores < ASSERT_MIN_CORES:
        notes.append(
            "HOST TOO SMALL for the scaling claim: %d core(s) < %d -- "
            "multi-worker rows pay process spawn/IPC cost without real "
            "parallelism, so speedups at/below 1x are expected here and "
            "do not indicate a regression." % (cores, ASSERT_MIN_CORES))
    max_workers = max(w for w in sweep if isinstance(w, int))
    metrics = {
        "serial_s": times[sweep[0]],
        "max_workers": max_workers,
        "speedup_at_max_workers": speedups[max_workers],
        "speedup_at_auto": speedups["auto"],
    }
    if 2 in speedups:
        metrics["speedup_at_2"] = speedups[2]
    emit_table(
        "parallel_scaling",
        "DMM ensemble scaling (%d trajectories, N=%d, chunk_size=%d, "
        "min of %d)" % (BATCH, NUM_VARIABLES, CHUNK_SIZE, REPEATS),
        ["workers", "time [s]", "speedup"],
        rows,
        notes=notes,
        metrics=metrics)
    assert measurement["solved_fraction"] == 1.0
    assert speedups[sweep[0]] == 1.0
    if cores >= ASSERT_MIN_CORES and 4 in speedups:
        assert speedups[4] >= SPEEDUP_FLOOR, (
            "expected >= %.1fx speedup at 4 workers on a %d-core host, "
            "measured %.2fx" % (SPEEDUP_FLOOR, cores, speedups[4]))
