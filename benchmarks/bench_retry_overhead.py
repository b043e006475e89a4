"""Zero-fault overhead of the retry engine on the parallel map.

The resilience contract (docs/resilience.md) is that retry support is
free when nothing fails: passing a retry budget to
``ParallelMap.map`` adds per-round bookkeeping (a retry queue, failure
classification, per-attempt task copies on the serial path) but no
re-execution, so a fault-free run must cost essentially the same as a
plain map.  This benchmark holds the engine to that promise on a bag of
numerically real chunks.

Two timings over the *same task list*:

* ``plain``  -- ``ParallelMap(workers=1).map(fn, tasks)``;
* ``retry``  -- the same call with ``retry=3`` (nothing ever fails, so
  no chunk is re-dispatched).

Identical seeds force identical results (asserted bit-for-bit), so any
timing difference is retry-engine bookkeeping.  The acceptance bar:
zero-fault slowdown below 5%.
"""

import time

import numpy as np
from conftest import emit_table

from repro.core.parallel import ParallelMap

NUM_TASKS = 64
MATRIX_SIZE = 48
POWER_ITERATIONS = 30
#: Interleaved repetitions per variant; min-of-N de-noises the ratio.
REPEATS = 5
OVERHEAD_BUDGET = 0.05


def _power_iterate(seed):
    """One chunk of real numerical work: power iteration on a random
    matrix (enough flops that engine bookkeeping is the signal, not the
    payload)."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(MATRIX_SIZE, MATRIX_SIZE))
    vector = rng.normal(size=MATRIX_SIZE)
    for _ in range(POWER_ITERATIONS):
        vector = matrix @ vector
        vector /= np.linalg.norm(vector)
    return float(vector @ (matrix @ vector))


def _timed_map(retry):
    engine = ParallelMap(workers=1)
    tasks = list(range(NUM_TASKS))
    start = time.perf_counter()
    results = engine.map(_power_iterate, tasks, retry=retry)
    return results, time.perf_counter() - start


def run_overhead():
    """Interleaved min-of-N timings; returns the measurement dict."""
    times = {"plain": [], "retry": []}
    baseline = None
    for _ in range(REPEATS):
        results, elapsed = _timed_map(retry=None)
        times["plain"].append(elapsed)
        if baseline is None:
            baseline = results
        assert results == baseline

        results, elapsed = _timed_map(retry=3)
        times["retry"].append(elapsed)
        # retry support must not perturb a fault-free run's results
        assert results == baseline
    best = {variant: min(samples) for variant, samples in times.items()}
    return {
        "best": best,
        "retry_overhead": best["retry"] / best["plain"] - 1.0,
    }


def test_zero_fault_retry_overhead(benchmark):
    measurement = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    best = measurement["best"]
    retry_overhead = measurement["retry_overhead"]
    rows = [
        ("plain map (no retry)", best["plain"] * 1e3, "-"),
        ("retry=3", best["retry"] * 1e3,
         "%+.2f%%" % (100.0 * retry_overhead)),
    ]
    emit_table(
        "retry_overhead",
        "Zero-fault retry-engine overhead on ParallelMap "
        "(%d chunks, min of %d)" % (NUM_TASKS, REPEATS),
        ["variant", "time [ms]", "vs plain"],
        rows,
        notes=["Same tasks and seeds in both variants; results are "
               "asserted bit-identical, so timing deltas are pure "
               "retry-engine bookkeeping.",
               "Contract (docs/resilience.md): a fault-free run with a "
               "retry budget stays below %.0f%% overhead."
               % (100 * OVERHEAD_BUDGET)],
    )
    assert retry_overhead < OVERHEAD_BUDGET, (
        "zero-fault retry overhead %.2f%% exceeds %.0f%% budget"
        % (100 * retry_overhead, 100 * OVERHEAD_BUDGET))
