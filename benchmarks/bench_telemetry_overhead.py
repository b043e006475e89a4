"""Telemetry disabled-path overhead on the DMM-SAT hot loop.

The instrumentation contract (docs/observability.md) is that telemetry
is free to leave compiled in: with the NULL registry active, an
instrumented call site costs two attribute lookups and a no-op method
call.  This benchmark holds the subsystem to that promise on the
hottest loop in the repository -- the forward-Euler integration inside
:meth:`repro.memcomputing.solver.DmmSolver.solve` (the loop behind the
DMM-SAT scaling study in ``bench_dmm_sat.py``).

Three timings over the *same instance and trajectory*:

* ``reference``  -- a hand-inlined copy of the pre-telemetry solver
  loop, calling the same ``DmmSystem.rhs``, with zero telemetry code;
* ``disabled``   -- the instrumented ``DmmSolver.solve`` with the NULL
  registry active (the library default);
* ``enabled``    -- the same call with a live :class:`MetricsRegistry`
  (no sinks), for scale.

Identical seeds force identical trajectories (asserted via the step
count), so any timing difference is instrumentation cost.  The
acceptance bar: disabled-path slowdown below 5%.
"""

import time

import numpy as np
from conftest import emit_table

from repro.core import telemetry
from repro.core.sat_instances import planted_ksat
from repro.memcomputing.dynamics import DmmSystem
from repro.memcomputing.solver import DmmSolver

NUM_VARIABLES = 60
NUM_CLAUSES = 252  # ratio 4.2
INSTANCE_SEED = 7
SOLVE_SEED = 3
MAX_STEPS = 120_000
CHECK_EVERY = 25
DT = 0.08
#: Interleaved repetitions per variant; min-of-N de-noises the ratio.
REPEATS = 5
OVERHEAD_BUDGET = 0.05
#: Enabled-path budget: a live registry (counters + histograms + spans
#: firing every ``CHECK_EVERY`` steps, no sinks) may cost real work, but
#: it must stay far from "don't run instrumented in production"
#: territory.  Generous on purpose -- this guards against an accidental
#: hot-loop allocation, not against timer jitter.
ENABLED_OVERHEAD_BUDGET = 0.25


def _reference_solve(formula, rng_seed):
    """The seed solver loop, hand-inlined with no telemetry code.

    Mirrors ``DmmSolver._integrate`` (dt/check_every/max_steps fixed to
    the module constants, no noise, no restarts) minus every
    instrumentation line; returns (steps, satisfied, wall_seconds).
    """
    system = DmmSystem(formula)
    lower = system.lower_bounds()
    upper = system.upper_bounds()
    rng = np.random.default_rng(rng_seed)

    start = time.perf_counter()
    state = system.initial_state(rng)
    steps = 0
    sim_time = 0.0
    satisfied = False
    unsat_trace = [(0.0, system.unsatisfied_count(state))]
    while steps < MAX_STEPS:
        derivative = system.rhs(sim_time, state)
        state = state + DT * derivative
        np.clip(state, lower, upper, out=state)
        steps += 1
        sim_time += DT
        if steps % CHECK_EVERY == 0:
            unsat = system.unsatisfied_count(state)
            unsat_trace.append((sim_time, unsat))
            if unsat == 0:
                satisfied = True
                break
    return steps, satisfied, time.perf_counter() - start


def _instrumented_solve(formula, rng_seed):
    """One ``DmmSolver.solve`` under the *currently active* registry."""
    solver = DmmSolver(dt=DT, max_steps=MAX_STEPS, check_every=CHECK_EVERY)
    start = time.perf_counter()
    result = solver.solve(formula, rng=np.random.default_rng(rng_seed))
    return result.steps, result.satisfied, time.perf_counter() - start


def run_overhead():
    """Interleaved min-of-N timings; returns the measurement dict."""
    formula = planted_ksat(NUM_VARIABLES, NUM_CLAUSES, rng=INSTANCE_SEED)
    times = {"reference": [], "disabled": [], "enabled": []}
    steps_seen = set()
    for _ in range(REPEATS):
        steps, satisfied, elapsed = _reference_solve(formula, SOLVE_SEED)
        assert satisfied
        steps_seen.add(("reference", steps))
        times["reference"].append(elapsed)

        with telemetry.use_registry(telemetry.NULL_REGISTRY):
            steps, satisfied, elapsed = _instrumented_solve(formula,
                                                            SOLVE_SEED)
        assert satisfied
        steps_seen.add(("instrumented", steps))
        times["disabled"].append(elapsed)

        with telemetry.use_registry(telemetry.MetricsRegistry()):
            steps, satisfied, elapsed = _instrumented_solve(formula,
                                                            SOLVE_SEED)
        assert satisfied
        steps_seen.add(("instrumented", steps))
        times["enabled"].append(elapsed)
    # identical trajectories: one step count per variant, and they match
    assert len({count for _variant, count in steps_seen}) == 1, steps_seen
    best = {variant: min(samples) for variant, samples in times.items()}
    return {
        "steps": next(iter(steps_seen))[1],
        "best": best,
        "disabled_overhead": best["disabled"] / best["reference"] - 1.0,
        "enabled_overhead": best["enabled"] / best["reference"] - 1.0,
    }


def test_telemetry_disabled_overhead(benchmark):
    measurement = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    best = measurement["best"]
    disabled_overhead = measurement["disabled_overhead"]
    enabled_overhead = measurement["enabled_overhead"]
    rows = [
        ("reference (no telemetry code)", best["reference"] * 1e3, "-"),
        ("instrumented, NULL registry", best["disabled"] * 1e3,
         "%+.2f%%" % (100.0 * disabled_overhead)),
        ("instrumented, live registry", best["enabled"] * 1e3,
         "%+.2f%%" % (100.0 * enabled_overhead)),
    ]
    emit_table(
        "telemetry_overhead",
        "Telemetry overhead on the DMM forward-Euler loop "
        "(N=%d, %d steps, min of %d)"
        % (NUM_VARIABLES, measurement["steps"], REPEATS),
        ["variant", "time [ms]", "vs reference"],
        rows,
        notes=["Same instance and seed in every variant, so the "
               "integration trajectories are identical (asserted on the "
               "step count); timing deltas are pure instrumentation "
               "cost.",
               "Contract (docs/observability.md): the disabled path "
               "stays below %.0f%% overhead; the enabled path (live "
               "registry, no sinks) below %.0f%%."
               % (100 * OVERHEAD_BUDGET, 100 * ENABLED_OVERHEAD_BUDGET)],
        metrics={
            "reference_s": best["reference"],
            "disabled_s": best["disabled"],
            "enabled_s": best["enabled"],
            "disabled_overhead": disabled_overhead,
            "enabled_overhead": enabled_overhead,
        },
    )
    assert disabled_overhead < OVERHEAD_BUDGET, (
        "disabled-path telemetry overhead %.2f%% exceeds %.0f%% budget"
        % (100 * disabled_overhead, 100 * OVERHEAD_BUDGET))
    assert enabled_overhead < ENABLED_OVERHEAD_BUDGET, (
        "enabled-path telemetry overhead %.2f%% exceeds %.0f%% budget"
        % (100 * enabled_overhead, 100 * ENABLED_OVERHEAD_BUDGET))
