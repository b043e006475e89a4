"""Tests for the batched DMM ensemble solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cnf import Clause, CnfFormula
from repro.core.exceptions import MemcomputingError
from repro.core.rngs import make_rng
from repro.core.sat_instances import planted_ksat
from repro.memcomputing.ensemble import (
    BatchedDmm,
    EnsembleResult,
    solve_ensemble,
)


class TestBatchedRhs:
    def test_matches_single_trajectory_rhs(self):
        formula = planted_ksat(15, 60, rng=0)
        batched = BatchedDmm(formula)
        rng = make_rng(1)
        states = batched.initial_states(8, rng)
        expected = np.stack([batched.system.rhs(0.0, state)
                             for state in states])
        actual = batched.rhs_batch(states)
        assert np.allclose(expected, actual)

    def test_weighted_formula_supported(self):
        formula = CnfFormula([Clause([1, 2], weight=3.0),
                              Clause([-1, 2])])
        batched = BatchedDmm(formula)
        states = batched.initial_states(4, make_rng(2))
        expected = np.stack([batched.system.rhs(0.0, state)
                             for state in states])
        assert np.allclose(expected, batched.rhs_batch(states))

    def test_unsat_counts_match_system(self):
        formula = planted_ksat(12, 48, rng=3)
        batched = BatchedDmm(formula)
        states = batched.initial_states(6, make_rng(4))
        expected = [batched.system.unsatisfied_count(state)
                    for state in states]
        assert batched.unsatisfied_counts(states).tolist() == expected

    def test_batch_validation(self):
        batched = BatchedDmm(planted_ksat(5, 15, rng=5))
        with pytest.raises(MemcomputingError):
            batched.initial_states(0, make_rng(0))


class TestSolveEnsemble:
    # workers=None runs inline on one stream; workers=2 runs chunked on
    # a two-worker pool, with other streams.
    def test_all_trajectories_solve_planted(self):
        formula = planted_ksat(30, 120, rng=6)
        for workers in (None, 2):
            result = solve_ensemble(formula, batch=16, max_steps=60_000,
                                    rng=7, workers=workers)
            assert result.solved_fraction == 1.0
            assert np.all(np.isfinite(result.solve_steps))

    def test_quantiles_ordered(self):
        formula = planted_ksat(40, 168, rng=8)
        result = solve_ensemble(formula, batch=24, max_steps=60_000,
                                rng=9)
        assert result.quantile(0.5) <= result.quantile(0.9)

    def test_unsatisfiable_never_solves(self):
        formula = CnfFormula([Clause([1]), Clause([-1])])
        for workers in (None, 2):
            result = solve_ensemble(formula, batch=8, max_steps=2_000,
                                    rng=0, workers=workers)
            assert result.solved_fraction == 0.0
            assert result.quantile(0.5) == float("inf")

    def test_deterministic_given_seed(self):
        formula = planted_ksat(20, 80, rng=10)
        for workers in (None, 2):
            a = solve_ensemble(formula, batch=8, max_steps=20_000, rng=11,
                               workers=workers)
            b = solve_ensemble(formula, batch=8, max_steps=20_000, rng=11,
                               workers=workers)
            assert np.array_equal(a.solve_steps, b.solve_steps)

    def test_quantile_inf_when_under_solved(self):
        result = EnsembleResult([100.0, np.inf, np.inf, np.inf], 1_000)
        assert result.quantile(0.5) == float("inf")
        assert result.quantile(0.25) == 100.0


class TestUnsolvedMask:
    def test_mask_flags_inf_sentinels(self):
        result = EnsembleResult([10.0, np.inf, 30.0, np.inf], 1_000)
        assert result.unsolved_mask.tolist() == [False, True, False, True]
        assert result.solved_steps.tolist() == [10.0, 30.0]
        assert result.solved_fraction == 0.5

    def test_all_solved_mask_empty(self):
        result = EnsembleResult([5.0, 6.0], 100)
        assert not result.unsolved_mask.any()
        assert result.solved_steps.tolist() == [5.0, 6.0]

    def test_quantile_reads_solved_subset_only(self):
        # Rank is over the whole ensemble, but the returned value must
        # come from the solved subset -- never the inf sentinel.
        result = EnsembleResult([10.0, 20.0, np.inf, np.inf], 1_000)
        assert result.quantile(0.5) == 20.0
        assert result.quantile(0.25) == 10.0
        assert result.quantile(0.75) == float("inf")

    def test_quantile_never_returns_sentinel_when_guard_passes(self):
        result = EnsembleResult([1.0, 2.0, 3.0, np.inf], 1_000)
        for q in (0.1, 0.25, 0.5, 0.75):
            assert np.isfinite(result.quantile(q))

    def test_summaries_ignore_unsolved_trajectories(self):
        solved = EnsembleResult([10.0, 20.0, 30.0, 40.0], 1_000)
        partial = EnsembleResult([10.0, 20.0, 30.0, 40.0,
                                  np.inf, np.inf, np.inf, np.inf], 1_000)
        # the same solved values rank differently (the unsolved half
        # occupies the slow tail) but the values read out stay finite
        # and come from the solved subset
        assert partial.quantile(0.5) == 40.0
        assert np.median(partial.solved_steps) == \
            np.median(solved.solved_steps)


class TestParallelEnsemble:
    def test_chunked_serial_matches_parallel(self):
        formula = planted_ksat(20, 80, rng=10)
        serial = solve_ensemble(formula, batch=8, max_steps=20_000,
                                rng=11, workers=1, chunk_size=4)
        parallel = solve_ensemble(formula, batch=8, max_steps=20_000,
                                  rng=11, workers=2, chunk_size=4)
        assert np.array_equal(serial.solve_steps, parallel.solve_steps)

    def test_chunked_batch_size_preserved(self):
        formula = planted_ksat(15, 55, rng=1)
        result = solve_ensemble(formula, batch=7, max_steps=10_000,
                                rng=2, workers=2, chunk_size=3)
        assert len(result.solve_steps) == 7

    def test_invalid_batch_rejected(self):
        formula = planted_ksat(10, 30, rng=1)
        with pytest.raises(MemcomputingError):
            solve_ensemble(formula, batch=0, workers=2)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1_000))
def test_property_ensemble_median_comparable_to_single_solver(seed):
    """The ensemble's fastest trajectories are no slower than generous
    single-run budgets (sanity link between the two code paths)."""
    from repro.memcomputing.solver import DmmSolver

    formula = planted_ksat(20, 80, rng=seed)
    single = DmmSolver(max_steps=60_000).solve(formula, rng=seed)
    ensemble = solve_ensemble(formula, batch=8, max_steps=60_000,
                              rng=seed)
    assert single.satisfied
    assert ensemble.solved_fraction == 1.0


class TestTrajectoryStepAccounting:
    def test_total_counts_solved_and_budgeted_steps(self):
        result = EnsembleResult(
            solve_steps=np.array([100.0, np.inf, 250.0]), max_steps=500)
        # the unsolved trajectory burned its whole max_steps budget
        assert result.total_trajectory_steps == 100.0 + 500.0 + 250.0

    def test_ensemble_records_throughput_instrument(self):
        from repro.core import telemetry

        formula = planted_ksat(12, 50, rng=0)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            result = solve_ensemble(formula, batch=4, max_steps=20_000,
                                    rng=1)
        histogram = registry.histogram("dmm.ensemble.traj_steps_per_s")
        assert histogram.count == 1
        units = registry.counter("dmm.ensemble.traj_steps_units").value
        assert units == pytest.approx(result.total_trajectory_steps)

    def test_chunked_path_units_exact_and_worker_invariant(self):
        # batched + chunked execution must not change the unit count:
        # the instrument sees exactly total_trajectory_steps, and that
        # total is itself identical for every worker count
        from repro.core import telemetry

        formula = planted_ksat(12, 50, rng=0)
        totals = []
        for workers in (1, 2):
            registry = telemetry.MetricsRegistry()
            with telemetry.use_registry(registry):
                result = solve_ensemble(formula, batch=6,
                                        max_steps=20_000, rng=1,
                                        workers=workers, chunk_size=2)
            units = registry.counter(
                "dmm.ensemble.traj_steps_units").value
            assert units == result.total_trajectory_steps
            totals.append(result.total_trajectory_steps)
        assert totals[0] == totals[1]
