"""Differential equivalence: batched DMM ensembles vs the scalar system.

``BatchedDmm.rhs_batch`` must reproduce :meth:`DmmSystem.rhs` row for
row, ``euler_clip_advance`` must match a hand-rolled Euler-plus-clip
loop, and ``solve_ensemble`` must return the same solve-step array for
every worker count -- all under ``np.array_equal``, never ``allclose``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import integrators, resilience, telemetry
from repro.core.cache import ResultCache
from repro.core.cnf import CnfFormula
from repro.core.exceptions import ParallelError
from repro.core.rngs import make_rng
from repro.core.sat_instances import planted_ksat, random_ksat
from repro.memcomputing.ensemble import BatchedDmm, solve_ensemble

BATCH_SIZES = [1, 2, 5, 33]
TIED_BATCH_SIZES = [1, 8, 33]


def random_states(batched, batch, seed):
    rng = np.random.default_rng(seed)
    return batched.initial_states(batch, rng)


def mixed_width_formula(num_variables, num_clauses, seed):
    """Random clauses of widths 1-5 in turn: every clause shorter than
    5 literals is padded by repeating its last one."""
    rng = np.random.default_rng(seed)
    clauses = []
    for index in range(num_clauses):
        width = 1 + index % 5
        variables = rng.choice(num_variables, size=width, replace=False) + 1
        signs = rng.choice([-1, 1], size=width)
        clauses.append([int(var * sign) for var, sign in zip(variables, signs)])
    return CnfFormula(clauses, num_variables=num_variables)


def tied_states(batched, batch, seed):
    """Voltages on the half-step grid {-1, -0.5, 0, 0.5, 1}, so literal
    values tie exactly, across real slots and with padded ones; random
    memories so every gain differs."""
    rng = np.random.default_rng(seed)
    n, m = batched.system.num_variables, batched.system.num_clauses
    states = batched.initial_states(batch, rng)
    states[:, :n] = 0.5 * rng.integers(-2, 3, size=(batch, n))
    states[:, n:n + m] = rng.uniform(0.0, 1.0, size=(batch, m))
    states[:, n + m:] = rng.uniform(1.0, 10.0, size=(batch, m))
    return states


class TestBatchedRhsBitIdentity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), batch=st.sampled_from(BATCH_SIZES))
    def test_rhs_batch_matches_scalar_rows(self, seed, batch):
        formula = random_ksat(8, 30, rng=seed)
        batched = BatchedDmm(formula)
        states = random_states(batched, batch, seed + 1)
        scalar = np.stack([batched.system.rhs(0.0, row) for row in states])
        assert np.array_equal(batched.rhs_batch(states), scalar)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), batch=st.sampled_from(BATCH_SIZES))
    def test_unsatisfied_counts_match_scalar(self, seed, batch):
        formula = random_ksat(8, 30, rng=seed)
        batched = BatchedDmm(formula)
        states = random_states(batched, batch, seed + 1)
        scalar = [batched.system.unsatisfied_count(row) for row in states]
        assert list(batched.unsatisfied_counts(states)) == scalar

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           batch=st.sampled_from(TIED_BATCH_SIZES))
    def test_mixed_widths_and_exact_ties_match_scalar_rows(self, seed,
                                                           batch):
        batched = BatchedDmm(mixed_width_formula(8, 30, seed))
        states = tied_states(batched, batch, seed + 1)
        system = batched.system
        scalar = np.stack([system.rhs(0.0, row) for row in states])
        assert np.array_equal(batched.rhs_batch(states), scalar)
        assert list(batched.unsatisfied_counts(states)) == [
            system.unsatisfied_count(row) for row in states]

    def test_sub_stack_advancement_is_bit_identical(self):
        # the freeze-solved loop advances a compacted sub-stack; rows must
        # evolve identically whether or not other rows share the stack
        formula = planted_ksat(8, 30, rng=3)
        batched = BatchedDmm(formula)
        states = random_states(batched, 6, 4)
        lower = batched.system.lower_bounds()[None, :]
        upper = batched.system.upper_bounds()[None, :]
        full = integrators.euler_clip_advance(
            batched.rhs_batch, states, 0.08, 40, lower, upper)
        sub = integrators.euler_clip_advance(
            batched.rhs_batch, states[[1, 3, 4]], 0.08, 40, lower, upper)
        assert np.array_equal(full[[1, 3, 4]], sub)


class TestEulerClipAdvance:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), steps=st.integers(0, 50))
    def test_matches_manual_euler_clip_loop(self, seed, steps):
        formula = random_ksat(6, 20, rng=seed)
        batched = BatchedDmm(formula)
        states = random_states(batched, 4, seed + 1)
        lower = batched.system.lower_bounds()[None, :]
        upper = batched.system.upper_bounds()[None, :]
        advanced = integrators.euler_clip_advance(
            batched.rhs_batch, states, 0.05, steps, lower, upper)
        manual = np.array(states, dtype=float)
        for _ in range(steps):
            manual = manual + 0.05 * np.asarray(
                batched.rhs_batch(manual), dtype=float)
            np.clip(manual, lower, upper, out=manual)
        assert np.array_equal(advanced, manual)

    def test_input_stack_is_not_mutated(self):
        formula = planted_ksat(6, 20, rng=0)
        batched = BatchedDmm(formula)
        states = random_states(batched, 3, 1)
        before = states.copy()
        integrators.euler_clip_advance(batched.rhs_batch, states, 0.05, 5,
                                       batched.system.lower_bounds(),
                                       batched.system.upper_bounds())
        assert np.array_equal(states, before)


class TestEnsembleWorkerStability:
    def test_solve_steps_identical_across_workers_1_2_auto(self):
        formula = planted_ksat(10, 40, rng=7)
        results = {}
        for workers in (1, 2, "auto"):
            results[workers] = solve_ensemble(
                formula, batch=12, max_steps=2_000, rng=5,
                workers=workers, chunk_size=4)
        assert np.array_equal(results[1].solve_steps,
                              results[2].solve_steps)
        assert np.array_equal(results[1].solve_steps,
                              results["auto"].solve_steps)

    def test_chunked_rerun_is_deterministic(self):
        formula = planted_ksat(10, 40, rng=7)
        first = solve_ensemble(formula, batch=12, max_steps=2_000, rng=5,
                               workers=1, chunk_size=4)
        second = solve_ensemble(formula, batch=12, max_steps=2_000, rng=5,
                                workers=1, chunk_size=4)
        assert np.array_equal(first.solve_steps, second.solve_steps)

    def test_checkpoint_resumes_across_worker_counts(self, tmp_path):
        """A serial run killed at chunk 1 leaves chunks 0 and 2 in its
        cache directory; a 2-worker re-run executes only chunk 1."""
        run_args = dict(batch=12, max_steps=2_000, rng=5, chunk_size=4)
        formula = planted_ksat(10, 40, rng=7)
        full = solve_ensemble(formula, workers=1, **run_args)
        with resilience.use_faults("1:1:raise"):
            with pytest.raises(ParallelError):
                solve_ensemble(formula, workers=1,
                               cache=ResultCache(str(tmp_path)), **run_args)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            resumed = solve_ensemble(formula, workers=2,
                                     cache=ResultCache(str(tmp_path)),
                                     **run_args)
        assert np.array_equal(full.solve_steps, resumed.solve_steps)
        assert registry.counter("cache.hits").value == 2
        assert registry.counter("cache.stores").value == 1
        assert registry.counter("parallel.tasks").value == 1
