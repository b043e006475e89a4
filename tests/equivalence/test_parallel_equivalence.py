"""Differential equivalence: inline (serial) vs persistent-pool execution.

``ParallelMap`` runs a map either inline in the calling process or on
the persistent worker pool.  Everything that decides *what* a chunk
computes -- chunking, per-chunk RNG spawning, cache keys, the telemetry
merge at join -- sits above that choice, so the two paths must be
bit-identical: results (exact equality, never ``allclose``),
spawned-RNG final states, merged telemetry snapshots, and cache entries,
including those of a killed run that the other path resumes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cache as cache_module
from repro.core import parallel as parallel_module
from repro.core import resilience, shm, telemetry
from repro.core.exceptions import ParallelError
from repro.core.parallel import ParallelMap
from repro.core.rngs import spawn_rngs
from repro.core.sat_instances import planted_ksat
from repro.memcomputing.ensemble import solve_ensemble

#: A budget no test chunk comes near; setting one routes even a
#: ``workers=1`` map through the pool (only a subprocess can be killed).
POOL_TIMEOUT_S = 60.0


# -- module-level task functions (worker entry points must pickle) ---------

def _square(x):
    return x * x


def _square_instrumented(x):
    telemetry.counter("test.equivalence.calls").inc()
    telemetry.histogram("test.equivalence.values").observe(float(x))
    return x * x


def _rng_draw(task):
    """Draws from a per-chunk spawned generator, plus its final state."""
    rng, count = task
    values = rng.integers(0, 1 << 30, size=count)
    return values, rng.bit_generator.state


def _checksum_array(task):
    """Bit-stable reduction over a float array (no reordering)."""
    return float(np.float64(0.0) + task.sum(dtype=np.float64))


def _inline(fn, tasks):
    return ParallelMap(workers=1).map(fn, tasks)


def _pooled(fn, tasks, workers=2):
    return ParallelMap(workers=workers, timeout=POOL_TIMEOUT_S).map(fn, tasks)


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    yield
    assert shm.active_segment_count() == 0, \
        "test leaked shared-memory segments"


@pytest.fixture
def inline_chunked(monkeypatch):
    """``workers="auto"`` on a one-core host: the chunked path, inline."""
    monkeypatch.setattr(parallel_module, "_cpu_count", lambda: 1)
    return parallel_module.AUTO


class TestResultEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(values=st.lists(st.integers(-10**6, 10**6), min_size=1,
                           max_size=40),
           workers=st.integers(1, 4))
    def test_property_serial_equals_pool(self, values, workers):
        assert _pooled(_square, values, workers) == _inline(_square, values)

    def test_array_tasks_bit_identical(self):
        rng = np.random.default_rng(7)
        tasks = [rng.normal(size=64) for _ in range(9)]
        # exact float equality, no approx
        assert _pooled(_checksum_array, tasks) \
            == _inline(_checksum_array, tasks)

    def test_spawned_rng_draws_and_final_state_identical(self):
        def tasks():
            return list(zip(spawn_rngs(1234, 8), [16] * 8))

        baseline = _inline(_rng_draw, tasks())
        for (values, state), (base_values, base_state) in zip(
                _pooled(_rng_draw, tasks()), baseline):
            assert np.array_equal(values, base_values)
            assert state == base_state


class TestTelemetryEquivalence:
    @staticmethod
    def _snapshot(run):
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            run(_square_instrumented, list(range(12)))
        return {name: entry for name, entry in registry.snapshot().items()
                if name.startswith("test.equivalence.")
                or name == "parallel.tasks"}

    def test_merged_snapshots_identical(self):
        baseline = self._snapshot(_inline)
        assert baseline  # the instrumented task actually recorded
        assert self._snapshot(_pooled) == baseline


RUN_ARGS = dict(batch=6, max_steps=12_000, chunk_size=2, rng=2)
FORMULA_ARGS = dict(num_variables=15, num_clauses=55, rng=1)


class TestCacheEquivalence:
    def test_inline_entries_serve_a_pool_run(self, tmp_path,
                                             inline_chunked):
        formula = planted_ksat(**FORMULA_ARGS)
        store = cache_module.ResultCache(cache_dir=str(tmp_path))
        cold = solve_ensemble(formula, workers=inline_chunked, cache=store,
                              **RUN_ARGS)
        stored = store.stores
        assert stored > 0
        entries_after_cold = sorted(path for path, _mtime, _size
                                    in store._disk_entries())
        warm = solve_ensemble(formula, workers=2, cache=store, **RUN_ARGS)
        assert np.array_equal(cold.solve_steps, warm.solve_steps)
        # Every chunk the pool run needed hit the inline run's entries:
        # same fingerprints, nothing new stored.
        assert store.hits >= stored
        assert store.stores == stored
        assert sorted(path for path, _mtime, _size
                      in store._disk_entries()) == entries_after_cold


class TestCheckpointEquivalence:
    def test_pool_checkpoint_resumes_inline(self, tmp_path,
                                            inline_chunked):
        formula = planted_ksat(**FORMULA_ARGS)
        uninterrupted = solve_ensemble(formula, workers=inline_chunked,
                                       **RUN_ARGS)
        # The pool run fails chunk 2 on every attempt and leaves the
        # other chunks in its cache directory; the plan is uninstalled
        # before the resume, which must run fault-free.
        plan = resilience.FaultPlan.from_spec(
            "2:1:raise,2:2:raise,2:3:raise")
        previous = resilience.set_fault_plan(plan)
        try:
            with pytest.raises(ParallelError):
                solve_ensemble(
                    formula, workers=2, retry=3,
                    cache=cache_module.ResultCache(str(tmp_path)),
                    **RUN_ARGS)
        finally:
            resilience.set_fault_plan(previous)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            resumed = solve_ensemble(
                formula, workers=inline_chunked,
                cache=cache_module.ResultCache(str(tmp_path)), **RUN_ARGS)
        assert np.array_equal(uninterrupted.solve_steps,
                              resumed.solve_steps)
        # the pool run's chunks fed the inline run: only chunk 2 ran
        assert registry.counter("cache.hits").value == 2
        assert registry.counter("cache.stores").value == 1
        assert registry.counter("parallel.tasks").value == 1
