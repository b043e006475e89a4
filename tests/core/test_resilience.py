"""Recovery suite for ``repro.core.resilience`` + the retry engine.

Three layers:

* budget/plan mechanics -- ``retry=`` validation, FaultPlan parsing
  (programmatic, env var, pytest fixture), NaN corruption;
* engine recovery -- injected raise/nan/kill/hang faults are retried to
  success (bit-identical with a fault-free run, without sleeping) or
  give up cleanly;
* acceptance -- ``solve_ensemble`` survives a kill+hang+nan fault plan
  bit-identically, a killed chunked run re-run against its cache
  directory executes only the missing chunk and equals the
  uninterrupted one, and a different workload of the same shape run
  against that directory gets its own answer.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parallel, telemetry
from repro.core.cache import ResultCache
from repro.core.exceptions import (
    InjectedFault,
    ParallelError,
    ResilienceError,
)
from repro.core.parallel import ParallelMap, TaskFailure
from repro.core.resilience import (
    FaultPlan,
    active_fault_plan,
    nan_corrupt,
    resolve_retry,
    rng_fingerprint,
    use_faults,
)
from repro.core.sat_instances import planted_ksat
from repro.memcomputing.ensemble import solve_ensemble
from repro.oscillators.distance import OscillatorDistanceUnit
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.runtime import QuantumRuntime


# -- module-level task functions (worker entry points must pickle) ---------

def _square(x):
    return x * x


def _draw_block(payload):
    """Chunk payload carrying its own RNG stream, like real call sites."""
    index, rng = payload
    return rng.normal(size=4) + index


def _all_finite(value):
    return bool(np.isfinite(np.asarray(value)).all())


def _rng_tasks(count=4, seed=1000):
    return [(index, np.random.default_rng(seed + index))
            for index in range(count)]


# -- retry budgets ---------------------------------------------------------

class TestResolveRetry:
    def test_none_and_one_mean_no_retries(self):
        assert resolve_retry(None) is None
        assert resolve_retry(1) is None

    def test_int_becomes_max_attempts(self):
        assert resolve_retry(4) == 4
        assert resolve_retry(np.int64(4)) == 4

    def test_bad_values_rejected(self):
        with pytest.raises(ResilienceError):
            resolve_retry(0)
        with pytest.raises(ResilienceError):
            resolve_retry(True)
        with pytest.raises(ResilienceError):
            resolve_retry("twice")

    @pytest.mark.parametrize("bad", [0, -1, True, 2.0, "2", [3]])
    def test_retry_argument_takes_only_an_int_budget(self, bad):
        with pytest.raises(ResilienceError):
            ParallelMap(workers=1).map(_square, [1, 2], retry=bad)


# -- FaultPlan -------------------------------------------------------------

class TestFaultPlan:
    def test_spec_round_trips(self):
        plan = FaultPlan.from_spec("0:1:raise, 2:1:kill ,1:2:nan")
        assert plan.spec() == "0:1:raise,1:2:nan,2:1:kill"
        assert len(plan) == 3
        assert plan.action_for(2, 1) == "kill"
        assert plan.action_for(2, 2) is None
        assert FaultPlan.from_spec(plan.spec()).faults() == plan.faults()

    def test_validation(self):
        with pytest.raises(ResilienceError, match="unknown fault action"):
            FaultPlan([(0, 1, "explode")])
        with pytest.raises(ResilienceError, match="coordinates"):
            FaultPlan([(-1, 1, "raise")])
        with pytest.raises(ResilienceError, match="coordinates"):
            FaultPlan([(0, 0, "raise")])
        with pytest.raises(ResilienceError, match="duplicate"):
            FaultPlan([(0, 1, "raise"), (0, 1, "nan")])
        with pytest.raises(ResilienceError, match="bad fault spec"):
            FaultPlan.from_spec("0:1")
        with pytest.raises(ResilienceError, match="integers"):
            FaultPlan.from_spec("a:b:raise")

    def test_programmatic_plan_wins_over_env(self, monkeypatch):
        # The environment never installs a plan: only use_faults does,
        # and leaving its scope restores no plan at all.
        monkeypatch.setenv("REPRO_FAULTS", "1:1:raise")
        assert active_fault_plan() is None
        with use_faults("0:2:nan") as plan:
            assert active_fault_plan() is plan
        assert active_fault_plan() is None

    def test_no_plan_by_default(self):
        assert active_fault_plan() is None

    def test_fixture_installs_and_clears(self, fault_plan):
        installed = fault_plan([(0, 1, "raise")])
        assert active_fault_plan() is installed
        # teardown restores the previous (empty) plan -- checked
        # implicitly by test_no_plan_by_default running independently


class TestNanCorrupt:
    def test_array_keeps_shape(self):
        poisoned = nan_corrupt(np.ones((2, 3)))
        assert poisoned.shape == (2, 3)
        assert np.isnan(poisoned).all()

    def test_containers_recurse(self):
        poisoned = nan_corrupt({"a": [1.0, 2.0], "b": (3.0,)})
        assert np.isnan(poisoned["a"]).all()
        assert np.isnan(poisoned["b"][0])

    def test_scalars_become_nan(self):
        assert np.isnan(nan_corrupt(5))


# -- engine recovery under injected faults ---------------------------------

class _SleepRecorder:
    """Stands in for the ``time`` module inside ``repro.core.parallel``,
    recording every ``sleep`` the engine asks for."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(time, name)

    def sleep(self, seconds):
        self.calls.append(seconds)
        time.sleep(seconds)


class TestEngineRecovery:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raise_fault_retried_bit_identically(self, workers,
                                                 monkeypatch):
        # A failed chunk is re-dispatched in the next round with no wait.
        baseline = ParallelMap(workers=workers).map(
            _draw_block, _rng_tasks())
        recorder = _SleepRecorder()
        monkeypatch.setattr(parallel, "time", recorder)
        with use_faults("0:1:raise,2:1:raise,2:2:raise"):
            registry = telemetry.MetricsRegistry()
            with telemetry.use_registry(registry):
                recovered = ParallelMap(workers=workers).map(
                    _draw_block, _rng_tasks(), retry=3)
        for expected, actual in zip(baseline, recovered):
            assert np.array_equal(expected, actual)
        assert recorder.calls == []
        assert registry.counter("parallel.retries").value == 3
        assert registry.counter("parallel.giveups").value == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exhausted_budget_gives_up(self, workers):
        with use_faults("1:1:raise,1:2:raise,1:3:raise"):
            registry = telemetry.MetricsRegistry()
            with telemetry.use_registry(registry):
                results = ParallelMap(workers=workers).map(
                    _square, [1, 2, 3], retry=3, on_error="return")
        assert results[0] == 1 and results[2] == 9
        assert isinstance(results[1], TaskFailure)
        assert results[1].reason == "error"
        assert registry.counter("parallel.retries").value == 2
        assert registry.counter("parallel.giveups").value == 1

    def test_exhausted_budget_raises_by_default(self):
        with use_faults("0:1:raise,0:2:raise,0:3:raise"):
            with pytest.raises(ParallelError, match="task 0 error"):
                ParallelMap(workers=1).map(_square, [1, 2], retry=3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_fault_caught_by_validate_and_retried(self, workers):
        baseline = ParallelMap(workers=workers).map(
            _draw_block, _rng_tasks())
        with use_faults("1:1:nan"):
            recovered = ParallelMap(workers=workers).map(
                _draw_block, _rng_tasks(), retry=3,
                validate=_all_finite)
        for expected, actual in zip(baseline, recovered):
            assert np.array_equal(expected, actual)

    def test_nan_fault_without_retry_is_invalid_failure(self):
        with use_faults("1:1:nan"):
            results = ParallelMap(workers=1).map(
                _draw_block, _rng_tasks(), validate=_all_finite,
                on_error="return")
        assert isinstance(results[1], TaskFailure)
        assert results[1].reason == "invalid"

    def test_serial_kill_degrades_to_raise_and_recovers(self):
        # no worker process to kill inline: the fault must surface as a
        # retryable failure, never os._exit the host
        with use_faults("0:1:kill,1:1:hang"):
            results = ParallelMap(workers=1).map(
                _square, [2, 3], retry=3)
        assert results == [4, 9]

    def test_serial_kill_without_retry_reports_injected_fault(self):
        with use_faults("0:1:kill"):
            results = ParallelMap(workers=1).map(
                _square, [2], on_error="return")
        assert isinstance(results[0], TaskFailure)
        assert InjectedFault.__name__ in results[0].message

    def test_process_kill_detected_as_crash_and_retried(self):
        with use_faults("1:1:kill"):
            registry = telemetry.MetricsRegistry()
            with telemetry.use_registry(registry):
                results = ParallelMap(workers=2).map(
                    _square, [1, 2, 3], retry=3)
        assert results == [1, 4, 9]
        assert registry.counter("parallel.retries").value == 1

    def test_process_hang_times_out_and_is_retried(self):
        with use_faults(FaultPlan([(0, 1, "hang")], hang_seconds=60.0)):
            results = ParallelMap(workers=2, timeout=1.5).map(
                _square, [1, 2], retry=3)
        assert results == [1, 4]


@settings(max_examples=15, deadline=None)
@given(faults=st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=1, max_value=2),
              st.sampled_from(["raise", "nan"])),
    unique_by=lambda fault: (fault[0], fault[1]), max_size=6))
def test_property_retryable_faults_within_budget_are_invisible(faults):
    """Any retryable fault plan within the retry budget leaves the map's
    results bit-identical to a fault-free serial run."""
    baseline = ParallelMap(workers=1).map(_draw_block, _rng_tasks())
    with use_faults(FaultPlan(faults)):
        recovered = ParallelMap(workers=1).map(
            _draw_block, _rng_tasks(), retry=3, validate=_all_finite)
    for expected, actual in zip(baseline, recovered):
        assert np.array_equal(expected, actual)


# -- fingerprints ----------------------------------------------------------

class TestRngFingerprint:
    def test_none_and_seed(self):
        assert rng_fingerprint(None) is None
        assert rng_fingerprint(7) == ["seed", 7]

    def test_generator_captures_spawn_state(self):
        fresh = rng_fingerprint(np.random.default_rng(5))
        assert fresh == rng_fingerprint(np.random.default_rng(5))
        spawned = np.random.default_rng(5)
        spawned.spawn(1)
        assert rng_fingerprint(spawned) != fresh

    def test_other_types_rejected(self):
        with pytest.raises(TypeError):
            rng_fingerprint("seed")


# -- acceptance: solve_ensemble under faults and across a kill --------------

class TestEnsembleResilience:
    FORMULA_ARGS = dict(num_variables=15, num_clauses=55, rng=1)
    RUN_ARGS = dict(batch=6, max_steps=15_000, chunk_size=2, rng=2)

    def test_kill_hang_nan_plan_is_bit_identical_to_fault_free(self):
        """The issue's acceptance scenario: one worker killed, one hung,
        one NaN-corrupted -- the ensemble still completes bit-identical
        to a fault-free serial run."""
        formula = planted_ksat(**self.FORMULA_ARGS)
        clean = solve_ensemble(formula, workers=1, **self.RUN_ARGS)
        plan = FaultPlan([(0, 1, "kill"), (1, 1, "hang"), (2, 1, "nan")],
                         hang_seconds=600.0)
        with use_faults(plan):
            recovered = solve_ensemble(formula, workers=2, timeout=10.0,
                                       retry=3, **self.RUN_ARGS)
        assert np.array_equal(clean.solve_steps, recovered.solve_steps)
        assert recovered.max_steps == clean.max_steps

    def test_killed_then_resumed_equals_uninterrupted(self, tmp_path):
        formula = planted_ksat(**self.FORMULA_ARGS)
        uninterrupted = solve_ensemble(formula, workers=1, **self.RUN_ARGS)
        cache_dir = str(tmp_path / "cache")
        # first run: chunk 2 fails on every attempt -> the run dies, but
        # chunks 0-1 were stored in the cache directory as they finished
        with use_faults("2:1:raise,2:2:raise,2:3:raise"):
            with pytest.raises(ParallelError):
                solve_ensemble(formula, workers=1, retry=3,
                               cache=ResultCache(cache_dir), **self.RUN_ARGS)
        # second run, reading the directory as a fresh process would:
        # chunks 0-1 are hits, only chunk 2 executes (and is stored)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            resumed = solve_ensemble(formula, workers=1, retry=3,
                                     cache=ResultCache(cache_dir),
                                     **self.RUN_ARGS)
        assert np.array_equal(uninterrupted.solve_steps,
                              resumed.solve_steps)
        assert registry.counter("cache.hits").value == 2
        assert registry.counter("cache.stores").value == 1
        assert registry.counter("parallel.tasks").value == 1


class TestResumeDirectoryIsContentAddressed:
    """A cache directory resumes only the workload that wrote it: a
    different workload of the same shape, chunked the same way and run
    against the same directory, computes its own answer."""

    def test_measure_pairs_other_pairs(self, tmp_path):
        unit = OscillatorDistanceUnit()
        first = np.array([[10.0, 200.0], [30.0, 35.0], [0.0, 255.0],
                          [90.0, 60.0]])
        second = first * 0.5
        expected = unit.measure_batch(second[:, 0], second[:, 1]).tolist()
        stale = unit.measure_pairs(first, chunk_size=2, cache=str(tmp_path))
        assert stale != expected
        assert unit.measure_pairs(second, chunk_size=2,
                                  cache=str(tmp_path)) == expected

    def test_solve_ensemble_other_formula(self, tmp_path):
        run_args = dict(batch=6, max_steps=15_000, chunk_size=2, rng=2)
        first = planted_ksat(15, 55, rng=1)
        second = planted_ksat(15, 55, rng=4)
        expected = solve_ensemble(second, cache=False, **run_args)
        stale = solve_ensemble(first, cache=str(tmp_path), **run_args)
        assert not np.array_equal(stale.solve_steps, expected.solve_steps)
        resumed = solve_ensemble(second, cache=str(tmp_path), **run_args)
        assert np.array_equal(resumed.solve_steps, expected.solve_steps)

    def test_runtime_other_angles(self, tmp_path):
        def circuit(angle):
            return QuantumCircuit(2).ry(0, angle).ry(1, 2 * angle) \
                .cnot(0, 1).measure_all()

        run_args = dict(shots=48, rng=4, chunk_size=12)
        expected = QuantumRuntime().run(circuit(1.3), cache=False,
                                        **run_args)
        stale = QuantumRuntime().run(circuit(0.4), cache=str(tmp_path),
                                     **run_args)
        assert stale.counts != expected.counts
        resumed = QuantumRuntime().run(circuit(1.3), cache=str(tmp_path),
                                       **run_args)
        assert resumed.counts == expected.counts
