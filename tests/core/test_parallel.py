"""Tests for the parallel execution engine (``repro.core.parallel``).

Three layers:

* engine mechanics -- chunking, ordered collection, failure/timeout/
  crash handling, serial fallback, telemetry merge at join;
* property-based guarantees -- arbitrary chunk sizes and worker counts
  preserve result order and length, and a raising task never hangs the
  pool;
* the cross-paradigm determinism suite -- serial vs. 2 vs. 4 workers
  produce bit-identical DMM ensemble TTS arrays, quantum shot counts,
  and oscillator distances given the same seed.
"""

import os
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parallel as parallel_module
from repro.core import shm, telemetry
from repro.core.exceptions import ParallelError
from repro.core.parallel import (
    AUTO,
    DEFAULT_CHUNKS,
    ParallelMap,
    TaskFailure,
    chunk_list,
    chunk_sizes,
    default_chunk_size,
    is_chunked,
    parallel_map,
    resolve_workers,
    shutdown_pools,
    wants_fanout,
)


# -- module-level task functions (worker entry points must pickle) ---------

def _square(x):
    return x * x


def _square_instrumented(x):
    telemetry.counter("test.parallel.calls").inc()
    with telemetry.span("test.parallel.work", x=x):
        return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _exit_on_one(x):
    if x == 1:
        os._exit(9)
    return x


def _sleep_on_zero(x):
    if x == 0:
        time.sleep(30.0)
    return x


def _return_zero(_x):
    return 0


def _sum_array(task):
    return float(task.sum())


def _return_falsy(x):
    # legitimate falsy results of several shapes
    return [0, 0.0, [], "", {}][x % 5]


# -- chunking --------------------------------------------------------------

class TestChunking:
    def test_chunk_sizes_cover_total(self):
        assert chunk_sizes(10, 3) == [3, 3, 3, 1]
        assert chunk_sizes(9, 3) == [3, 3, 3]
        assert chunk_sizes(1, 5) == [1]
        assert chunk_sizes(0, 5) == []

    def test_default_chunk_size_targets_default_chunks(self):
        assert chunk_sizes(64) == [8] * DEFAULT_CHUNKS
        assert default_chunk_size(1) == 1
        assert default_chunk_size(0) == 1

    def test_default_chunk_size_respects_a_floor(self):
        assert default_chunk_size(64, minimum=16) == 16
        assert default_chunk_size(10, minimum=16) == 16
        assert default_chunk_size(1000, minimum=16) == 125
        assert chunk_sizes(100, default_chunk_size(100, 64)) == [64, 36]

    def test_chunk_list_preserves_order(self):
        items = list(range(7))
        chunks = chunk_list(items, 3)
        assert chunks == [[0, 1, 2], [3, 4, 5], [6]]
        assert [x for chunk in chunks for x in chunk] == items

    def test_chunking_is_independent_of_workers(self):
        # The determinism contract: chunking is a function of
        # (total, chunk_size) only -- nothing about workers enters.
        assert chunk_sizes(20, 6) == chunk_sizes(20, 6)

    def test_validation(self):
        with pytest.raises(ParallelError):
            chunk_sizes(-1)
        with pytest.raises(ParallelError):
            chunk_sizes(4, 0)


class TestResolveWorkers:
    def test_explicit_value(self):
        assert resolve_workers(3) == 3

    def test_default_is_serial(self):
        assert resolve_workers(None) == 1

    def test_bad_values_rejected(self):
        with pytest.raises(ParallelError):
            resolve_workers(0)
        with pytest.raises(ParallelError):
            resolve_workers("not-a-number")


# -- engine mechanics ------------------------------------------------------

class TestParallelMap:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_ordered_results(self, workers):
        results = ParallelMap(workers=workers).map(_square, list(range(10)))
        assert results == [x * x for x in range(10)]

    def test_empty_task_list(self):
        assert ParallelMap(workers=2).map(_square, []) == []

    def test_raising_task_marks_failure_and_continues(self):
        results = ParallelMap(workers=2).map(
            _raise_on_three, [1, 2, 3, 4], on_error="return")
        assert results[0] == 1 and results[1] == 2 and results[3] == 4
        failure = results[2]
        assert isinstance(failure, TaskFailure)
        assert failure.reason == "error"
        assert "three is right out" in failure.message
        # filtering is by type, not truthiness (see the next test)
        survivors = [r for r in results if not isinstance(r, TaskFailure)]
        assert survivors == [1, 2, 4]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_legitimate_falsy_results_survive_filtering(self, workers):
        # Regression: TaskFailure used to be falsy, so the documented
        # ``[r for r in results if r]`` idiom silently dropped real
        # falsy results (0, 0.0, [], ...).  Filtering is by isinstance.
        results = ParallelMap(workers=workers).map(
            _return_zero, [1, 2, 3], on_error="return")
        assert results == [0, 0, 0]
        survivors = [r for r in results if not isinstance(r, TaskFailure)]
        assert survivors == [0, 0, 0]
        shapes = ParallelMap(workers=workers).map(
            _return_falsy, list(range(5)), on_error="return")
        assert shapes == [0, 0.0, [], "", {}]
        assert len([r for r in shapes
                    if not isinstance(r, TaskFailure)]) == 5

    def test_task_failure_is_truthy(self):
        assert bool(TaskFailure(0, "error", "boom"))

    def test_raising_task_raises_by_default(self):
        with pytest.raises(ParallelError, match="three is right out"):
            ParallelMap(workers=2).map(_raise_on_three, [1, 2, 3, 4])

    def test_serial_fallback_matches_parallel(self):
        serial = ParallelMap(workers=1).map(
            _raise_on_three, [1, 2, 3, 4], on_error="return")
        parallel = ParallelMap(workers=2).map(
            _raise_on_three, [1, 2, 3, 4], on_error="return")
        assert serial[:2] == parallel[:2] and serial[3] == parallel[3]
        assert isinstance(serial[2], TaskFailure)
        assert isinstance(parallel[2], TaskFailure)

    def test_dead_worker_marks_chunk_failed_run_continues(self):
        results = ParallelMap(workers=2).map(
            _exit_on_one, [0, 1, 2], on_error="return")
        assert results[0] == 0 and results[2] == 2
        assert isinstance(results[1], TaskFailure)
        assert results[1].reason == "crashed"

    def test_timeout_terminates_slow_task(self):
        start = time.monotonic()
        results = ParallelMap(workers=2, timeout=1.0).map(
            _sleep_on_zero, [0, 1, 2], on_error="return")
        elapsed = time.monotonic() - start
        assert isinstance(results[0], TaskFailure)
        assert results[0].reason == "timeout"
        assert results[1] == 1 and results[2] == 2
        assert elapsed < 15.0  # never waits out the 30s sleep

    def test_bad_arguments_rejected(self):
        with pytest.raises(ParallelError):
            ParallelMap(workers=2, timeout=0)
        with pytest.raises(ParallelError):
            ParallelMap(workers=2).map(_square, [1], on_error="explode")

    def test_parallel_map_convenience(self):
        assert parallel_map(_square, [2, 3], workers=2) == [4, 9]


class TestTimeoutEnforcement:
    """``timeout=`` is enforced through the pool even at ``workers=1``."""

    def teardown_method(self):
        shutdown_pools()

    def test_workers_one_timeout_routes_through_pool_and_kills(self):
        start = time.monotonic()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = ParallelMap(workers=1, timeout=1.0).map(
                _sleep_on_zero, [0, 1, 2], on_error="return")
        elapsed = time.monotonic() - start
        assert isinstance(results[0], TaskFailure)
        assert results[0].reason == "timeout"
        assert results[1] == 1 and results[2] == 2
        assert elapsed < 15.0  # never waits out the 30s sleep

    def test_workers_one_without_timeout_stays_serial(self):
        shutdown_pools()
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            assert ParallelMap(workers=1).map(_square, [1, 2]) == [1, 4]
        assert registry.counter("parallel.pool.spawns").value == 0

    def test_process_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = ParallelMap(workers=2, timeout=20.0).map(
                _square, [1, 2])
        assert results == [1, 4]

    def test_serial_without_timeout_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ParallelMap(workers=1).map(_square, [2]) == [4]


class TestEngineTelemetry:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tasks_and_worker_seconds_recorded(self, workers):
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            ParallelMap(workers=workers).map(_square_instrumented,
                                             [1, 2, 3, 4])
        snapshot = registry.snapshot()
        assert snapshot["parallel.tasks"]["value"] == 4
        assert snapshot["parallel.worker_seconds"]["count"] == 4
        # worker-side instruments merged into the parent registry
        assert snapshot["test.parallel.calls"]["value"] == 4
        assert snapshot["test.parallel.work.seconds"]["count"] == 4

    def test_failures_counted(self):
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            ParallelMap(workers=2).map(_raise_on_three, [1, 2, 3, 4],
                                       on_error="return")
        assert registry.counter("parallel.failures").value == 1
        assert registry.counter("parallel.tasks").value == 4

    def test_worker_events_reemitted_with_worker_tag(self):
        registry = telemetry.MetricsRegistry()
        sink = registry.add_sink(telemetry.ListSink())
        with telemetry.use_registry(registry):
            ParallelMap(workers=2).map(_square_instrumented, [1, 2])
        worker_spans = [event for event in sink.events
                        if event.get("name") == "test.parallel.work"]
        assert len(worker_spans) == 2
        assert sorted(event["worker"] for event in worker_spans) == [0, 1]

    def test_disabled_registry_stays_silent(self):
        telemetry.disable()
        results = ParallelMap(workers=2).map(_square, [1, 2, 3])
        assert results == [1, 4, 9]
        assert telemetry.get_registry().snapshot() == {}


def _reaches_nine(prefix):
    return prefix[-1] >= 9


def _settled(prefix):
    return isinstance(prefix[-1], TaskFailure) or prefix[-1] >= 9


class TestEarlyStop:
    """``stop=``: ordered waves of at most the worker count, and no
    dispatch once the settled prefix satisfies the predicate."""

    TASKS = list(range(1, 11))

    @pytest.mark.parametrize("workers, ran", [(1, 3), (2, 4), (3, 3),
                                              ("auto", 4)])
    def test_returns_the_shortest_satisfying_prefix(self, workers, ran,
                                                    monkeypatch):
        monkeypatch.setattr(parallel_module, "_cpu_count", lambda: 2)
        registry = telemetry.MetricsRegistry()
        sink = registry.add_sink(telemetry.ListSink())
        with telemetry.use_registry(registry):
            results = ParallelMap(workers=workers).map(
                _square_instrumented, self.TASKS, stop=_reaches_nine)
        assert results == [1, 4, 9]
        # chunks past the prefix run only to fill the last wave
        assert registry.counter("parallel.tasks").value == ran
        assert registry.counter("test.parallel.calls").value == ran
        spans = [event for event in sink.events
                 if event.get("name") == "parallel.map"]
        assert [event["attrs"]["tasks"] for event in spans] == [ran]

    def test_never_satisfied_runs_everything(self):
        assert ParallelMap(workers=2).map(
            _square, self.TASKS, stop=lambda prefix: False) \
            == [x * x for x in self.TASKS]

    def test_a_waves_retries_finish_before_the_check(self, fault_plan):
        fault_plan([(0, 1, "raise"), (2, 1, "raise")])
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            results = ParallelMap(workers=2).map(
                _square, self.TASKS, retry=2, stop=_reaches_nine)
        assert results == [1, 4, 9]
        assert registry.counter("parallel.retries").value == 2
        assert registry.counter("parallel.tasks").value == 6

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_permanent_failure_can_end_the_prefix(self, workers,
                                                    fault_plan):
        fault_plan([(1, 1, "raise")])
        results = ParallelMap(workers=workers).map(
            _square, self.TASKS, on_error="return", stop=_settled)
        assert results[0] == 1
        assert isinstance(results[1], TaskFailure)
        assert len(results) == 2
        with pytest.raises(ParallelError, match="1 of 2 parallel task"):
            ParallelMap(workers=workers).map(_square, self.TASKS,
                                             stop=_settled)

    def test_a_failure_past_the_prefix_is_never_dispatched(self,
                                                           fault_plan):
        fault_plan([(5, 1, "raise")])
        assert ParallelMap(workers=2).map(
            _square, self.TASKS, stop=_reaches_nine) == [1, 4, 9]

    def test_cache_hits_fill_the_prefix_without_dispatch(self):
        from repro.core.cache import ResultCache

        spec = ResultCache().spec("demo", {"test": "early-stop"})
        for index in range(3):
            spec.store(self.TASKS[index] ** 2, index)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            results = ParallelMap(workers=2).map(
                _square, self.TASKS, cache=spec, stop=_reaches_nine)
        assert results == [1, 4, 9]
        assert registry.counter("parallel.tasks").value == 0


# -- persistent worker-pool lifecycle --------------------------------------

def _pool():
    """The single live pool (tests run one start method at a time)."""
    pools = [pool for pool in parallel_module._POOLS.values()
             if not pool.closed]
    assert len(pools) == 1
    return pools[0]


class TestWorkerPoolLifecycle:
    """Spawn-once/reuse-forever pool semantics, observed via telemetry."""

    def setup_method(self):
        shutdown_pools()

    def teardown_method(self):
        shutdown_pools()

    def test_pool_reused_across_consecutive_maps(self):
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            engine = ParallelMap(workers=2)
            assert engine.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
            assert engine.map(_square, [5, 6, 7, 8]) == [25, 36, 49, 64]
        # two workers spawned for the first map, zero for the second
        assert registry.counter("parallel.pool.spawns").value == 2
        assert registry.counter("parallel.pool.reuses").value == 1
        assert registry.counter("parallel.pool.restarts").value == 0

    def test_pool_shared_across_engine_instances(self):
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            assert ParallelMap(workers=2).map(_square, [1, 2]) == [1, 4]
            assert ParallelMap(workers=2).map(_square, [3, 4]) == [9, 16]
        assert registry.counter("parallel.pool.spawns").value == 2
        assert registry.counter("parallel.pool.reuses").value == 1

    def test_pool_grows_on_demand_and_never_shrinks(self):
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            ParallelMap(workers=2).map(_square, [1, 2, 3])
            ParallelMap(workers=3).map(_square, [1, 2, 3])
            ParallelMap(workers=2).map(_square, [1, 2, 3])
        assert registry.counter("parallel.pool.spawns").value == 3
        assert len(_pool().workers) == 3

    def test_shutdown_stops_workers_and_next_map_respawns(self):
        ParallelMap(workers=2).map(_square, [1, 2])
        pool = _pool()
        processes = [worker.process for worker in pool.workers]
        shutdown_pools()
        assert pool.closed
        assert parallel_module._POOLS == {}
        assert all(not process.is_alive() for process in processes)
        # the next map builds a fresh pool transparently
        assert ParallelMap(workers=2).map(_square, [3, 4]) == [9, 16]
        assert not _pool().closed

    def test_dead_idle_worker_respawned_on_next_map(self):
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            assert ParallelMap(workers=2).map(_square, [1, 2]) == [1, 4]
            victim = _pool().workers[0].process
            victim.terminate()
            victim.join(timeout=5.0)
            assert ParallelMap(workers=2).map(_square, [3, 4]) == [9, 16]
        # 2 initial spawns + 1 replacement for the killed idle slot
        assert registry.counter("parallel.pool.spawns").value == 3

    def test_kill_fault_restarts_slot_and_retry_recovers(self, fault_plan):
        fault_plan([(1, 1, "kill")])
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            results = ParallelMap(workers=2).map(
                _square, [1, 2, 3, 4], retry=2)
        # bit-identical to a fault-free run, on a healed pool
        assert results == [1, 4, 9, 16]
        assert registry.counter("parallel.pool.restarts").value >= 1
        assert registry.counter("parallel.retries").value == 1
        assert len(_pool().workers) == 2
        assert all(worker.process.is_alive()
                   for worker in _pool().workers)

    def test_hang_fault_timeout_restarts_slot_and_retry_recovers(
            self, fault_plan):
        fault_plan([(0, 1, "hang")])
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            results = ParallelMap(workers=2, timeout=1.0).map(
                _square, [1, 2, 3], retry=2)
        assert results == [1, 4, 9]
        assert registry.counter("parallel.pool.restarts").value >= 1
        assert all(worker.process.is_alive()
                   for worker in _pool().workers)

    def test_killed_worker_mid_map_leaks_no_segments(self, fault_plan):
        # Payload arrays above the shm threshold ride in shared memory;
        # a kill fault mid-chunk must not leave its segments behind.
        fault_plan([(1, 1, "kill")])
        tasks = [np.full((130, 128), float(i)) for i in range(4)]
        assert tasks[0].nbytes >= shm.SHARE_THRESHOLD_BYTES
        results = ParallelMap(workers=2).map(_sum_array, tasks, retry=2)
        assert results == [float(i) * 130 * 128 for i in range(4)]
        assert shm.active_segment_count() == 0

    def test_timed_out_worker_leaks_no_segments(self, fault_plan):
        fault_plan([(0, 1, "hang")])
        tasks = [np.full((130, 128), float(i)) for i in range(3)]
        results = ParallelMap(workers=2, timeout=1.0).map(
            _sum_array, tasks, retry=2)
        assert results == [float(i) * 130 * 128 for i in range(3)]
        assert shm.active_segment_count() == 0

    def test_concurrent_maps_from_threads_share_pool(self):
        # Two threads mapping at once must take turns on the pool, not
        # interleave dispatches and steal each other's results.
        results = {}

        def run(name, values):
            results[name] = ParallelMap(workers=2).map(_square, values)

        threads = [
            threading.Thread(target=run, args=("a", [1, 2, 3, 4])),
            threading.Thread(target=run, args=("b", [5, 6, 7, 8])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert results["a"] == [1, 4, 9, 16]
        assert results["b"] == [25, 36, 49, 64]
        assert shm.active_segment_count() == 0

    def test_shutdown_mid_round_aborts_cleanly(self):
        # shutdown() while a round is running must fail the round's
        # remaining chunks instead of crashing on a closed queue or
        # respawning workers into the closed pool.
        engine = ParallelMap(workers=2)
        assert engine.map(_square, [1, 2]) == [1, 4]
        pool = _pool()

        closer = threading.Thread(
            target=lambda: (time.sleep(0.5), shutdown_pools()))
        closer.start()
        results = engine.map(_sleep_on_zero, [0, 1], on_error="return")
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        assert isinstance(results[0], TaskFailure)
        assert results[0].reason == "crashed"
        assert pool.closed
        assert pool.workers == []
        assert shm.active_segment_count() == 0
        # the next map transparently builds a fresh pool
        assert engine.map(_square, [3, 4]) == [9, 16]


#: A pool run whose pairs ride in shared memory, in a new interpreter;
#: argv[1] == "started" starts the resource tracker before the pool.
_SHARED_RUN_SCRIPT = """
import sys
import numpy as np
from multiprocessing import shared_memory
from repro.oscillators.distance import OscillatorDistanceUnit
if sys.argv[1] == "started":
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
pairs = np.random.default_rng(0).uniform(0.0, 255.0, size=(200000, 2))
OscillatorDistanceUnit().measure_pairs(pairs, workers=2, cache=False)
"""


class TestSharedMemoryTracker:
    """A clean pool run leaves the resource tracker nothing to clean up:
    at exit no tracker warns of leaked segments, whether or not the
    parent's tracker ran before the workers started."""

    @pytest.mark.parametrize("tracker", ["fresh", "started"])
    def test_clean_pool_run_reports_no_leak(self, tracker):
        import subprocess
        import sys

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        done = subprocess.run(
            [sys.executable, "-c", _SHARED_RUN_SCRIPT, tracker], env=env,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "leaked shared_memory" not in done.stderr
        assert "Traceback" not in done.stderr


class TestAutoWorkers:
    """``workers="auto"``: machine-sized placement, invariant results."""

    def setup_method(self):
        shutdown_pools()

    def teardown_method(self):
        shutdown_pools()

    def test_resolve_passes_auto_through(self):
        assert resolve_workers("auto") == AUTO
        assert resolve_workers(" AUTO ") == AUTO

    def test_wants_fanout(self):
        assert wants_fanout("auto")
        assert wants_fanout(2)
        assert not wants_fanout(1)
        assert not wants_fanout(None)

    def test_is_chunked(self):
        assert not is_chunked()
        assert not is_chunked(workers=1)
        assert is_chunked(workers="auto")
        assert is_chunked(workers=2)
        assert is_chunked(chunk_size=4)
        assert is_chunked(timeout=5.0)
        # any retry budget, even one attempt, takes the chunked path
        assert is_chunked(retry=1)

    def test_small_workload_chooses_serial(self, monkeypatch):
        # one chunk gains nothing from a pool, even on a big machine
        monkeypatch.setattr(parallel_module, "_cpu_count", lambda: 8)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            assert ParallelMap(workers=AUTO).map(_square, [3]) == [9]
        assert registry.counter("parallel.auto.serial").value == 1
        assert registry.counter("parallel.auto.parallel").value == 0
        assert registry.counter("parallel.pool.spawns").value == 0

    def test_single_core_host_chooses_serial(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "_cpu_count", lambda: 1)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            results = ParallelMap(workers=AUTO).map(_square, [1, 2, 3, 4])
        assert results == [1, 4, 9, 16]
        assert registry.counter("parallel.auto.serial").value == 1
        assert registry.counter("parallel.pool.spawns").value == 0

    def test_multicore_host_fans_out_capped_by_chunks(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "_cpu_count", lambda: 4)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            results = ParallelMap(workers=AUTO).map(_square, [1, 2, 3])
        assert results == [1, 4, 9]
        assert registry.counter("parallel.auto.parallel").value == 1
        # pool sized min(cores, chunks) == 3
        assert registry.counter("parallel.pool.spawns").value == 3

    def test_auto_matches_explicit_worker_counts(self, monkeypatch):
        # placement is the machine's only degree of freedom: the same
        # chunked workload returns the same values under auto and under
        # any explicit count
        expected = [x * x for x in range(8)]
        for cpus in (1, 4):
            monkeypatch.setattr(parallel_module, "_cpu_count",
                                lambda cpus=cpus: cpus)
            assert ParallelMap(workers=AUTO).map(
                _square, list(range(8))) == expected
        assert ParallelMap(workers=2).map(
            _square, list(range(8))) == expected


# -- property-based guarantees ---------------------------------------------

@settings(max_examples=25, deadline=None)
@given(items=st.lists(st.integers(min_value=-1000, max_value=1000),
                      max_size=40),
       chunk_size=st.one_of(st.none(), st.integers(min_value=1,
                                                   max_value=12)))
def test_property_chunk_list_roundtrips(items, chunk_size):
    chunks = chunk_list(items, chunk_size)
    assert [x for chunk in chunks for x in chunk] == items
    if chunk_size is not None:
        assert all(len(chunk) <= chunk_size for chunk in chunks)


@settings(max_examples=10, deadline=None)
@given(items=st.lists(st.integers(min_value=0, max_value=100),
                      min_size=1, max_size=12),
       workers=st.sampled_from([1, 2, 3, 4]))
def test_property_map_preserves_order_and_length(items, workers):
    results = ParallelMap(workers=workers).map(_square, items)
    assert results == [x * x for x in items]


@settings(max_examples=5, deadline=None)
@given(workers=st.sampled_from([1, 2, 4]))
def test_property_raising_task_never_hangs(workers):
    results = ParallelMap(workers=workers).map(
        _raise_on_three, [3, 3, 1], on_error="return")
    assert results[2] == 1
    assert all(isinstance(r, TaskFailure) for r in results[:2])


# -- the cross-paradigm determinism suite ----------------------------------

class TestDeterminismSuite:
    """Serial vs. workers=2 vs. workers=4: bit-identical outputs."""

    def test_dmm_ensemble_tts_identical_across_worker_counts(self):
        from repro.core.sat_instances import planted_ksat
        from repro.memcomputing.ensemble import solve_ensemble

        formula = planted_ksat(20, 80, rng=10)
        runs = [solve_ensemble(formula, batch=8, max_steps=20_000, rng=11,
                               workers=workers, chunk_size=4)
                for workers in (1, 2, 4)]
        for run in runs[1:]:
            assert np.array_equal(runs[0].solve_steps, run.solve_steps)

    def test_dmm_ensemble_default_chunking_identical(self):
        from repro.core.sat_instances import planted_ksat
        from repro.memcomputing.ensemble import solve_ensemble

        formula = planted_ksat(15, 55, rng=1)
        two = solve_ensemble(formula, batch=6, max_steps=20_000, rng=2,
                             workers=2)
        four = solve_ensemble(formula, batch=6, max_steps=20_000, rng=2,
                              workers=4)
        assert np.array_equal(two.solve_steps, four.solve_steps)

    def test_quantum_shot_counts_identical_across_worker_counts(self):
        from repro.quantum.circuit import QuantumCircuit
        from repro.quantum.runtime import QuantumRuntime

        circuit = QuantumCircuit(2).h(0).cnot(0, 1) \
            .measure(0, "a").measure(1, "b")
        runs = [QuantumRuntime().run(circuit, shots=120, rng=5,
                                     workers=workers, chunk_size=30)
                for workers in (1, 2, 4)]
        assert runs[0].counts == runs[1].counts == runs[2].counts
        assert sum(runs[0].counts.values()) == 120

    def test_shor_factors_identical_across_worker_counts(self):
        from repro.quantum.algorithms.shor import shor_factor

        two = shor_factor(15, rng=0, workers=2)
        four = shor_factor(15, rng=0, workers=4)
        assert two.succeeded and four.succeeded
        assert sorted(two.factors) == sorted(four.factors) == [3, 5]

    def test_oscillator_distances_identical_across_worker_counts(self):
        from repro.oscillators.distance import OscillatorDistanceUnit

        unit = OscillatorDistanceUnit()
        pairs = [(a, 255 - a) for a in range(0, 256, 16)]
        serial = unit.measure_pairs(pairs)
        assert serial == unit.measure_pairs(pairs, workers=2, chunk_size=4)
        assert serial == unit.measure_pairs(pairs, workers=4, chunk_size=4)

    def test_oscillator_fast_corners_identical_across_worker_counts(self):
        from repro.oscillators.fast.images import rectangle_image
        from repro.oscillators.fast.oscillator_fast import (
            OscillatorFastDetector,
        )

        image, _truth = rectangle_image(height=24, width=24, top=6,
                                        left=6, bottom=18, right=18)
        detector = OscillatorFastDetector()
        serial = detector.detect(image)
        assert serial == detector.detect(image, workers=2)
        assert serial == detector.detect(image, workers=4)

    def test_portfolio_winner_independent_of_worker_count(self):
        from repro.core.sat_instances import planted_ksat
        from repro.memcomputing.solver import solve_portfolio

        formula = planted_ksat(15, 55, rng=0)
        picks = [solve_portfolio(formula, attempts=4, workers=workers,
                                 rng=3, max_steps=100_000)
                 for workers in (1, 2, 4)]
        assert all(p.satisfied for p in picks)
        steps = {p.best.steps for p in picks}
        assert len(steps) == 1
