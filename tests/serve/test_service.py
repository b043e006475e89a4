"""JobService behaviour: validation, coalescing, admission, where jobs run.

Async tests drive the service on a private event loop via
``asyncio.run`` inside plain pytest functions (the suite has no async
plugin, by design -- the service itself must work from stock asyncio).
Submitting several kernel-thread jobs synchronously (no ``await``
between them) lands them all before the dispatcher coroutines get a
turn, which is what makes the coalescing/priority assertions
deterministic.  A bounded job (behavioral distance, small detect) is
finished when ``submit`` returns.
"""

import asyncio
import collections
import os
import threading

import numpy as np
import pytest

from repro.core import telemetry
from repro.core.cache import ResultCache
from repro.core.exceptions import (
    JobValidationError,
    ParallelError,
    QueueFullError,
    QuotaError,
    ResilienceError,
)
from repro.memcomputing import solver
from repro.oscillators.distance import OscillatorDistanceUnit
from repro.oscillators.fast.oscillator_fast import OscillatorFastDetector
from repro.quantum.algorithms import shor
from repro.serve import JobService, ServeConfig, validate_request
from repro.serve.jobs import DONE, FAILED, RUNNING, JobTable


def run_service_test(body, **config_kwargs):
    """Start a JobService, run ``await body(service)``, close it."""
    config_kwargs.setdefault("workers", 1)

    async def _scope():
        service = JobService(ServeConfig(**config_kwargs))
        await service.start()
        try:
            return await body(service)
        finally:
            await service.close()

    return asyncio.run(_scope())


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(JobValidationError, match="unknown job kind"):
            validate_request("transmute", {})

    def test_solve_requires_dimacs(self):
        with pytest.raises(JobValidationError, match="dimacs"):
            validate_request("solve", {})
        with pytest.raises(JobValidationError, match="exceeds"):
            validate_request("solve", {"dimacs": "c" * 200_001})

    def test_factor_bounds(self):
        with pytest.raises(JobValidationError, match="integer"):
            validate_request("factor", {"n": "15"})
        with pytest.raises(JobValidationError, match=r"\[4,"):
            validate_request("factor", {"n": 2})
        # Order finding for n needs 3 * bit_length(n - 1) qubits: 18 for
        # every n up to 64, 21 at n = 65 (an attempt then takes seconds).
        assert validate_request("factor", {"n": 64}) == {"n": 64, "seed": 0}
        with pytest.raises(JobValidationError, match=r"\[4, 64\]"):
            validate_request("factor", {"n": 65})

    def test_distance_pairs_canonicalized(self):
        params = validate_request("distance", {"pairs": [[1, 2], (3, 4)]})
        assert params["pairs"] == [[1.0, 2.0], [3.0, 4.0]]
        assert params["mode"] == "behavioral"
        with pytest.raises(JobValidationError, match="numeric"):
            validate_request("distance", {"pairs": [[1, "x"]]})
        with pytest.raises(JobValidationError, match="mode"):
            validate_request("distance", {"pairs": [[1, 2]],
                                          "mode": "spooky"})

    def test_detect_image_shape(self):
        with pytest.raises(JobValidationError, match="same length"):
            validate_request("detect", {"image": [[1.0, 2.0], [3.0]]})
        with pytest.raises(JobValidationError, match="pixels"):
            validate_request("detect",
                             {"image": [[0.0] * 300 for _ in range(300)]})

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"), 10**400, -10**400,
    ], ids=["nan", "inf", "-inf", "int-1e400", "int--1e400"])
    @pytest.mark.parametrize("field", ["pairs", "image", "threshold"])
    def test_non_finite_values_rejected(self, field, value):
        """Python's json reads NaN and Infinity, and an integer too
        large for a float overflows the conversion: each is a
        validation error, never a NaN answer or a 500."""
        image = [[float((r * 31 + c * 7) % 97) for c in range(10)]
                 for r in range(10)]
        if field == "pairs":
            kind, params = "distance", {"pairs": [[1.0, 2.0], [value, 3.0]]}
        elif field == "image":
            image[5][5] = value
            kind, params = "detect", {"image": image}
        else:
            kind, params = "detect", {"image": image, "threshold": value}
        with pytest.raises(JobValidationError, match="finite"):
            validate_request(kind, params)

    def test_identical_meaning_same_canonical_form(self):
        ints = validate_request("distance", {"pairs": [[1, 2]]})
        floats = validate_request("distance", {"pairs": [[1.0, 2.0]]})
        assert ints == floats

    def test_bad_priority_and_tenant(self):
        async def body(service):
            with pytest.raises(JobValidationError, match="priority"):
                service.submit("factor", {"n": 15}, priority=42)
            with pytest.raises(JobValidationError, match="tenant"):
                service.submit("factor", {"n": 15}, tenant="")

        run_service_test(body)

    @pytest.mark.parametrize("kwargs, error", [
        ({"retries": 0}, ResilienceError),
        ({"retries": -3}, ResilienceError),
        ({"timeout": 0.0}, ParallelError),
        ({"timeout": -1.0}, ParallelError),
        ({"timeout": float("nan")}, ParallelError),
        ({"workers": 0}, ParallelError),
    ])
    def test_config_rejects_values_every_job_would_fail_on(self, kwargs,
                                                           error):
        with pytest.raises(error):
            ServeConfig(**kwargs)


class TestCoalescing:
    def test_identical_concurrent_requests_one_execution(self):
        """The acceptance criterion: N identical concurrent requests ->
        exactly one kernel execution, proven by the ``serve.coalesced``
        and (on the later resubmission) ``cache.hits`` telemetry."""
        registry = telemetry.MetricsRegistry()
        params = {"n": 21}

        async def body(service):
            jobs = [service.submit("factor", params) for _ in range(5)]
            await asyncio.gather(*(job.future for job in jobs))
            results = [job.result for job in jobs]
            assert all(r == results[0] for r in results)
            assert all(job.state == DONE for job in jobs)
            assert service.executions == 1
            # Followers name the primary whose execution they shared.
            assert jobs[0].coalesced_with is None
            assert all(job.coalesced_with == jobs[0].id
                       for job in jobs[1:])
            # A later identical request replays from the result store.
            replay = service.submit("factor", dict(params))
            assert replay.cached and replay.state == DONE
            assert replay.result == results[0]
            assert service.executions == 1

        with telemetry.use_registry(registry):
            run_service_test(body)
        snapshot = registry.snapshot()
        assert snapshot["serve.requests"]["value"] == 6
        assert snapshot["serve.coalesced"]["value"] == 4
        assert snapshot["serve.cache_hits"]["value"] == 1
        assert snapshot["cache.hits"]["value"] >= 1
        assert snapshot["serve.executions"]["value"] == 1

    def test_identical_bounded_requests_one_execution_then_store_hits(
            self):
        """A bounded job finishes inside ``submit``, so its identical
        twins never overlap it: they replay it from the store."""
        params = {"pairs": [[1.0, 2.0], [2.0, 3.0]]}

        async def body(service):
            jobs = [service.submit("distance", params) for _ in range(5)]
            assert all(job.state == DONE for job in jobs)
            assert [job.cached for job in jobs] == [False] + [True] * 4
            assert all(job.result == jobs[0].result for job in jobs)
            stats = service.stats()
            assert (stats["executions"], stats["cache_hits"],
                    stats["coalesced"]) == (1, 4, 0)

        run_service_test(body)

    def test_sequential_identical_requests_hit_the_store(self):
        async def body(service):
            first = service.submit("factor", {"n": 21})
            await first.future
            second = service.submit("factor", {"n": 21})
            assert second.cached and second.state == DONE
            assert second.result == first.result
            assert service.executions == 1

        run_service_test(body)

    def test_results_are_isolated_copies(self):
        params = {"pairs": [[1.0, 2.0]]}

        async def body(service):
            jobs = [service.submit("distance", params) for _ in range(2)]
            await asyncio.gather(*(job.future for job in jobs))
            jobs[0].result["measures"][0] = -1.0
            assert jobs[1].result["measures"][0] != -1.0

        run_service_test(body)

    def test_failures_propagate_and_are_never_cached(self):
        params = {"dimacs": "p cnf not actually dimacs", "attempts": 1}

        async def body(service):
            jobs = [service.submit("solve", params) for _ in range(2)]
            await asyncio.gather(*(job.future for job in jobs))
            assert all(job.state == FAILED for job in jobs)
            assert all(job.error for job in jobs)
            retry = service.submit("solve", dict(params))
            await retry.future
            assert retry.state == FAILED and not retry.cached
            assert service.executions == 2   # failure re-executed

        run_service_test(body)


class TestBatching:
    def test_different_modes_never_merge(self):
        async def body(service):
            job_a = service.submit("distance", {"pairs": [[1.0, 2.0]],
                                                "mode": "behavioral"})
            job_b = service.submit("distance", {"pairs": [[1.0, 2.0]],
                                                "mode": "physical"})
            await asyncio.gather(job_a.future, job_b.future)
            assert service.batched == 0
            assert service.executions == 2

        run_service_test(body, job_concurrency=1)

    def test_physical_jobs_dispatch_alone_with_the_service_options(
            self, monkeypatch):
        """A physical pair is an ODE integration (~2 s), so merging saves
        nothing, and a merged call would escape the timeout: each
        physical job reaches ``measure_pairs`` alone with the service's
        workers, timeout and retries, whatever else is queued.  The
        kernel is replaced, so the test integrates no ODE."""
        calls = []

        def fake_measure_pairs(unit, pairs, **options):
            calls.append((unit.mode, len(pairs), options))
            return [0.5] * len(pairs)

        def fake_measure_batch(unit, a, b):
            calls.append((unit.mode, len(a), "measure_batch"))
            return np.full(np.shape(a), 0.5)

        monkeypatch.setattr(OscillatorDistanceUnit, "measure_pairs",
                            fake_measure_pairs)
        monkeypatch.setattr(OscillatorDistanceUnit, "measure_batch",
                            fake_measure_batch)

        async def body(service):
            jobs = [service.submit("distance", {"pairs": pairs,
                                                "mode": "physical"})
                    for pairs in ([[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]])]
            await asyncio.gather(*(job.future for job in jobs))
            assert [job.state for job in jobs] == [DONE, DONE]
            assert service.batched == 0
            assert service.executions == 2

        run_service_test(body, job_concurrency=1, timeout=5.0, cache=False)
        options = {"cache": False, "workers": 1, "timeout": 5.0, "retry": 2}
        assert calls == [("physical", 1, options), ("physical", 2, options)]


class TestAdmission:
    def test_queue_overflow_rejected(self):
        async def body(service):
            service.submit("factor", {"n": 15})
            service.submit("factor", {"n": 21})
            with pytest.raises(QueueFullError):
                service.submit("factor", {"n": 33})
            # The rejected job never entered the table.
            assert service.table.stats()["queued"] == 2

        run_service_test(body, queue_depth=2, job_concurrency=1)

    def test_tenant_quota_rejected_then_released(self):
        async def body(service):
            first = service.submit("factor", {"n": 15}, tenant="alice")
            service.submit("factor", {"n": 21}, tenant="alice")
            with pytest.raises(QuotaError):
                service.submit("factor", {"n": 33}, tenant="alice")
            # Another tenant is unaffected by alice's quota.
            other = service.submit("factor", {"n": 33}, tenant="bob")
            await asyncio.gather(first.future, other.future)
            # Completion returns quota units; alice can submit again.
            await asyncio.sleep(0)
            retry = service.submit("factor", {"n": 35}, tenant="alice")
            await retry.future
            assert retry.state == DONE

        run_service_test(body, tenant_quota=2, job_concurrency=1)

    def test_priority_orders_dispatch(self):
        async def body(service):
            low = service.submit("factor", {"n": 15}, priority=9)
            high = service.submit("factor", {"n": 21}, priority=0)
            mid = service.submit("factor", {"n": 33}, priority=5)
            await asyncio.gather(low.future, high.future, mid.future)
            assert high.started_at < mid.started_at < low.started_at

        run_service_test(body, job_concurrency=1)

    def test_retention_prunes_finished_jobs(self):
        async def body(service):
            service.table = JobTable(retention=2)
            for n in (15, 21, 33, 35, 39):
                job = service.submit("factor", {"n": n})
                await job.future
            assert len(service.table) == 2

        run_service_test(body)

    def test_late_finisher_stays_pollable(self):
        # The slow job is created first but, at the lowest priority,
        # finishes last: retention follows finish order, so it outlives
        # the younger jobs that finished before it.
        async def body(service):
            service.table = JobTable(retention=2)
            slow = service.submit("factor", {"n": 15}, priority=9)
            fast = [service.submit("factor", {"n": n}, priority=0)
                    for n in (21, 33, 35)]
            await asyncio.gather(slow.future,
                                 *(job.future for job in fast))
            assert service.table.get(slow.id) is slow
            assert service.table.get(fast[-1].id) is fast[-1]
            assert len(service.table) == 2

        run_service_test(body, job_concurrency=1)


class TestJobTablePruning:
    """The retention contract at the table level: only *finished* jobs
    count against the cap, the earliest finished go first, and pruned
    ids stop resolving while live ones keep working.
    """

    @staticmethod
    def _finish(table, job, state=DONE):
        job.state = state
        table.mark_finished(job)

    def _table(self, retention, finished=0, live=0):
        table = JobTable(retention=retention)
        jobs = [table.create("factor", {"n": 15}, "t", 5,
                             "key-%d" % index, {})
                for index in range(finished + live)]
        for job in jobs[:finished]:
            self._finish(table, job)
        return table, jobs

    def test_prune_drops_oldest_finished_first(self):
        table, jobs = self._table(retention=2, finished=5)
        table.prune()
        assert len(table) == 2
        assert [table.get(job.id) for job in jobs[:3]] == [None] * 3
        assert table.get(jobs[3].id) is jobs[3]
        assert table.get(jobs[4].id) is jobs[4]

    def test_unfinished_jobs_never_pruned(self):
        table, jobs = self._table(retention=0, finished=3, live=4)
        table.prune()
        # Every queued job survives a zero-retention prune; every
        # finished one goes.
        assert len(table) == 4
        for job in jobs[3:]:
            assert table.get(job.id) is job

    def test_prune_under_cap_is_a_no_op(self):
        table, jobs = self._table(retention=10, finished=3)
        table.prune()
        assert len(table) == 3

    def test_prune_is_idempotent(self):
        table, _jobs = self._table(retention=1, finished=4)
        table.prune()
        table.prune()
        assert len(table) == 1

    def test_late_finishers_outlive_earlier_ones(self):
        # Retention follows finish order: an old job that finishes
        # *after* a younger one outlives it.
        table, jobs = self._table(retention=1, live=3)
        self._finish(table, jobs[2])
        table.prune()
        assert len(table) == 3  # one finished, cap is one
        self._finish(table, jobs[0], FAILED)
        table.prune()
        assert table.get(jobs[2].id) is None
        assert table.get(jobs[0].id) is jobs[0]
        assert table.get(jobs[1].id) is jobs[1]

    def test_negative_retention_rejected(self):
        with pytest.raises(ValueError):
            JobTable(retention=-1)


class TestStats:
    def test_stats_document_shape(self):
        async def body(service):
            job = service.submit("detect", {
                "image": [[float((r * 31 + c * 7) % 97)
                           for c in range(12)] for r in range(12)]})
            await job.future
            stats = service.stats()
            # The counters perfbench reads from /v1/stats.
            for key in ("requests", "executions", "coalesced",
                        "cache_hits", "batched"):
                assert isinstance(stats[key], int), key
            assert stats["requests"] == 1
            assert stats["executions"] == 1
            assert stats["completed"] == 1
            assert stats["queue_depth"] == 0
            assert stats["jobs"][DONE] == 1

        run_service_test(body)

    def test_detect_result_matches_direct_detector(self):
        rng = np.random.default_rng(7)
        image = rng.uniform(0.0, 255.0, size=(24, 24))

        async def body(service):
            job = service.submit(
                "detect", {"image": image.tolist(), "threshold": 30.0})
            await job.future
            assert job.state == DONE
            return job.result

        result = run_service_test(body)
        corners = OscillatorFastDetector(threshold=30.0).detect(image)
        assert result["corners"] == [[int(r), int(c)] for r, c in corners]


class TestResultStore:
    """The service's disk store: one entry per request, and a damaged
    entry degrades to a recomputation rather than a permanent 500."""

    DIMACS = "p cnf 3 2\n1 -2 0\n2 3 0\n"
    REQUESTS = (
        ("distance", {"pairs": [[1.0, 2.0], [30.0, 50.0]]}),
        ("detect", {"image": [[float((r * 31 + c * 7) % 97)
                               for c in range(10)] for r in range(10)]}),
        ("solve", {"dimacs": DIMACS, "attempts": 2, "max_steps": 20000}),
        ("factor", {"n": 21, "seed": 1}),
    )

    @staticmethod
    def _entries(directory):
        return sorted(name for name in os.listdir(directory)
                      if name.endswith(".json"))

    def test_each_request_stores_exactly_one_entry(self, tmp_path):
        async def body(service):
            jobs = [service.submit(kind, params)
                    for kind, params in self.REQUESTS]
            await asyncio.gather(*(job.future for job in jobs))
            assert all(job.state == DONE for job in jobs), \
                [job.error for job in jobs]
            return sorted(job.key + ".json" for job in jobs)

        # retries=2 sends every kernel down its chunked path, where the
        # kernels used to store per-chunk entries of their own.
        keys = run_service_test(
            body, cache=ResultCache(cache_dir=str(tmp_path)), retries=2)
        assert self._entries(tmp_path) == keys

    def test_corrupt_store_entry_recomputes_and_settles_done(self,
                                                            tmp_path):
        params = {"pairs": [[1.0, 2.0], [30.0, 50.0]]}
        expected = OscillatorDistanceUnit().measure_pairs(params["pairs"])

        async def submit(service):
            job = service.submit("distance", params)
            await job.future
            return job

        first = run_service_test(
            submit, cache=ResultCache(cache_dir=str(tmp_path)))
        path = tmp_path / (first.key + ".json")
        path.write_text(path.read_text()[:20])     # a torn write
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            again = run_service_test(
                submit, cache=ResultCache(cache_dir=str(tmp_path)))
        assert again.state == DONE and not again.cached
        assert again.result["measures"] == expected
        assert registry.snapshot()["cache.corrupt"]["value"] == 1
        assert (tmp_path / (first.key + ".json.corrupt")).exists()
        # The recomputed result replaced the damaged entry.
        third = run_service_test(
            submit, cache=ResultCache(cache_dir=str(tmp_path)))
        assert third.cached and third.result == again.result

    def test_unwritable_store_settles_and_keeps_dispatchers(self,
                                                           tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        params = {"pairs": [[1.0, 2.0], [30.0, 50.0]]}
        expected = OscillatorDistanceUnit().measure_pairs(params["pairs"])

        async def body(service):
            first = service.submit("distance", params)
            await asyncio.wait_for(first.future, timeout=10)
            alive = [not task.done() for task in service._dispatchers]
            second = service.submit("distance", params)
            await asyncio.wait_for(second.future, timeout=10)
            return first, second, alive

        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            first, second, alive = run_service_test(
                body, cache=ResultCache(cache_dir=str(blocker / "store")))
        assert first.state == DONE
        assert first.result["measures"] == expected
        assert alive and all(alive)
        assert second.state == DONE and second.result == first.result
        assert registry.snapshot()["cache.store_errors"]["value"] >= 1


class TestWhereJobsRun:
    """Behavioral distance and one-chunk detect run on the event-loop
    thread; physical distance, larger detect, solve and factor run on a
    ``repro-serve`` kernel thread.  The answers are the library's."""

    @pytest.fixture
    def threads(self, monkeypatch):
        """Kernel name -> names of the threads that ran it.

        Physical-mode ``measure_batch`` answers 0.5 instead of
        integrating the ODE, so no test here pays for a simulation.
        """
        seen = collections.defaultdict(list)

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                seen[name].append(threading.current_thread().name)
                return fn(*args, **kwargs)
            return wrapper

        measure_batch = OscillatorDistanceUnit.measure_batch

        def measure_batch_or_fake(unit, a, b):
            if unit.mode == "physical":
                return np.full(np.shape(a), 0.5)
            return measure_batch(unit, a, b)

        monkeypatch.setattr(OscillatorDistanceUnit, "measure_batch",
                            recording("measure_batch", measure_batch_or_fake))
        monkeypatch.setattr(OscillatorFastDetector, "_scan",
                            recording("_scan", OscillatorFastDetector._scan))
        monkeypatch.setattr(solver, "solve_portfolio",
                            recording("solve_portfolio",
                                      solver.solve_portfolio))
        monkeypatch.setattr(shor, "shor_factor",
                            recording("shor_factor", shor.shor_factor))
        return seen

    @staticmethod
    def _serve(requests):
        """Submit ``requests`` at once: ``(loop thread, results, batched)``."""
        async def body(service):
            jobs = [service.submit(kind, params) for kind, params in requests]
            await asyncio.gather(*(job.future for job in jobs))
            assert all(job.state == DONE for job in jobs), \
                [job.error for job in jobs]
            return (threading.current_thread().name,
                    [job.result for job in jobs], service.batched)

        return run_service_test(body, cache=False, job_concurrency=1)

    def test_behavioral_distance_runs_on_the_loop(self, threads):
        blocks = np.random.default_rng(6).uniform(0.0, 255.0, size=(3, 64, 2))
        expected = [OscillatorDistanceUnit().measure_pairs(block)
                    for block in blocks]
        threads.clear()
        loop, alone, _batched = self._serve(
            [("distance", {"pairs": blocks[0].tolist()})])
        loop_again, more, _batched = self._serve(
            [("distance", {"pairs": block.tolist()}) for block in blocks[1:]])
        assert threads["measure_batch"] == [loop, loop_again, loop_again]
        assert [result["measures"] for result in alone + more] == expected

    @pytest.mark.parametrize("size", [10, 38])  # interior pixels: 16, 1,024
    def test_one_chunk_detect_runs_on_the_loop(self, threads, size):
        image = np.random.default_rng(size).uniform(0.0, 255.0,
                                                    size=(size, size))
        corners = OscillatorFastDetector().detect(image)
        threads.clear()
        loop, (result,), _batched = self._serve(
            [("detect", {"image": image.tolist()})])
        assert threads["_scan"] == [loop]
        assert result["corners"] == [[int(r), int(c)] for r, c in corners]

    def test_other_tasks_run_between_loop_run_jobs(self):
        """A loop-run job holds the loop for one step of the handler that
        submitted it, never more: with requests arriving in successive
        loop turns, as reads on three connections would, other tasks
        (HTTP handlers, health checks) get the loop between two jobs."""
        rng = np.random.default_rng(8)
        images = [rng.uniform(0.0, 255.0, size=(10, 10)).tolist()
                  for _ in range(3)]

        async def body(service):
            events = []

            async def handler(turn, image):
                for _ in range(turn + 1):    # the request arriving
                    await asyncio.sleep(0)
                job = service.submit("detect", {"image": image})
                assert job.state == DONE
                events.append("job")

            async def ticker():
                while events.count("job") < len(images):
                    events.append("tick")
                    await asyncio.sleep(0)

            await asyncio.gather(ticker(), *(handler(turn, image)
                                             for turn, image
                                             in enumerate(images)))
            return events

        events = run_service_test(body, cache=False, job_concurrency=1)
        assert events.count("job") == 3
        assert ["job", "job"] not in [events[i:i + 2]
                                      for i in range(len(events) - 1)]

    def test_larger_detect_runs_on_a_kernel_thread(self, threads):
        # 39x39 has 1,089 interior pixels: two chunks
        image = np.random.default_rng(39).uniform(0.0, 255.0, size=(39, 39))
        corners = OscillatorFastDetector().detect(image)
        threads.clear()
        _loop, (result,), _batched = self._serve(
            [("detect", {"image": image.tolist()})])
        assert len(threads["_scan"]) == 2
        assert all(name.startswith("repro-serve")
                   for name in threads["_scan"])
        assert result["corners"] == [[int(r), int(c)] for r, c in corners]

    def test_unbounded_kernels_run_on_a_kernel_thread(self, threads):
        self._serve([
            ("distance", {"pairs": [[1.0, 2.0]], "mode": "physical"}),
            ("solve", {"dimacs": TestResultStore.DIMACS, "attempts": 2,
                       "max_steps": 20000}),
            ("factor", {"n": 15, "seed": 1}),
        ])
        for name in ("measure_batch", "solve_portfolio", "shor_factor"):
            assert threads[name], name
            assert all(thread.startswith("repro-serve")
                       for thread in threads[name]), (name, threads[name])


class TestRunAtSubmit:
    """A bounded job runs to completion inside ``submit``: it never
    waits behind kernel-thread jobs, and whatever its kernel or the
    store does, ``submit`` returns it settled and raises nothing."""

    DETECT_IMAGE = np.random.default_rng(10).uniform(0.0, 255.0,
                                                     size=(10, 10))
    PAIRS = np.random.default_rng(64).uniform(0.0, 255.0, size=(64, 2))

    def test_bounded_requests_do_not_wait_behind_held_dispatchers(
            self, monkeypatch):
        """Both dispatchers hold a solve blocked on an event; a distance
        and a detect request submitted behind them are done, with the
        library's answers, when ``submit`` returns."""
        release = threading.Event()
        real = solver.solve_portfolio

        def held(*args, **kwargs):
            if not release.wait(timeout=60):
                raise RuntimeError("the test never released the solves")
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_portfolio", held)

        async def body(service):
            solves = [service.submit("solve", {
                "dimacs": TestResultStore.DIMACS, "attempts": 1,
                "max_steps": 20000, "seed": seed}) for seed in (1, 2)]
            try:
                for _ in range(1000):
                    if all(job.state == RUNNING for job in solves):
                        break
                    await asyncio.sleep(0.001)
                assert [job.state for job in solves] == [RUNNING] * 2
                distance = service.submit("distance",
                                          {"pairs": self.PAIRS.tolist()})
                detect = service.submit(
                    "detect", {"image": self.DETECT_IMAGE.tolist()})
                assert [distance.state, detect.state] == [DONE, DONE]
                assert [job.state for job in solves] == [RUNNING] * 2
            finally:
                release.set()
            await asyncio.wait_for(
                asyncio.gather(*(job.future for job in solves)), 60)
            assert [job.state for job in solves] == [DONE, DONE], \
                [job.error for job in solves]
            return distance.result, detect.result

        distance, detect = run_service_test(body, cache=False,
                                            job_concurrency=2)
        assert distance["measures"] \
            == OscillatorDistanceUnit().measure_pairs(self.PAIRS)
        corners = OscillatorFastDetector().detect(self.DETECT_IMAGE)
        assert detect["corners"] == [[int(r), int(c)] for r, c in corners]

    def test_kernel_error_settles_the_job_failed(self, monkeypatch):
        def broken(unit, a, b):
            raise FloatingPointError("kernel fault")

        monkeypatch.setattr(OscillatorDistanceUnit, "measure_batch", broken)

        async def body(service):
            job = service.submit("distance", {"pairs": [[1.0, 2.0]]})
            alive = [not task.done() for task in service._dispatchers]
            return job, alive, service.stats()

        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            job, alive, stats = run_service_test(body)
        assert job.state == FAILED and job.future.done()
        assert job.error == "FloatingPointError: kernel fault"
        assert alive and all(alive)
        assert (stats["executions"], stats["failed"]) == (1, 1)
        # The failure is not stored: a retry would run the kernel again.
        assert registry.counter("cache.stores").value == 0
        assert registry.snapshot()["serve.dispatch.seconds"]["count"] == 1

    def test_unwritable_store_settles_the_job_done(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")

        async def body(service):
            job = service.submit("distance", {"pairs": self.PAIRS.tolist()})
            alive = [not task.done() for task in service._dispatchers]
            return job, alive

        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            job, alive = run_service_test(
                body, cache=ResultCache(cache_dir=str(blocker / "store")))
        assert job.state == DONE and job.future.done()
        assert job.result["measures"] \
            == OscillatorDistanceUnit().measure_pairs(self.PAIRS)
        assert alive and all(alive)
        assert registry.snapshot()["cache.store_errors"]["value"] >= 1


class TestWorkCounts:
    """Serve's default ``retries=2`` sends every kernel-thread call down
    the chunked path; the chunked path runs only the work the answer
    reads, and order finding stops at its first usable reading.  A
    distance request and a small detect request run on the event loop,
    inline, and run no chunk at all."""

    @staticmethod
    def _serve(kind, params):
        """``(registry, result)`` of one request served with no store."""
        async def body(service):
            job = service.submit(kind, params)
            await job.future
            assert job.state == DONE
            return job.result

        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            result = run_service_test(body, cache=False)
        return registry, result

    @classmethod
    def _grew(cls, counter, kind, params):
        registry, _result = cls._serve(kind, params)
        return registry.counter(counter).value

    def test_distance_request_runs_no_chunk(self):
        pairs = np.random.default_rng(4).uniform(0.0, 255.0, size=(64, 2))
        registry, result = self._serve("distance", {"pairs": pairs.tolist()})
        assert registry.counter("parallel.tasks").value == 0
        assert result["measures"] \
            == OscillatorDistanceUnit().measure_pairs(pairs)

    def test_detect_request_runs_no_chunk(self):
        image = np.random.default_rng(5).uniform(0.0, 255.0, size=(10, 10))
        registry, result = self._serve("detect", {"image": image.tolist()})
        assert registry.counter("parallel.tasks").value == 0
        corners = OscillatorFastDetector().detect(image)
        assert result["corners"] == [[int(r), int(c)] for r, c in corners]

    def test_factor_request_stops_at_first_usable_reading(self):
        # seed 3 tries one base (11) through order finding; its second
        # phase reading is the first usable one
        assert self._grew("quantum.shor.order_finding_attempts", "factor",
                          {"n": 15, "seed": 3}) == 2
