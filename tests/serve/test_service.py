"""JobService behaviour: validation, coalescing, batching, admission.

Async tests drive the service on a private event loop via
``asyncio.run`` inside plain pytest functions (the suite has no async
plugin, by design -- the service itself must work from stock asyncio).
Submitting several jobs synchronously (no ``await`` between them)
lands them all before the dispatcher coroutines get a turn, which is
what makes the coalescing/batching/priority assertions deterministic.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.core import telemetry
from repro.core.cache import ResultCache
from repro.core.exceptions import (
    JobValidationError,
    QueueFullError,
    QuotaError,
)
from repro.oscillators.distance import OscillatorDistanceUnit
from repro.serve import JobService, ServeConfig, validate_request
from repro.serve.jobs import DONE, FAILED, JobTable


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


class TestCoalescing:
    def test_identical_concurrent_requests_one_execution(self):
        """The acceptance criterion: N identical concurrent requests ->
        exactly one kernel execution, proven by the ``serve.coalesced``
        and (on the later resubmission) ``cache.hits`` telemetry."""
        registry = telemetry.MetricsRegistry()
        params = {"pairs": [[1.0, 2.0], [2.0, 3.0]]}

        async def body(service):
            jobs = [service.submit("distance", params) for _ in range(5)]
            await asyncio.gather(*(job.future for job in jobs))
            results = [job.result["measures"] for job in jobs]
            assert all(r == results[0] for r in results)
            assert all(job.state == DONE for job in jobs)
            assert service.executions == 1
            # Followers name the primary whose execution they shared.
            assert jobs[0].coalesced_with is None
            assert all(job.coalesced_with == jobs[0].id
                       for job in jobs[1:])
            # A later identical request replays from the result store.
            replay = service.submit("distance", dict(params))
            assert replay.cached and replay.state == DONE
            assert replay.result["measures"] == results[0]
            assert service.executions == 1

        with telemetry.use_registry(registry):
            run_service_test(body)
        snapshot = registry.snapshot()
        assert snapshot["serve.requests"]["value"] == 6
        assert snapshot["serve.coalesced"]["value"] == 4
        assert snapshot["serve.cache_hits"]["value"] == 1
        assert snapshot["cache.hits"]["value"] >= 1
        assert snapshot["serve.executions"]["value"] == 1

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
    def test_compatible_distance_jobs_share_one_vectorized_call(self):
        pairs_a = [[1.0, 2.0], [3.0, 4.0]]
        pairs_b = [[5.0, 6.0]]

        async def body(service):
            job_a = service.submit("distance", {"pairs": pairs_a})
            job_b = service.submit("distance", {"pairs": pairs_b})
            await asyncio.gather(job_a.future, job_b.future)
            assert service.executions == 1
            assert service.batched == 1
            return (job_a.result["measures"], job_b.result["measures"])

        batched_a, batched_b = run_service_test(body, job_concurrency=1)
        unit = OscillatorDistanceUnit(mode="behavioral")
        assert batched_a == unit.measure_pairs(pairs_a)
        assert batched_b == unit.measure_pairs(pairs_b)

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

    def test_pair_budget_caps_the_merge(self):
        async def body(service):
            jobs = [service.submit("distance",
                                   {"pairs": [[float(i), float(i + 1)]]})
                    for i in range(4)]
            await asyncio.gather(*(job.future for job in jobs))
            # Budget of 2 pairs -> merges of at most 2 jobs here.
            assert service.executions == 2
            assert service.batched == 2

        run_service_test(body, job_concurrency=1, batch_pairs=2)


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
            for n in (15, 21, 33, 35, 39):
                job = service.submit("factor", {"n": n})
                await job.future
            assert len(service.table) == 2

        run_service_test(body, retention=2)


class TestJobTablePruning:
    """The retention contract at the table level: only *finished* jobs
    count against the cap, the oldest finished go first, and pruned ids
    stop resolving while live ones keep working.
    """

    def _table(self, retention, finished=0, live=0):
        table = JobTable(retention=retention)
        jobs = [table.create("factor", {"n": 15}, "t", 5,
                             "key-%d" % index, {})
                for index in range(finished + live)]
        for job in jobs[:finished]:
            job.state = DONE
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
        # Retention orders by creation, but only finished jobs are
        # candidates: an old job that finishes *after* younger ones
        # is still pruned first (creation order, not finish order).
        table, jobs = self._table(retention=1, live=3)
        jobs[2].state = DONE
        table.prune()
        assert len(table) == 3  # one finished, cap is one
        jobs[0].state = FAILED
        table.prune()
        assert table.get(jobs[0].id) is None
        assert table.get(jobs[2].id) is jobs[2]

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
            assert stats["requests"] == 1
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
        from repro.oscillators.fast.oscillator_fast import (
            OscillatorFastDetector,
        )
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
                      if name.endswith((".json", ".npz")))

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
