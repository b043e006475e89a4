"""Observability of the serving stack: end-to-end trace propagation
and the serving metrics -- and the acceptance criterion that one HTTP
request produces a single Chrome trace whose HTTP / admission /
dispatch / worker-chunk spans all share the request's ``trace_id``.
"""

import asyncio
import contextlib
import os

from repro.core import telemetry, tracing
from repro.serve import JobService, ServeConfig

from .test_app import _request, running_app


@contextlib.contextmanager
def _live_registry():
    registry = telemetry.MetricsRegistry()
    sink = registry.add_sink(tracing.ListSink())
    with telemetry.use_registry(registry):
        yield registry, sink


class TestTraceContinuity:
    def test_one_request_one_trace_across_processes(self, capsys):
        """The tentpole acceptance test: a detect request served with
        two worker processes yields serve.http, serve.admission,
        serve.dispatch and parallel.chunk span events that all carry
        the same trace id, and the Chrome export preserves it in every
        event's args -- one request, one trace, across processes.  A
        40x40 image has 1,156 interior pixels: past one chunk, so it
        runs on a kernel thread and its two chunks go to the pool.
        """
        image = [[float((r * 31 + c * 7) % 97) for c in range(40)]
                 for r in range(40)]
        with _live_registry() as (registry, sink):
            async def body():
                async with running_app(workers=2, timeout=30) as app:
                    status, _, doc = await _request(
                        app.port, "POST", "/v1/jobs",
                        {"kind": "detect", "params": {"image": image},
                         "wait": 30})
                    assert status == 200 and doc["state"] == "done"
                    return doc

            doc = asyncio.run(body())
        trace_id = doc["trace_id"]
        assert trace_id
        spans = [event for event in sink.events
                 if event.get("type") == "span"]
        by_name = {}
        for event in spans:
            by_name.setdefault(event["name"], []).append(event)
        for name in ("serve.http", "serve.admission", "serve.dispatch",
                     "parallel.chunk"):
            assert name in by_name, "missing span %r" % name
            traced = [event for event in by_name[name]
                      if event.get("trace") == trace_id]
            assert traced, "no %r span carries trace %s" % (name,
                                                            trace_id)
        # the worker chunks really ran out-of-process
        chunk = [event for event in by_name["parallel.chunk"]
                 if event.get("trace") == trace_id]
        assert any(event.get("pid") != os.getpid() for event in chunk)
        # Chrome export: every event of this request carries the trace
        # in args, so Perfetto can filter one request's full life
        chrome = tracing.chrome_trace_events(sink.events)
        traced_names = {event["name"] for event in chrome
                        if event.get("args", {}).get("trace") == trace_id}
        for name in ("serve.http", "serve.admission", "serve.dispatch",
                     "parallel.chunk"):
            assert name in traced_names
        # serving stack stays silent on the process streams
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_two_requests_two_traces(self):
        with _live_registry() as (_registry, sink):
            async def body():
                async with running_app(workers=1) as app:
                    docs = []
                    for value in (1.0, 2.0):
                        _status, _, doc = await _request(
                            app.port, "POST", "/v1/jobs",
                            {"kind": "distance",
                             "params": {"pairs": [[value, 5.0]]},
                             "wait": 30})
                        docs.append(doc)
                    return docs

            docs = asyncio.run(body())
        first, second = (doc["trace_id"] for doc in docs)
        assert first != second
        http_spans = [event for event in sink.events
                      if event.get("type") == "span"
                      and event["name"] == "serve.http"
                      and event["attrs"].get("path") == "/v1/jobs"]
        assert {event["trace"] for event in http_spans} \
            == {first, second}

    def test_coalesced_follower_records_primary_trace(self):
        async def body():
            service = JobService(ServeConfig(workers=1, cache=False))
            await service.start()
            try:
                params = {"n": 21}
                lead = service.submit("factor", dict(params))
                follower = service.submit("factor", dict(params))
                assert follower.coalesced_with == lead.id
                assert follower.joined_trace == lead.trace_id
                assert follower.trace_id != lead.trace_id
                await asyncio.gather(lead.future, follower.future)
                assert follower.describe()["joined_trace"] \
                    == lead.trace_id
            finally:
                await service.close()

        asyncio.run(body())

    def test_cache_layer_spans_carry_the_request_trace(self):
        with _live_registry() as (_registry, sink):
            async def body():
                service = JobService(ServeConfig(workers=1))
                await service.start()
                try:
                    job = service.submit("distance",
                                         {"pairs": [[1.0, 2.0]]})
                    await job.future
                    return job.trace_id
                finally:
                    await service.close()

            trace_id = asyncio.run(body())
        traced = {event["name"] for event in sink.events
                  if event.get("type") == "span"
                  and event.get("trace") == trace_id}
        assert {"cache.fingerprint", "cache.lookup",
                "cache.store"} <= traced

    def test_submit_mints_trace_when_caller_has_none(self):
        async def body():
            service = JobService(ServeConfig(workers=1))
            await service.start()
            try:
                job = service.submit("distance",
                                     {"pairs": [[1.0, 2.0]]})
                assert job.trace_id
                explicit = service.submit(
                    "distance", {"pairs": [[9.0, 2.0]]},
                    trace_id="feedbeef00000001")
                assert explicit.trace_id == "feedbeef00000001"
                await asyncio.gather(job.future, explicit.future)
            finally:
                await service.close()

        asyncio.run(body())


class TestLabeledServeMetrics:
    def test_series_are_sliced_by_name_only(self):
        """Per-kind series are plain names; per-tenant counts live in
        ``/v1/stats``.  No series carries a label set, and a histogram
        entry holds exactly its moments.
        """
        with _live_registry() as (registry, _sink):
            async def body():
                async with running_app(workers=1) as app:
                    for value in (1.0, 2.0):
                        await _request(
                            app.port, "POST", "/v1/jobs",
                            {"kind": "distance", "tenant": "acme",
                             "params": {"pairs": [[value, 5.0]]},
                             "wait": 30})

            asyncio.run(body())
            snapshot = registry.snapshot()
        assert snapshot["serve.requests"]["value"] == 2
        assert snapshot["serve.requests.distance"]["value"] == 2
        assert snapshot["serve.latency.distance"]["count"] == 2
        # a distance job run at submission goes through measure_pairs,
        # so the kernel's throughput series see its pairs
        assert snapshot["oscillator.distance.pairs_units"]["value"] == 2
        assert snapshot["oscillator.distance.pairs_per_s"]["count"] == 2
        assert not [name for name in snapshot if "{" in name]
        for entry in snapshot.values():
            if entry["kind"] == "histogram":
                assert set(entry) == {"kind", "count", "total", "sum_sq",
                                      "min", "max", "mean", "std"}

    def test_tenant_stats_in_stats_endpoint(self):
        async def body():
            async with running_app(workers=1) as app:
                await _request(
                    app.port, "POST", "/v1/jobs",
                    {"kind": "distance", "tenant": "acme",
                     "params": {"pairs": [[1.0, 2.0]]}, "wait": 30})
                _status, _, stats = await _request(app.port, "GET",
                                                   "/v1/stats")
                return stats

        stats = asyncio.run(body())
        assert stats["tenants"]["acme"]["requests"] == 1
        assert stats["tenants"]["acme"]["completed"] == 1
