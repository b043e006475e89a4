"""Observability of the serving stack (PR 9): end-to-end trace
propagation, labeled serving metrics, the Prometheus exposition
endpoint, the SLO report, the flight recorder -- and the acceptance
criterion that one HTTP request produces a single Chrome trace whose
HTTP / admission / dispatch / worker-chunk spans all share the
request's ``trace_id``.
"""

import asyncio
import contextlib
import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import prom_lint  # noqa: E402

from repro.core import telemetry, tracing  # noqa: E402
from repro.serve import JobService, ServeApp, ServeConfig  # noqa: E402

from .test_app import _request, running_app  # noqa: E402


async def _request_raw(port, method, path):
    """Like test_app._request but returns the body as text (for the
    Prometheus exposition, which is not JSON)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(("%s %s HTTP/1.1\r\nHost: t\r\nContent-Length: 0"
                  "\r\n\r\n" % (method, path)).encode())
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if value:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    body = (await reader.readexactly(length)).decode() if length else ""
    writer.close()
    with contextlib.suppress(ConnectionError):
        await writer.wait_closed()
    return status, headers, body


@contextlib.contextmanager
def _live_registry():
    registry = telemetry.MetricsRegistry()
    sink = registry.add_sink(tracing.ListSink())
    with telemetry.use_registry(registry):
        yield registry, sink


class TestTraceContinuity:
    def test_one_request_one_trace_across_processes(self, capsys):
        """The tentpole acceptance test: a distance request served with
        two worker processes yields serve.http, serve.admission,
        serve.dispatch and parallel.chunk span events that all carry
        the same trace id, and the Chrome export preserves it in every
        event's args -- one request, one trace, across processes.
        """
        with _live_registry() as (registry, sink):
            async def body():
                async with running_app(workers=2) as app:
                    status, _, doc = await _request(
                        app.port, "POST", "/v1/jobs",
                        {"kind": "distance",
                         "params": {"pairs": [[1.0, 2.0], [3.0, 4.0],
                                              [5.0, 6.0], [7.0, 8.0]]},
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
                params = {"pairs": [[1.0, 2.0]]}
                lead = service.submit("distance", dict(params))
                follower = service.submit("distance", dict(params))
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
    def test_labeled_series_alongside_legacy(self):
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
        assert snapshot[
            "serve.requests{kind=distance,tenant=acme}"]["value"] == 2
        outcomes = snapshot[
            "serve.outcomes{kind=distance,outcome=ok,tenant=acme}"]
        assert outcomes["value"] == 2
        labeled_latency = snapshot[
            "serve.latency_seconds{kind=distance,tenant=acme}"]
        assert labeled_latency["count"] == 2
        assert labeled_latency["p95"] is not None

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


class TestPrometheusEndpoint:
    def test_exposition_passes_vendored_linter(self, capsys):
        with _live_registry():
            async def body():
                async with running_app(workers=1) as app:
                    await _request(
                        app.port, "POST", "/v1/jobs",
                        {"kind": "distance", "tenant": "acme",
                         "params": {"pairs": [[1.0, 2.0]]}, "wait": 30})
                    return await _request_raw(
                        app.port, "GET", "/v1/metrics?format=prometheus")

            status, headers, text = asyncio.run(body())
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert prom_lint.check_exposition(text) == []
        assert "serve_requests_total 1" in text
        assert 'serve_requests_total{kind="distance",tenant="acme"} 1' \
            in text
        assert 'serve_latency_seconds{kind="distance",tenant="acme",' \
               'quantile="0.95"}' in text
        # nothing leaked onto the process streams: the exposition is
        # response-body-only
        assert capsys.readouterr().out == ""

    def test_unknown_format_is_400_and_json_still_default(self):
        async def body():
            async with running_app(workers=1) as app:
                status, _, _ = await _request_raw(
                    app.port, "GET", "/v1/metrics?format=xml")
                assert status == 400
                status, _, doc = await _request(app.port, "GET",
                                                "/v1/metrics")
                assert status == 200 and isinstance(doc, dict)

        asyncio.run(body())


class TestSloEndpoint:
    def _spec(self, tmp_path, latency_ms):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"objectives": [
            {"name": "distance-latency", "kind": "distance",
             "latency_ms": latency_ms, "quantile": 0.95}]}))
        return str(path)

    def test_healthy_and_breached_reports(self, tmp_path):
        async def drive(slo_path):
            with _live_registry():
                async with running_app(workers=1,
                                       slo=slo_path) as app:
                    await _request(
                        app.port, "POST", "/v1/jobs",
                        {"kind": "distance",
                         "params": {"pairs": [[1.0, 2.0]]}, "wait": 30})
                    _status, _, report = await _request(app.port, "GET",
                                                        "/v1/slo")
                    return report

        healthy = asyncio.run(drive(self._spec(tmp_path, 60_000.0)))
        assert healthy["ok"] is True
        assert healthy["counts"] == {"total": 1, "breached": 0}
        breached = asyncio.run(drive(self._spec(tmp_path, 0.000001)))
        assert breached["ok"] is False
        entry = breached["objectives"][0]
        assert entry["latency"]["burn_rate"] > 1.0

    def test_no_spec_reports_trivially_ok(self):
        async def body():
            async with running_app(workers=1) as app:
                _status, _, report = await _request(app.port, "GET",
                                                    "/v1/slo")
                return report

        report = asyncio.run(body())
        assert report["ok"] is True
        assert report["counts"]["total"] == 0


class TestFlightRecorder:
    def test_job_failure_dumps_ring(self, tmp_path):
        flight_dir = str(tmp_path / "flight")
        with _live_registry():
            async def body():
                async with running_app(workers=1,
                                       flight_dir=flight_dir) as app:
                    # malformed DIMACS passes request validation (it is
                    # a non-empty string) but fails in the kernel, so
                    # the job genuinely fails at execution time
                    status, _, doc = await _request(
                        app.port, "POST", "/v1/jobs",
                        {"kind": "solve",
                         "params": {"dimacs": "p cnf not actually dimacs",
                                    "attempts": 1}, "wait": 30})
                    return status, doc

            status, doc = asyncio.run(body())
        assert doc["state"] == "failed"
        dumps = sorted(os.listdir(flight_dir))
        assert dumps, "flight recorder wrote no dump on job failure"
        with open(os.path.join(flight_dir, dumps[0])) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert lines[0]["type"] == "flight"
        assert lines[0]["reason"].startswith("job-failed-")
        assert len(lines) > 1  # the ring had events to dump
