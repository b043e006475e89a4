"""HTTP layer round-trips against a live ServeApp on an ephemeral port.

Each test runs a real asyncio TCP server (``port=0`` so the kernel
picks a free port) and speaks HTTP/1.1 over ``asyncio.open_connection``
-- no HTTP client library, matching the server's stdlib-only design.
"""

import asyncio
import contextlib
import json

import pytest

from repro.oscillators.distance import OscillatorDistanceUnit
from repro.serve import JobService, ServeApp, ServeConfig


async def _request(port, method, path, body=None, reuse=None):
    """One HTTP exchange; returns ``(status, headers, payload)``.

    Pass ``reuse=(reader, writer)`` to ride an existing keep-alive
    connection instead of opening a fresh one.
    """
    if reuse is None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    else:
        reader, writer = reuse
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write(("%s %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d"
                  "\r\n\r\n" % (method, path, len(payload))).encode()
                 + payload)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if value:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    doc = json.loads(await reader.readexactly(length)) if length else None
    if reuse is None:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()
    return status, headers, doc


@contextlib.asynccontextmanager
async def running_app(**config_kwargs):
    config_kwargs.setdefault("workers", 1)
    app = ServeApp(JobService(ServeConfig(**config_kwargs)), port=0)
    await app.start()
    try:
        yield app
    finally:
        await app.close()


class TestEndpoints:
    def test_health_metrics_stats(self):
        async def body():
            async with running_app() as app:
                status, _, doc = await _request(app.port, "GET",
                                                "/v1/healthz")
                assert (status, doc) == (200, {"status": "ok"})
                status, _, metrics = await _request(app.port, "GET",
                                                    "/v1/metrics")
                assert status == 200 and isinstance(metrics, dict)
                status, _, stats = await _request(app.port, "GET",
                                                  "/v1/stats")
                assert status == 200 and stats["requests"] == 0

        asyncio.run(body())

    def test_metrics_is_json_whatever_the_query(self):
        async def body():
            async with running_app() as app:
                status, headers, metrics = await _request(
                    app.port, "GET", "/v1/metrics?format=prometheus")
                assert status == 200
                assert headers["content-type"] == "application/json"
                assert isinstance(metrics, dict)

        asyncio.run(body())

    def test_submit_wait_returns_finished_job(self):
        async def body():
            async with running_app() as app:
                status, _, doc = await _request(
                    app.port, "POST", "/v1/jobs",
                    {"kind": "distance",
                     "params": {"pairs": [[1.0, 2.0]]}, "wait": 30})
                assert status == 200
                assert doc["state"] == "done"
                assert len(doc["result"]["measures"]) == 1

        asyncio.run(body())

    def test_bounded_request_without_wait_is_answered_200(self):
        """A bounded job runs at submission, so even without ``wait``
        the answer is the finished document."""
        async def body():
            async with running_app() as app:
                status, _, doc = await _request(
                    app.port, "POST", "/v1/jobs",
                    {"kind": "distance", "params": {"pairs": [[1.0, 2.0]]}})
                assert status == 200 and doc["state"] == "done"
                assert doc["result"]["measures"] \
                    == OscillatorDistanceUnit().measure_pairs([[1.0, 2.0]])

        asyncio.run(body())

    def test_failing_bounded_kernel_is_200_failed(self, monkeypatch):
        def broken(unit, a, b):
            raise FloatingPointError("kernel fault")

        monkeypatch.setattr(OscillatorDistanceUnit, "measure_batch", broken)

        async def body():
            async with running_app() as app:
                status, _, doc = await _request(
                    app.port, "POST", "/v1/jobs",
                    {"kind": "distance", "params": {"pairs": [[1.0, 2.0]]},
                     "wait": 30})
                assert status == 200 and doc["state"] == "failed"
                assert "kernel fault" in doc["error"]
                # The connection handler and the service keep serving.
                status, _, _doc = await _request(app.port, "GET",
                                                 "/v1/healthz")
                assert status == 200
                assert all(not task.done()
                           for task in app.service._dispatchers)

        asyncio.run(body())

    def test_submit_then_long_poll(self):
        async def body():
            async with running_app() as app:
                status, _, doc = await _request(
                    app.port, "POST", "/v1/jobs",
                    {"kind": "factor", "params": {"n": 21}})
                assert status == 202 and doc["state"] in ("queued",
                                                          "running")
                status, _, final = await _request(
                    app.port, "GET", "/v1/jobs/%s?wait=30" % doc["id"])
                assert status == 200 and final["state"] == "done"
                assert final["result"]["factors"] == [3, 7]

        asyncio.run(body())

    def test_keep_alive_serves_multiple_requests(self):
        async def body():
            async with running_app() as app:
                conn = await asyncio.open_connection("127.0.0.1",
                                                     app.port)
                try:
                    for _ in range(3):
                        status, _, doc = await _request(
                            app.port, "GET", "/v1/healthz", reuse=conn)
                        assert status == 200 and doc["status"] == "ok"
                finally:
                    conn[1].close()

        asyncio.run(body())

    def test_identical_concurrent_http_requests_one_execution(self):
        async def body():
            async with running_app() as app:
                request = {"kind": "distance",
                           "params": {"pairs": [[2.0, 3.0], [4.0, 5.0]]},
                           "wait": 30}
                responses = await asyncio.gather(*(
                    _request(app.port, "POST", "/v1/jobs", request)
                    for _ in range(6)))
                measures = [doc["result"]["measures"]
                            for status, _, doc in responses]
                assert all(status == 200 for status, _, _ in responses)
                assert all(m == measures[0] for m in measures)
                _, _, stats = await _request(app.port, "GET", "/v1/stats")
                # However the six submissions interleaved with dispatch,
                # exactly one kernel execution happened; everyone else
                # coalesced onto it or replayed the stored result.
                assert stats["executions"] == 1
                assert stats["coalesced"] + stats["cache_hits"] == 5

        asyncio.run(body())


class TestErrors:
    def test_validation_error_is_400(self):
        async def body():
            async with running_app() as app:
                status, _, doc = await _request(
                    app.port, "POST", "/v1/jobs",
                    {"kind": "factor", "params": {"n": 2}})
                assert status == 400 and "must be in [4," in doc["error"]
                # above the cap, order finding would not finish in time
                status, _, doc = await _request(
                    app.port, "POST", "/v1/jobs",
                    {"kind": "factor", "params": {"n": 65}})
                assert status == 400 and "[4, 64]" in doc["error"]
                status, _, doc = await _request(
                    app.port, "POST", "/v1/jobs", {"kind": "nope"})
                assert status == 400

        asyncio.run(body())

    def test_non_finite_or_overflowing_values_are_400(self):
        """Python's json reads NaN and Infinity, and an integer too
        large for a float overflows the conversion: each is a 400,
        never a NaN in the response body or a 500."""
        requests = (
            {"kind": "distance",
             "params": {"pairs": [[float("nan"), 1.0], [2.0, 3.0]]}},
            {"kind": "detect", "params": {"image": [[10**400] * 8] * 8}},
            {"kind": "detect", "params": {"image": [[1.0] * 8] * 8,
                                          "threshold": float("inf")}},
        )

        async def body():
            async with running_app() as app:
                for request in requests:
                    status, _, doc = await _request(
                        app.port, "POST", "/v1/jobs",
                        dict(request, wait=30))
                    assert status == 400, doc
                    assert "finite" in doc["error"]

        asyncio.run(body())

    @pytest.mark.parametrize("wait", [float("nan"), float("inf"),
                                      10**400], ids=["nan", "inf",
                                                     "int-1e400"])
    def test_non_finite_wait_in_body_is_400(self, wait):
        """``"wait": NaN`` would become a NaN deadline, whose timer fires
        whenever the loop's timer heap lets it."""
        async def body():
            async with running_app() as app:
                status, _, doc = await _request(
                    app.port, "POST", "/v1/jobs",
                    {"kind": "distance", "params": {"pairs": [[1.0, 2.0]]},
                     "wait": wait})
                assert status == 400, doc
                assert "'wait' must be a finite number" in doc["error"]
                _, _, stats = await _request(app.port, "GET", "/v1/stats")
                assert stats["requests"] == 0

        asyncio.run(body())

    @pytest.mark.parametrize("wait", ["nan", "inf", "-inf"])
    def test_non_finite_wait_in_poll_query_is_400(self, wait):
        async def body():
            async with running_app() as app:
                _, _, doc = await _request(
                    app.port, "POST", "/v1/jobs",
                    {"kind": "distance", "params": {"pairs": [[1.0, 2.0]]}})
                status, _, error = await _request(
                    app.port, "GET",
                    "/v1/jobs/%s?wait=%s" % (doc["id"], wait))
                assert status == 400, error
                assert "'wait' must be a finite number" in error["error"]

        asyncio.run(body())

    def test_unknown_job_is_404_and_bad_method_405(self):
        async def body():
            async with running_app() as app:
                status, _, _doc = await _request(app.port, "GET",
                                                 "/v1/jobs/job-999999")
                assert status == 404
                status, _, _doc = await _request(app.port, "GET",
                                                 "/v1/jobs")
                assert status == 405
                status, _, _doc = await _request(app.port, "POST",
                                                 "/v1/healthz", {})
                assert status == 405
                status, _, _doc = await _request(app.port, "GET",
                                                 "/v1/nothing")
                assert status == 404
                status, _, _doc = await _request(app.port, "GET",
                                                 "/v1/slo")
                assert status == 404

        asyncio.run(body())

    def test_malformed_json_is_400(self):
        async def body():
            async with running_app() as app:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", app.port)
                writer.write(b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: 5\r\n\r\n{oops")
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b" 400 " in head.split(b"\r\n")[0]
                writer.close()

        asyncio.run(body())

    def test_negative_content_length_is_400(self):
        async def body():
            async with running_app() as app:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", app.port)
                writer.write(b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: -5\r\n\r\n")
                await writer.drain()
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), 10.0)
                assert b" 400 " in head.split(b"\r\n")[0]
                writer.close()

        asyncio.run(body())

    def test_oversized_body_is_413(self):
        async def body():
            async with running_app() as app:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", app.port)
                writer.write(b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: 999999999\r\n\r\n")
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b" 413 " in head.split(b"\r\n")[0]
                writer.close()

        asyncio.run(body())

    def test_backpressure_is_429_with_retry_after(self):
        async def body():
            async with running_app(queue_depth=1) as app:
                # Park the dispatchers so admitted jobs stay queued and
                # the depth bound is what answers the second request.
                service = app.service
                for task in service._dispatchers:
                    task.cancel()
                await asyncio.gather(*service._dispatchers,
                                     return_exceptions=True)
                service._dispatchers = []
                status, _, _doc = await _request(
                    app.port, "POST", "/v1/jobs",
                    {"kind": "factor", "params": {"n": 15}})
                assert status == 202
                status, headers, doc = await _request(
                    app.port, "POST", "/v1/jobs",
                    {"kind": "factor", "params": {"n": 21}})
                assert status == 429
                assert headers.get("retry-after") == "1"
                assert "queue is full" in doc["error"]

        asyncio.run(body())


class TestShutdown:
    def test_long_poll_resolves_during_shutdown(self):
        """A client parked on ``?wait=`` when the app closes gets an
        answer -- the failed-by-shutdown job document -- rather than a
        dropped connection, and ``close()`` itself returns instead of
        deadlocking on the handler it would otherwise wait for.
        """
        async def body():
            app = ServeApp(JobService(ServeConfig(workers=1)), port=0)
            await app.start()
            service = app.service
            # Park the dispatchers so the job stays queued; its future
            # then only resolves through the shutdown path.
            for task in service._dispatchers:
                task.cancel()
            await asyncio.gather(*service._dispatchers,
                                 return_exceptions=True)
            service._dispatchers = []
            status, _, doc = await _request(
                app.port, "POST", "/v1/jobs",
                {"kind": "factor", "params": {"n": 21}})
            assert status == 202 and doc["state"] == "queued"
            conn = await asyncio.open_connection("127.0.0.1", app.port)
            try:
                poll = asyncio.create_task(_request(
                    app.port, "GET", "/v1/jobs/%s?wait=30" % doc["id"],
                    reuse=conn))
                await asyncio.sleep(0.1)
                assert not poll.done()  # genuinely parked on the future
                await asyncio.wait_for(app.close(), 10.0)
                status, _, final = await asyncio.wait_for(poll, 5.0)
            finally:
                conn[1].close()
            assert status == 200
            assert final["state"] == "failed"
            assert "shut down" in final["error"]

        asyncio.run(body())

    def test_close_reaps_idle_keep_alive_connections(self):
        """An idle keep-alive client must not wedge ``close()``."""
        async def body():
            app = ServeApp(JobService(ServeConfig(workers=1)), port=0)
            await app.start()
            conn = await asyncio.open_connection("127.0.0.1", app.port)
            try:
                status, _, doc = await _request(app.port, "GET",
                                                "/v1/healthz", reuse=conn)
                assert status == 200 and doc["status"] == "ok"
                # The client now just sits on the open connection.
                await asyncio.wait_for(app.close(grace=0.2), 10.0)
                # The server side hung up on it.
                assert await conn[0].read(1) == b""
            finally:
                conn[1].close()

        asyncio.run(body())
