"""Stdlib-asyncio HTTP front end for the ``repro serve`` job service.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` --
no web framework, because the repo's only runtime dependency is numpy.
It speaks just enough HTTP for job submission and polling:

* ``POST /v1/jobs`` -- submit ``{"kind", "params", "tenant"?,
  "priority"?, "wait"?}``.  Returns 200 with the finished document when
  the job finished at submission (a bounded kernel, a store hit) or
  within ``wait`` seconds, else 202 with the job document.  400 on
  validation errors (a non-finite ``wait`` included), 429 (with
  ``Retry-After``) on backpressure.
* ``GET /v1/jobs/<id>`` -- job status; ``?wait=SECONDS`` long-polls
  until completion or the deadline.  404 for unknown ids.
* ``GET /v1/healthz`` -- liveness.
* ``GET /v1/metrics`` -- the telemetry registry snapshot.
* ``GET /v1/stats`` -- service counters (requests, coalesced, ...).

Connections are keep-alive; bodies are JSON and capped at
``MAX_BODY_BYTES`` (413 beyond it).  All handling runs on the service's
single event loop -- kernels that can run long run in the service's
thread pool, so slow jobs never block new connections; only kernels
the request caps bound to a few milliseconds run on the loop, inside
the handler that received the request.

Every request is minted a ``trace_id`` before routing; it flows through
``submit()`` into the job, its execution, and the worker pool, and the
request's handling itself is recorded as a ``serve.http`` span under
the same id (see ``docs/observability.md``).
"""

import asyncio
import json
import math
import time

from ..core import telemetry, tracing
from ..core.exceptions import (
    JobValidationError,
    QueueFullError,
    QuotaError,
    ReproError,
)
from .service import JobService

#: Request-body cap; large enough for MAX_IMAGE_PIXELS / MAX_PAIRS
#: payloads with JSON overhead, small enough to bound per-request RAM.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Upper bound on ``wait`` long-polls so one client cannot pin a
#: connection (and its job-table entry) forever.
MAX_WAIT_SECONDS = 300.0

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error"}


class _HttpError(Exception):
    """Routed straight to an error response; never escapes the app."""

    def __init__(self, status, message, retry_after=None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class ServeApp:
    """Bind a :class:`~repro.serve.service.JobService` to a TCP port."""

    def __init__(self, service=None, host="127.0.0.1", port=8080):
        self.service = service if service is not None else JobService()
        self.host = host
        self.port = port
        self._server = None
        self._writers = set()

    async def start(self):
        """Start the service and begin accepting connections.

        With ``port=0`` the kernel picks a free port; read the bound
        one back from :attr:`port` (how the tests avoid collisions).
        """
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self, grace=1.0):
        """Stop accepting, shut the service down, reap connections.

        Ordered so an in-flight long-poll resolves instead of
        deadlocking: the listener closes first (no new work), then the
        service -- failing queued jobs resolves their futures, which is
        what answers pending long-polls -- and only then are connection
        handlers waited for.  The wait is bounded by ``grace`` because
        idle keep-alive clients hold their connections open
        indefinitely (and Python 3.12's ``Server.wait_closed`` waits
        for every handler); past the grace they are disconnected.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        await self.service.close()
        if server is not None:
            try:
                await asyncio.wait_for(server.wait_closed(), grace)
            except asyncio.TimeoutError:
                pass
        # Handlers woken by the futures the service just resolved need
        # a scheduling turn to write their responses (wait_closed does
        # not provide one before Python 3.12).
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        for writer in list(self._writers):
            writer.close()

    async def serve_forever(self):
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer):
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    # Parse errors lose request framing; answer and
                    # drop the connection rather than guess at resync.
                    await self._respond(writer, error.status,
                                        {"error": error.message})
                    break
                if request is None:
                    break
                method, path, body = request
                trace_id = tracing.new_trace_id()
                start_ts = time.time()
                start_perf = time.perf_counter()
                status = None
                try:
                    status, payload = await self._route(method, path, body,
                                                        trace_id)
                    await self._respond(writer, status, payload)
                except _HttpError as error:
                    status = error.status
                    extra = {}
                    if error.retry_after is not None:
                        extra["Retry-After"] = str(error.retry_after)
                    await self._respond(writer, error.status,
                                        {"error": error.message}, extra)
                except Exception as error:  # noqa: BLE001 -- keep serving
                    status = 500
                    await self._respond(
                        writer, 500,
                        {"error": "%s: %s" % (type(error).__name__, error)})
                finally:
                    self._emit_http_span(trace_id, method, path, status,
                                         start_ts, start_perf)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels live keep-alive handlers; ending
            # the task quietly avoids asyncio's "exception in callback"
            # log for a connection that is being torn down anyway.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader):
        """One parsed request ``(method, path, body)``; None on EOF."""
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request headers too large") from None
        head, *header_lines = header_blob.decode(
            "latin-1").split("\r\n")
        parts = head.split(" ")
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, path, _version = parts
        content_length = 0
        for line in header_lines:
            if line.lower().startswith("content-length:"):
                try:
                    content_length = int(line.split(":", 1)[1].strip())
                except ValueError:
                    content_length = -1
                if content_length < 0:
                    raise _HttpError(400, "malformed Content-Length")
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body exceeds %d bytes"
                             % MAX_BODY_BYTES)
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        return method, path, body

    def _emit_http_span(self, trace_id, method, path, status, start_ts,
                        start_perf):
        """Span event for one request's HTTP handling, under its trace.

        Built by hand rather than with a stack span: request handling
        straddles ``await``s, so concurrent connections' spans would
        corrupt a real per-thread span stack.
        """
        registry = telemetry.get_registry()
        if not registry.enabled:
            return
        duration = time.perf_counter() - start_perf
        registry.histogram("serve.http.seconds").observe(duration)
        registry.emit({
            "type": "span",
            "name": "serve.http",
            "ts": start_ts,
            "duration_s": duration,
            "depth": 0,
            "parent": None,
            "status": "ok" if status is not None and status < 500
            else "error",
            "trace": trace_id,
            "attrs": {"method": method, "path": path, "status": status},
        })

    async def _respond(self, writer, status, payload, extra_headers=None):
        body = json.dumps(payload).encode()
        headers = ["HTTP/1.1 %d %s" % (status,
                                       _REASONS.get(status, "Unknown")),
                   "Content-Type: application/json",
                   "Content-Length: %d" % len(body),
                   "Connection: keep-alive"]
        for name, value in (extra_headers or {}).items():
            headers.append("%s: %s" % (name, value))
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + body)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _route(self, method, path, body, trace_id):
        path, _, query = path.partition("?")
        if path == "/v1/jobs":
            if method != "POST":
                raise _HttpError(405, "use POST to submit jobs")
            return await self._submit(body, trace_id)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise _HttpError(405, "use GET to poll jobs")
            return await self._poll(path[len("/v1/jobs/"):], query)
        if method != "GET":
            raise _HttpError(405, "unsupported method %s" % method)
        if path == "/v1/healthz":
            return 200, {"status": "ok"}
        if path == "/v1/metrics":
            return 200, telemetry.get_registry().snapshot()
        if path == "/v1/stats":
            return 200, self.service.stats()
        raise _HttpError(404, "unknown path %r" % path)

    async def _submit(self, body, trace_id):
        try:
            request = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, "request body is not valid JSON: %s"
                             % error) from None
        if not isinstance(request, dict):
            raise _HttpError(400, "request body must be a JSON object")
        wait = self._wait_value(request.get("wait"))
        try:
            job = self.service.submit(
                request.get("kind"), request.get("params", {}),
                tenant=request.get("tenant", "anon"),
                priority=request.get("priority"),
                trace_id=trace_id)
        except JobValidationError as error:
            raise _HttpError(400, str(error)) from None
        except (QueueFullError, QuotaError) as error:
            raise _HttpError(429, str(error), retry_after=1) from None
        if wait and not job.finished:
            await self._await_job(job, wait)
        return (200 if job.finished else 202), job.describe()

    async def _poll(self, job_id, query):
        job = self.service.table.get(job_id)
        if job is None:
            raise _HttpError(404, "unknown job %r" % job_id)
        wait = None
        for param in query.split("&"):
            name, _, value = param.partition("=")
            if name == "wait":
                wait = self._wait_value(value)
        if wait and not job.finished:
            await self._await_job(job, wait)
        return 200, job.describe()

    @staticmethod
    def _wait_value(raw):
        if raw in (None, "", False):
            return None
        try:
            wait = float(raw)
        except (TypeError, ValueError, OverflowError):
            wait = math.nan
        if not math.isfinite(wait):
            # NaN would reach wait_for as a NaN deadline.
            raise _HttpError(400, "'wait' must be a finite number of "
                             "seconds")
        if wait <= 0:
            return None
        return min(wait, MAX_WAIT_SECONDS)

    @staticmethod
    async def _await_job(job, wait):
        # shield(): a long-poll timeout must not cancel the job future
        # other waiters (and the dispatcher) still rely on.
        try:
            await asyncio.wait_for(asyncio.shield(job.future), wait)
        except asyncio.TimeoutError:
            pass


async def run_app(config=None, host="127.0.0.1", port=8080,
                  on_start=None):
    """Run a service until cancelled (the CLI entry point's core)."""
    app = ServeApp(JobService(config), host=host, port=port)
    await app.start()
    if on_start is not None:
        on_start(app)
    try:
        await app.serve_forever()
    except asyncio.CancelledError:
        raise
    finally:
        await app.close()


__all__ = ["ServeApp", "run_app", "MAX_BODY_BYTES", "MAX_WAIT_SECONDS"]
