"""A ``repro serve`` child process, and keep-alive HTTP clients for it."""

import asyncio
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
HTTP_TIMEOUT_S = 60.0


def child_env(src_dir):
    """The environment for the child: this checkout's sources, and no
    ``REPRO_*`` settings inherited from the caller's shell."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = src_dir
    return env


class ServeChild:
    """``python -m repro serve --port 0`` on loopback, torn down on stop().

    ``store`` is a directory for a disk-backed result store,
    ``"memory"`` for the server's default memory-only store, or ``None``
    for ``--no-cache``.  ``log_path`` receives the child's stderr.  Use
    as a context manager so the child is stopped even when the caller
    fails.
    """

    def __init__(self, src_dir, log_path, store=None):
        self.src_dir = src_dir
        self.log_path = log_path
        self.store = store
        self.process = None
        self.port = None
        self._log = None

    def start(self):
        """Spawn the child; returns seconds from spawn to first healthy
        ``GET /v1/healthz``."""
        argv = [sys.executable, "-u", "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0"]
        if self.store is None:
            argv.append("--no-cache")
        elif self.store != "memory":
            argv += ["--cache-dir", self.store]
        start = time.perf_counter()
        self._log = open(self.log_path, "ab")
        self.process = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._log, env=child_env(self.src_dir),
            start_new_session=True)
        self.port = self._read_port(start + START_TIMEOUT_S)
        client = Client(self.port)
        try:
            while True:
                try:
                    status, _ = client.get("/v1/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() > start + START_TIMEOUT_S:
                    raise RuntimeError("repro serve never became healthy")
                time.sleep(0.005)
        finally:
            client.close()
        return time.perf_counter() - start

    def _read_port(self, deadline):
        stream = self.process.stdout
        buffered = b""
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("repro serve exited with code %s; see %s"
                                   % (self.process.returncode,
                                      self.log_path))
            ready, _, _ = select.select([stream], [], [], 0.05)
            if not ready:
                continue
            chunk = os.read(stream.fileno(), 4096)
            buffered += chunk
            for line in buffered.split(b"\n")[:-1]:
                if line.startswith(b"repro serve listening on"):
                    return int(line.rsplit(b":", 1)[1])
        raise RuntimeError("repro serve did not report its port in time")

    def stop(self):
        """SIGINT (the server's clean shutdown), then kill if it lingers."""
        process, self.process = self.process, None
        if process is not None:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
                try:
                    process.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            process.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


class Client:
    """One keep-alive loopback connection speaking the serve JSON API."""

    def __init__(self, port):
        self.port = port
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=HTTP_TIMEOUT_S)

    def request(self, method, path, body=None):
        headers = {"Content-Type": "application/json"} if body else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        payload = response.read()
        return response.status, payload

    def get(self, path):
        status, payload = self.request("GET", path)
        return status, json.loads(payload) if payload else None

    def post_job(self, body):
        """``body`` is the encoded request; returns (status, job doc)."""
        status, payload = self.request("POST", "/v1/jobs", body)
        return status, json.loads(payload) if payload else None

    def close(self):
        self.connection.close()


class AsyncClient:
    """One keep-alive loopback connection for the load generator: a
    request is written whole and the response read by its
    Content-Length, which every ``repro serve`` response carries."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def post_job(self, body):
        """``body`` is the encoded request; returns (status, raw body)."""
        self.writer.write(b"POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          b"Content-Type: application/json\r\n"
                          b"Content-Length: %d\r\n\r\n%s"
                          % (len(body), body))
        return await asyncio.wait_for(self._response(), HTTP_TIMEOUT_S)

    async def _response(self):
        try:
            head = await self.reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            raise EOFError("connection closed") from error
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        try:
            return status, await self.reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise EOFError("connection closed") from error

    def close(self):
        self.writer.close()


def job_body(kind, params, wait=60):
    """The encoded ``POST /v1/jobs`` body for one request."""
    return json.dumps({"kind": kind, "params": params,
                       "wait": wait}).encode()
