"""Nestable timed spans and pluggable trace sinks.

A *span* measures one timed region (a DMM solve, a compiler pass, a
kernel execution).  Spans nest through a per-thread stack, survive
exceptions (the span closes with ``status="error"`` and re-raises), and
on close both

* observe their duration into the histogram ``<name>.seconds`` on the
  active registry, and
* emit a JSON-friendly event dict to the registry's sinks.

Three sinks cover the observability edges:

* :class:`JsonlSink` -- appends one JSON object per line to a file; the
  format behind the CLI's ``--trace out.jsonl``.
* :class:`ListSink` -- buffers events in memory; parallel workers ship
  theirs back to the parent process with their results.
* :class:`NullSink` -- swallows events; useful to keep a registry's
  metric side live while silencing its trace side.

When telemetry is disabled (the default), :func:`span` returns a shared
no-op context manager, so an instrumented region pays two attribute
lookups and no clock read.

Spans and events additionally carry a **trace id** when one is active:
:func:`new_trace_id` mints one, :func:`use_trace` installs it on the
current context (a :class:`contextvars.ContextVar`, so concurrent
asyncio tasks keep distinct traces), and every span/event produced
under it records ``"trace"``.  The serving stack mints one id per HTTP
request and ships it across executor threads and worker processes, so
a single Chrome-trace export shows the request's whole life.
"""

import contextlib
import contextvars
import json
import os
import threading
import time

from . import telemetry

# -- trace context ---------------------------------------------------------

_trace_var = contextvars.ContextVar("repro_trace_id", default=None)


def new_trace_id():
    """A fresh 16-hex-char trace id (cryptographically random)."""
    return os.urandom(8).hex()


def current_trace_id():
    """The trace id active on this context, or None.

    The innermost open span's trace wins (a span inherits and pins the
    id that was active when it opened); otherwise the ambient value
    installed by :func:`use_trace`.
    """
    for open_span in reversed(_stack()):
        if open_span.trace is not None:
            return open_span.trace
    return _trace_var.get()


@contextlib.contextmanager
def use_trace(trace_id):
    """Scoped activation: install ``trace_id``, restore the old one after.

    Passing None is allowed and simply clears the ambient id for the
    scope, so callers can forward a maybe-absent id unconditionally.
    """
    token = _trace_var.set(trace_id)
    try:
        yield trace_id
    finally:
        _trace_var.reset(token)


def point_event(name, attrs=None, clock=time.time):
    """Event dict for an instantaneous occurrence (no duration).

    Tagged with the active trace id, when there is one.
    """
    event = {"type": "event", "name": name, "ts": clock()}
    trace = current_trace_id()
    if trace is not None:
        event["trace"] = trace
    if attrs:
        event["attrs"] = dict(attrs)
    return event


class _NullSpan:
    """Shared no-op span handed out while telemetry is disabled."""

    __slots__ = ()

    def __bool__(self):
        return False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set_attr(self, key, value):
        """No-op."""

    def __repr__(self):
        return "NULL_SPAN"


#: The single disabled span instance.
NULL_SPAN = _NullSpan()

_stacks = threading.local()


def _stack():
    stack = getattr(_stacks, "spans", None)
    if stack is None:
        stack = _stacks.spans = []
    return stack


class Span:
    """One timed, attributed region bound to a registry.

    Use through :func:`span`; attributes passed at creation or via
    :meth:`set_attr` land in the emitted event's ``attrs`` field.
    """

    __slots__ = ("registry", "name", "attrs", "depth", "parent", "status",
                 "start_ts", "_start_perf", "duration_s", "trace")

    def __init__(self, registry, name, attrs=None):
        self.registry = registry
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.depth = 0
        self.parent = None
        self.status = "ok"
        self.start_ts = None
        self._start_perf = None
        self.duration_s = None
        self.trace = None

    def __bool__(self):
        return True

    def set_attr(self, key, value):
        """Attach one attribute; visible in the emitted trace event."""
        self.attrs[key] = value

    def __enter__(self):
        stack = _stack()
        self.depth = len(stack)
        self.parent = stack[-1].name if stack else None
        if self.trace is None:
            self.trace = current_trace_id()
        stack.append(self)
        self.start_ts = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.duration_s = time.perf_counter() - self._start_perf
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # defensive: out-of-order close
            stack.remove(self)
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        self.registry.histogram(self.name + ".seconds").observe(
            self.duration_s)
        self.registry.emit(self.to_event())
        return False  # never swallow the exception

    def to_event(self):
        """The span's JSON-friendly trace event."""
        event = {
            "type": "span",
            "name": self.name,
            "ts": self.start_ts,
            "duration_s": self.duration_s,
            "depth": self.depth,
            "parent": self.parent,
            "status": self.status,
        }
        if self.trace is not None:
            event["trace"] = self.trace
        if self.attrs:
            event["attrs"] = self.attrs
        return event

    def __repr__(self):
        return "Span(%s, depth=%d, status=%s)" % (
            self.name, self.depth, self.status)


def span(name, **attrs):
    """A timed span on the active registry (no-op when disabled).

    >>> with span("dmm.solver.solve", variables=20) as sp:
    ...     sp.set_attr("satisfied", True)
    """
    registry = telemetry.get_registry()
    if not registry.enabled:
        return NULL_SPAN
    return Span(registry, name, attrs)


def current_span():
    """The innermost open span on this thread, or None."""
    stack = _stack()
    return stack[-1] if stack else None


# -- sinks -----------------------------------------------------------------

class TraceSink:
    """Interface: anything with ``emit(event_dict)`` (and ``close()``)."""

    def emit(self, event):
        raise NotImplementedError

    def close(self):
        """Release resources; emitting after close is an error."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class NullSink(TraceSink):
    """Swallows every event."""

    def emit(self, event):
        """No-op."""


class ListSink(TraceSink):
    """Buffers events in memory (``.events``), in arrival order.

    The parallel execution engine attaches one to each worker-local
    registry so worker-side spans/events can be shipped back to the
    parent process and re-emitted into the parent's sinks at join.
    """

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


class JsonlSink(TraceSink):
    """Appends one compact JSON object per event to ``path``.

    The file is opened lazily on the first event (so attaching the sink
    is free when nothing fires) and each line is flushed immediately --
    traces survive a crashed run.
    """

    def __init__(self, path):
        self.path = path
        self._handle = None
        self._lock = threading.Lock()
        self.events_written = 0

    def emit(self, event):
        line = json.dumps(event, default=str, separators=(",", ":"))
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a")
            self._handle.write(line + "\n")
            self._handle.flush()
            self.events_written += 1

    def close(self):
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def read_jsonl(path):
    """Load a JSONL trace back into a list of event dicts."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# -- Chrome trace-event export ---------------------------------------------

#: pid used for every exported event (one logical process per trace).
CHROME_PID = 1

#: tid of the main (untagged) span stream; worker chunk ``i`` maps to
#: ``CHROME_MAIN_TID + 1 + i`` so each chunk gets its own track.
CHROME_MAIN_TID = 1


def _chrome_tid(event):
    worker = event.get("worker")
    if worker is None:
        return CHROME_MAIN_TID
    try:
        return CHROME_MAIN_TID + 1 + int(worker)
    except (TypeError, ValueError):
        return CHROME_MAIN_TID + 1


def chrome_trace_events(events):
    """Convert telemetry events to Chrome trace-event dicts.

    Spans become complete (``"ph": "X"``) events -- start timestamp and
    duration in microseconds -- and point events become instants
    (``"ph": "i"``).  Spans merged back from parallel workers (tagged
    ``"worker": <chunk>``) land on their own thread track, so a
    ``--workers 4`` run shows its chunks as parallel lanes.  Events are
    returned sorted by timestamp (ties: longer span first, so a parent
    precedes the children it encloses), preceded by thread-name metadata
    events -- exactly the list Perfetto / ``chrome://tracing`` expects
    under ``traceEvents``.
    """
    out = []
    tids = set()
    for event in events:
        if not isinstance(event, dict) or "ts" not in event:
            continue
        tid = _chrome_tid(event)
        args = dict(event.get("attrs") or {})
        if event.get("trace") is not None:
            args.setdefault("trace", event["trace"])
        ts_us = float(event.get("ts") or 0.0) * 1e6
        if event.get("type") == "span":
            if event.get("status", "ok") != "ok":
                args.setdefault("status", event["status"])
            out.append({
                "name": str(event.get("name", "?")),
                "cat": "span",
                "ph": "X",
                "ts": ts_us,
                "dur": max(0.0, float(event.get("duration_s") or 0.0)) * 1e6,
                "pid": CHROME_PID,
                "tid": tid,
                "args": args,
            })
        elif event.get("type") == "event":
            out.append({
                "name": str(event.get("name", "?")),
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": ts_us,
                "pid": CHROME_PID,
                "tid": tid,
                "args": args,
            })
        else:
            continue
        tids.add(tid)
    out.sort(key=lambda e: (e["ts"], -e.get("dur", 0.0)))
    metadata = []
    for tid in sorted(tids):
        name = "main" if tid == CHROME_MAIN_TID \
            else "worker-%d" % (tid - CHROME_MAIN_TID - 1)
        metadata.append({"name": "thread_name", "ph": "M",
                         "pid": CHROME_PID, "tid": tid,
                         "args": {"name": name}})
    return metadata + out


def write_chrome_trace(events, path):
    """Write telemetry events as a Chrome JSON trace; returns the count.

    The file is the object form of the trace-event format
    (``{"traceEvents": [...]}``), loadable by Perfetto
    (https://ui.perfetto.dev) and ``chrome://tracing``.  Metadata events
    are not counted in the return value.
    """
    converted = chrome_trace_events(events)
    document = {"traceEvents": converted, "displayTimeUnit": "ms"}
    with open(path, "w") as handle:
        json.dump(document, handle, default=str, separators=(",", ":"))
        handle.write("\n")
    return sum(1 for event in converted if event.get("ph") != "M")


def read_chrome_trace(path):
    """Load a Chrome trace file back; returns the ``traceEvents`` list."""
    with open(path) as handle:
        document = json.load(handle)
    if isinstance(document, list):  # bare-array form
        return document
    return document.get("traceEvents", [])
