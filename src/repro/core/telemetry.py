"""Process-wide, dependency-free metrics: counters, gauges, histograms.

The paper's central comparisons are quantitative (DMM time-to-solution
scaling, oscillator power vs. CMOS, quantum chip-time per shot), so every
paradigm in this library is instrumented through one shared substrate:

* :class:`MetricsRegistry` -- a thread-safe, in-memory name -> instrument
  map with pluggable trace sinks (see :mod:`repro.core.tracing`),
* :class:`Counter` / :class:`Gauge` / :class:`Histogram` -- the three
  instrument kinds,
* a module-level *active registry* that instrumentation sites reach
  through :func:`counter`, :func:`gauge`, :func:`histogram`,
  :func:`event`, and :func:`span`.

Telemetry is **off by default**: the active registry starts as
:data:`NULL_REGISTRY`, whose instrument accessors return a shared no-op
singleton, so a disabled instrumentation site costs two attribute lookups
and a no-op call -- no dict mutation, no locking, no allocation (the
guard is benchmarked by ``benchmarks/bench_telemetry_overhead.py``).
Enable it with :func:`use_registry` (scoped) or :func:`set_registry`
(process-wide).

Metric names follow ``paradigm.component.metric`` (for example
``dmm.solver.steps``, ``quantum.runtime.shots``,
``oscillator.distance.evals``, ``inmemory.crossbar.macs``); see
``docs/observability.md`` for the full scheme.
"""

import contextlib
import math
import threading

from .exceptions import TelemetryError


class _NullInstrument:
    """Shared no-op standing in for every instrument when disabled.

    Falsy so hot paths can guard optional work (e.g. reading the clock
    for a timing histogram) with a plain truthiness test.
    """

    __slots__ = ()

    kind = "null"

    def __bool__(self):
        return False

    def inc(self, amount=1):
        """No-op."""

    def set(self, value):
        """No-op."""

    def observe(self, value):
        """No-op."""

    @property
    def value(self):
        return 0.0

    def __repr__(self):
        return "NULL_INSTRUMENT"


#: The single no-op instrument every disabled site receives.
NULL_INSTRUMENT = _NullInstrument()


class Counter:
    """A monotonically increasing total (int or float increments)."""

    __slots__ = ("name", "_value", "_lock")

    kind = "counter"

    def __init__(self, name):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def __bool__(self):
        return True

    def inc(self, amount=1):
        """Add ``amount`` (must be non-negative) to the running total."""
        if amount < 0:
            raise TelemetryError(
                "counter %r cannot decrease (inc %r)" % (self.name, amount))
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def snapshot(self):
        """JSON-friendly state dict."""
        return {"kind": self.kind, "value": self._value}

    def __repr__(self):
        return "Counter(%s=%s)" % (self.name, self._value)


class Gauge:
    """A point-in-time value that can move in either direction."""

    __slots__ = ("name", "_value", "_lock")

    kind = "gauge"

    def __init__(self, name):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def __bool__(self):
        return True

    def set(self, value):
        """Record the current level."""
        with self._lock:
            self._value = value

    def inc(self, amount=1):
        """Move the level by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def snapshot(self):
        """JSON-friendly state dict."""
        return {"kind": self.kind, "value": self._value}

    def __repr__(self):
        return "Gauge(%s=%s)" % (self.name, self._value)


class Histogram:
    """Streaming summary of observed values: count/sum/min/max/mean/std.

    The moment accumulators are constant-memory, so the instrument stays
    safe on per-step and per-comparison hot paths, and they add exactly
    under merging.
    """

    __slots__ = ("name", "_count", "_total", "_sum_sq", "_min", "_max",
                 "_lock")

    kind = "histogram"

    def __init__(self, name):
        self.name = name
        self._count = 0
        self._total = 0.0
        self._sum_sq = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def __bool__(self):
        return True

    def observe(self, value):
        """Fold one observation into the summary."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            self._sum_sq += value * value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self):
        return self._count

    @property
    def total(self):
        return self._total

    @property
    def min(self):
        return self._min if self._count else None

    @property
    def max(self):
        return self._max if self._count else None

    @property
    def mean(self):
        return self._total / self._count if self._count else None

    @property
    def std(self):
        """Population standard deviation of the observations."""
        if not self._count:
            return None
        mean = self._total / self._count
        variance = max(0.0, self._sum_sq / self._count - mean * mean)
        return math.sqrt(variance)

    def snapshot(self):
        """JSON-friendly state dict (``sum_sq`` makes snapshots mergeable)."""
        with self._lock:
            data = {
                "kind": self.kind,
                "count": self._count,
                "total": self._total,
                "sum_sq": self._sum_sq,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "mean": self._total / self._count if self._count else None,
                "std": None,
            }
            if self._count:
                variance = max(0.0, self._sum_sq / self._count
                               - data["mean"] * data["mean"])
                data["std"] = math.sqrt(variance)
        return data

    def merge_snapshot(self, entry):
        """Fold another histogram's snapshot dict into this histogram.

        Combines the moment accumulators directly, so merging is exact,
        associative, and commutative (up to float addition) -- the
        property the parallel engine's worker-registry merge relies on.
        """
        count = int(entry.get("count", 0))
        if count == 0:
            return
        total = float(entry.get("total", 0.0))
        with self._lock:
            self._count += count
            self._total += total
            self._sum_sq += float(entry["sum_sq"])
            if entry.get("min") is not None:
                self._min = min(self._min, float(entry["min"]))
            if entry.get("max") is not None:
                self._max = max(self._max, float(entry["max"]))

    def __repr__(self):
        return "Histogram(%s, count=%d, mean=%s)" % (
            self.name, self._count, self.mean)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe name -> instrument map plus the trace-sink fan-out.

    Parameters
    ----------
    sinks : iterable, optional
        Initial trace sinks (objects with an ``emit(event_dict)``
        method); see :mod:`repro.core.tracing`.
    """

    enabled = True

    def __init__(self, sinks=None):
        self._metrics = {}
        self._lock = threading.Lock()
        self._sinks = list(sinks) if sinks else []

    # -- instruments ------------------------------------------------------

    def _get_or_create(self, name, kind):
        instrument = self._metrics.get(name)  # lock-free fast path
        if instrument is None:
            with self._lock:
                instrument = self._metrics.get(name)
                if instrument is None:
                    instrument = _KINDS[kind](name)
                    self._metrics[name] = instrument
        if instrument.kind != kind:
            raise TelemetryError(
                "metric %r already registered as %s, requested %s"
                % (name, instrument.kind, kind))
        return instrument

    def counter(self, name):
        """Get or create the counter ``name``."""
        return self._get_or_create(name, "counter")

    def gauge(self, name):
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, "gauge")

    def histogram(self, name):
        """Get or create the histogram ``name``."""
        return self._get_or_create(name, "histogram")

    def __contains__(self, name):
        return name in self._metrics

    def __len__(self):
        return len(self._metrics)

    # -- sinks ------------------------------------------------------------

    @property
    def sinks(self):
        return tuple(self._sinks)

    def add_sink(self, sink):
        """Attach a trace sink; returns it for chaining."""
        self._sinks.append(sink)
        return sink

    def emit(self, event):
        """Fan an event dict out to every attached sink."""
        for sink in self._sinks:
            sink.emit(event)

    # -- snapshots --------------------------------------------------------

    def snapshot(self):
        """All instruments as a plain, JSON-serializable dict."""
        with self._lock:
            items = list(self._metrics.items())
        return {name: instrument.snapshot() for name, instrument in items}

    def reset(self):
        """Drop every instrument (sinks are kept)."""
        with self._lock:
            self._metrics.clear()

    def merge(self, snapshot):
        """Fold a registry snapshot into this registry's live instruments.

        The merge rule per instrument kind (see :func:`merge_snapshots`
        for the pure-dict equivalent):

        * counters add,
        * histograms combine their moment accumulators,
        * gauges take the incoming value (a level has no meaningful
          sum; the most recently merged worker wins).

        Used by :class:`repro.core.parallel.ParallelMap` to fold each
        worker's local registry into the parent's at join.  Raises
        :class:`TelemetryError` on a kind clash.
        """
        for name in sorted(snapshot):
            entry = snapshot[name]
            kind = entry.get("kind")
            if kind == "counter":
                self.counter(name).inc(entry.get("value", 0))
            elif kind == "gauge":
                self.gauge(name).set(entry.get("value", 0.0))
            elif kind == "histogram":
                self.histogram(name).merge_snapshot(entry)
            else:
                raise TelemetryError(
                    "cannot merge metric %r of unknown kind %r"
                    % (name, kind))
        return self


class _NullRegistry:
    """The disabled registry: hands out :data:`NULL_INSTRUMENT` only."""

    enabled = False
    sinks = ()

    def __bool__(self):
        return False

    def counter(self, name):
        return NULL_INSTRUMENT

    def gauge(self, name):
        return NULL_INSTRUMENT

    def histogram(self, name):
        return NULL_INSTRUMENT

    def emit(self, event):
        """No-op."""

    def merge(self, snapshot):
        """No-op (merging into a disabled registry drops the data)."""
        return self

    def snapshot(self):
        return {}

    def reset(self):
        """No-op."""

    def __contains__(self, name):
        return False

    def __len__(self):
        return 0

    def __repr__(self):
        return "NULL_REGISTRY"


#: The process-wide disabled registry (telemetry's default state).
NULL_REGISTRY = _NullRegistry()

_active_registry = NULL_REGISTRY


def get_registry():
    """The registry instrumentation sites currently resolve against."""
    return _active_registry


def set_registry(registry):
    """Install ``registry`` process-wide; returns the previous one.

    Pass :data:`NULL_REGISTRY` (or call :func:`disable`) to turn
    telemetry back off.
    """
    global _active_registry
    previous = _active_registry
    _active_registry = registry if registry is not None else NULL_REGISTRY
    return previous


def disable():
    """Turn telemetry off; returns the previously active registry."""
    return set_registry(NULL_REGISTRY)


@contextlib.contextmanager
def use_registry(registry):
    """Scoped activation: install ``registry``, restore the old one after.

    >>> registry = MetricsRegistry()
    >>> with use_registry(registry):
    ...     counter("dmm.solver.steps").inc(10)
    >>> registry.counter("dmm.solver.steps").value
    10
    """
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def enabled():
    """True when a live registry is active."""
    return _active_registry.enabled


def counter(name):
    """Counter ``name`` on the active registry (no-op when disabled)."""
    return _active_registry.counter(name)


def gauge(name):
    """Gauge ``name`` on the active registry (no-op when disabled)."""
    return _active_registry.gauge(name)


def histogram(name):
    """Histogram ``name`` on the active registry (no-op when disabled)."""
    return _active_registry.histogram(name)


def event(name, **attrs):
    """Emit a point-in-time trace event to the active registry's sinks."""
    registry = _active_registry
    if registry.enabled:
        registry.emit(tracing.point_event(name, attrs))


# -- snapshot merging ------------------------------------------------------

def _merge_histogram_entries(a, b):
    """Combined snapshot dict of two histogram snapshot entries."""
    count = int(a.get("count", 0)) + int(b.get("count", 0))
    total = float(a.get("total", 0.0)) + float(b.get("total", 0.0))
    sum_sq = float(a.get("sum_sq", 0.0)) + float(b.get("sum_sq", 0.0))
    mins = [entry["min"] for entry in (a, b) if entry.get("min") is not None]
    maxs = [entry["max"] for entry in (a, b) if entry.get("max") is not None]
    mean = total / count if count else None
    if count and mean is not None:
        variance = max(0.0, sum_sq / count - mean * mean)
        std = math.sqrt(variance)
    else:
        std = None
    return {
        "kind": "histogram",
        "count": count,
        "total": total,
        "sum_sq": sum_sq,
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
        "mean": mean,
        "std": std,
    }


def merge_snapshots(a, b):
    """Pure merge of two registry snapshots into a new snapshot dict.

    Counters add and histograms combine their moment accumulators, so
    for those kinds the merge is associative *and* commutative --
    ``merge_snapshots(a, b) == merge_snapshots(b, a)`` -- which is what
    makes the parallel engine's at-join merge independent of worker
    completion order.  Gauges are levels, not totals: the right-hand
    value wins (so gauge merging is deliberately right-biased).

    Raises :class:`TelemetryError` when the same name carries different
    instrument kinds.
    """
    merged = dict(a)
    for name, entry in b.items():
        existing = merged.get(name)
        if existing is None:
            merged[name] = dict(entry)
            continue
        if existing.get("kind") != entry.get("kind"):
            raise TelemetryError(
                "cannot merge metric %r: kind %s vs %s"
                % (name, existing.get("kind"), entry.get("kind")))
        kind = entry.get("kind")
        if kind == "counter":
            merged[name] = {"kind": "counter",
                            "value": existing.get("value", 0)
                            + entry.get("value", 0)}
        elif kind == "gauge":
            merged[name] = {"kind": "gauge",
                            "value": entry.get("value", 0.0)}
        elif kind == "histogram":
            merged[name] = _merge_histogram_entries(existing, entry)
        else:
            raise TelemetryError(
                "cannot merge metric %r of unknown kind %r" % (name, kind))
    return merged


# -- formatting helpers ----------------------------------------------------

def fmt_seconds(seconds):
    """Human-scale duration: ``'1.53s'``, ``'12.4ms'``, ``'850us'``."""
    seconds = float(seconds)
    if seconds != seconds:  # NaN
        return "nan"
    magnitude = abs(seconds)
    if magnitude >= 1.0:
        return "%.3gs" % seconds
    if magnitude >= 1e-3:
        return "%.3gms" % (seconds * 1e3)
    if magnitude >= 1e-6:
        return "%.3gus" % (seconds * 1e6)
    if magnitude == 0.0:
        return "0s"
    return "%.3gns" % (seconds * 1e9)


def fmt_quantity(value):
    """Compact numeric rendering shared by the result reprs and tables."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return "{:,}".format(value)
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value == 0.0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return "%.3e" % value
        return "%.4g" % value
    return str(value)


def render_summary(snapshot, title="telemetry summary"):
    """Render a registry snapshot as an aligned text table.

    Counters and gauges show their value; histograms show
    ``count / mean / min / max / total``.  Returns the table string
    (callers decide where it goes -- the library never prints).
    """
    rows = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("kind", "?")
        if kind == "histogram":
            if entry.get("count"):
                detail = "count=%s mean=%s min=%s max=%s total=%s" % (
                    fmt_quantity(entry["count"]),
                    fmt_quantity(entry["mean"]),
                    fmt_quantity(entry["min"]),
                    fmt_quantity(entry["max"]),
                    fmt_quantity(entry["total"]),
                )
            else:
                detail = "count=0"
        else:
            detail = fmt_quantity(entry.get("value", 0))
        rows.append((name, kind, detail))
    headers = ("metric", "kind", "value")
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
              else len(headers[i]) for i in range(3)]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if not rows:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


# Import at the bottom so tracing can reference this module at call time
# without a circular-import failure; span and the sink classes are
# re-exported here to give instrumentation sites a single import.
from . import tracing  # noqa: E402
from .tracing import (  # noqa: E402,F401
    JsonlSink,
    ListSink,
    NullSink,
    Span,
    span,
)
