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

Instruments optionally carry **labels** drawn from the bounded key set
:data:`LABEL_KEYS`.  A labeled series materializes as a distinct metric
named ``base{key=value,...}`` (keys sorted, values sanitized), so the
snapshot/merge algebra below needs no label awareness at all -- labeled
series merge exactly like any other metric.  Distinct label sets per
base name are capped at :data:`MAX_LABEL_SETS` per registry; once the
cap is hit, new combinations fold deterministically into the
all-``other`` overflow series (see ``docs/observability.md``).
"""

import contextlib
import math
import threading

from .exceptions import TelemetryError


# -- labels ----------------------------------------------------------------

#: The only label keys instruments accept; anything else raises
#: :class:`TelemetryError`.  Keeping the key space closed is what keeps
#: exposition cardinality analyzable.
LABEL_KEYS = ("kind", "outcome", "paradigm", "tenant")

#: Distinct label-value combinations allowed per base metric name per
#: registry before new combinations collapse into the overflow series.
MAX_LABEL_SETS = 64

#: Label value every overflowed (or empty/sanitized-away) combination
#: maps to.
OVERFLOW_VALUE = "other"

_LABEL_VALUE_MAX = 48
_LABEL_CACHE_MAX = 4096


def _sanitize_label_value(value):
    """Canonical, exposition-safe form of one label value."""
    text = str(value)[:_LABEL_VALUE_MAX]
    text = "".join(ch if (ch.isalnum() or ch in "._-:") else "_"
                   for ch in text)
    return text or OVERFLOW_VALUE


def format_metric(base, labels):
    """Encode ``base`` plus a label dict as a canonical metric name.

    Keys are sorted and values sanitized, so equal label dicts always
    produce the same name.  Unknown keys raise
    :class:`TelemetryError`.
    """
    if not labels:
        return base
    if "{" in base or "}" in base:
        raise TelemetryError("metric base name %r may not contain braces"
                             % (base,))
    for key in labels:
        if key not in LABEL_KEYS:
            raise TelemetryError(
                "unknown label key %r for metric %r (allowed: %s)"
                % (key, base, ", ".join(LABEL_KEYS)))
    body = ",".join("%s=%s" % (key, _sanitize_label_value(labels[key]))
                    for key in sorted(labels))
    return "%s{%s}" % (base, body)


def parse_metric(name):
    """Split an encoded metric name into ``(base, labels)``.

    The inverse of :func:`format_metric`; unlabeled names return an
    empty label dict.
    """
    if "{" not in name or not name.endswith("}"):
        return name, {}
    base, _, body = name.partition("{")
    labels = {}
    for pair in body[:-1].split(","):
        if pair:
            key, _, value = pair.partition("=")
            labels[key] = value
    return base, labels


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


#: Relative-accuracy parameter of the histogram's log-spaced quantile
#: buckets (DDSketch-style): streaming quantiles are exact in rank and
#: within ~1% in value.
QUANTILE_ALPHA = 0.01

_GAMMA = (1.0 + QUANTILE_ALPHA) / (1.0 - QUANTILE_ALPHA)
_LOG_GAMMA = math.log(_GAMMA)


def _bucket_midpoint(index):
    """Representative value of log bucket ``index`` (relative midpoint)."""
    return 2.0 * _GAMMA ** index / (_GAMMA + 1.0)


class Histogram:
    """Streaming summary of observed values: count/sum/min/max/mean/std,
    plus log-spaced bucket counts for mergeable p50/p95/p99 quantiles.

    Moment accumulators are constant-memory; the quantile buckets grow
    with the *dynamic range* of the observations (one int per occupied
    log bucket), not with their count, so the instrument stays safe on
    per-step and per-comparison hot paths.  Bucket counts add exactly
    under merging, so quantiles computed from a merged snapshot are
    identical to quantiles computed serially.
    """

    __slots__ = ("name", "_count", "_total", "_sum_sq", "_min", "_max",
                 "_zeros", "_buckets", "_neg_buckets", "_lock")

    kind = "histogram"

    def __init__(self, name):
        self.name = name
        self._count = 0
        self._total = 0.0
        self._sum_sq = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._zeros = 0
        self._buckets = {}
        self._neg_buckets = {}
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
            if value > 0.0:
                if value < math.inf:
                    index = math.ceil(math.log(value) / _LOG_GAMMA)
                    self._buckets[index] = self._buckets.get(index, 0) + 1
            elif value < 0.0:
                if value > -math.inf:
                    index = math.ceil(math.log(-value) / _LOG_GAMMA)
                    self._neg_buckets[index] = (
                        self._neg_buckets.get(index, 0) + 1)
            elif value == 0.0:
                self._zeros += 1

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

    def quantile(self, q):
        """Streaming quantile estimate (``None`` before any observation)."""
        return histogram_quantile(self.snapshot(), q)

    def snapshot(self):
        """JSON-friendly state dict (``sum_sq`` makes snapshots mergeable).

        Bucket keys are strings so a snapshot is identical before and
        after a JSON round-trip; ``p50``/``p95``/``p99`` are the
        streaming quantiles of :func:`histogram_quantile`.
        """
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
                "zeros": self._zeros,
                "buckets": {str(index): count for index, count
                            in sorted(self._buckets.items())},
                "neg_buckets": {str(index): count for index, count
                                in sorted(self._neg_buckets.items())},
            }
            if self._count:
                variance = max(0.0, self._sum_sq / self._count
                               - data["mean"] * data["mean"])
                data["std"] = math.sqrt(variance)
        for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            data[key] = histogram_quantile(data, q)
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
        sum_sq = entry.get("sum_sq")
        if sum_sq is None:
            # Pre-merge-era snapshot: reconstruct from mean/std.
            mean = float(entry.get("mean") or 0.0)
            std = float(entry.get("std") or 0.0)
            sum_sq = (std * std + mean * mean) * count
        with self._lock:
            self._count += count
            self._total += total
            self._sum_sq += float(sum_sq)
            if entry.get("min") is not None:
                self._min = min(self._min, float(entry["min"]))
            if entry.get("max") is not None:
                self._max = max(self._max, float(entry["max"]))
            self._zeros += int(entry.get("zeros") or 0)
            for raw, n in (entry.get("buckets") or {}).items():
                index = int(raw)
                self._buckets[index] = self._buckets.get(index, 0) + int(n)
            for raw, n in (entry.get("neg_buckets") or {}).items():
                index = int(raw)
                self._neg_buckets[index] = (
                    self._neg_buckets.get(index, 0) + int(n))

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

    def __init__(self, sinks=None, max_label_sets=MAX_LABEL_SETS):
        self._metrics = {}
        self._lock = threading.Lock()
        self._sinks = list(sinks) if sinks else []
        self.max_label_sets = max_label_sets
        self._label_sets = {}   # base name -> set of canonical combos
        self._label_cache = {}  # (base, raw combo) -> encoded name

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

    def _labeled_name(self, base, labels):
        """Encoded series name for ``base`` + ``labels``, cap applied.

        The cap counts *distinct sanitized combinations* per base name
        in arrival order; a combination past the cap maps every value
        to :data:`OVERFLOW_VALUE`, so a given stream of label sets
        always lands in the same series regardless of how it is split
        across registries or workers (as long as distinct combinations
        stay within the cap, the mapping is the identity).
        """
        cache_key = (base, tuple(sorted(labels.items())))
        encoded = self._label_cache.get(cache_key)  # lock-free fast path
        if encoded is not None:
            return encoded
        if "{" in base or "}" in base:
            raise TelemetryError(
                "metric base name %r may not contain braces" % (base,))
        canonical = []
        for key in sorted(labels):
            if key not in LABEL_KEYS:
                raise TelemetryError(
                    "unknown label key %r for metric %r (allowed: %s)"
                    % (key, base, ", ".join(LABEL_KEYS)))
            canonical.append((key, _sanitize_label_value(labels[key])))
        combo = tuple(canonical)
        with self._lock:
            seen = self._label_sets.setdefault(base, set())
            if combo not in seen:
                if len(seen) >= self.max_label_sets:
                    combo = tuple((key, OVERFLOW_VALUE)
                                  for key, _value in canonical)
                seen.add(combo)
        encoded = "%s{%s}" % (base, ",".join("%s=%s" % pair
                                             for pair in combo))
        if len(self._label_cache) < _LABEL_CACHE_MAX:
            self._label_cache[cache_key] = encoded
        return encoded

    def counter(self, name, labels=None):
        """Get or create the counter ``name`` (optionally labeled)."""
        if labels:
            name = self._labeled_name(name, labels)
        return self._get_or_create(name, "counter")

    def gauge(self, name, labels=None):
        """Get or create the gauge ``name`` (optionally labeled)."""
        if labels:
            name = self._labeled_name(name, labels)
        return self._get_or_create(name, "gauge")

    def histogram(self, name, labels=None):
        """Get or create the histogram ``name`` (optionally labeled)."""
        if labels:
            name = self._labeled_name(name, labels)
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

    def remove_sink(self, sink):
        """Detach a previously attached trace sink (no-op when absent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

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
        """Drop every instrument and label bookkeeping (sinks are kept)."""
        with self._lock:
            self._metrics.clear()
            self._label_sets.clear()
            self._label_cache.clear()

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

    def counter(self, name, labels=None):
        return NULL_INSTRUMENT

    def gauge(self, name, labels=None):
        return NULL_INSTRUMENT

    def histogram(self, name, labels=None):
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


def counter(name, labels=None):
    """Counter ``name`` on the active registry (no-op when disabled)."""
    return _active_registry.counter(name, labels)


def gauge(name, labels=None):
    """Gauge ``name`` on the active registry (no-op when disabled)."""
    return _active_registry.gauge(name, labels)


def histogram(name, labels=None):
    """Histogram ``name`` on the active registry (no-op when disabled)."""
    return _active_registry.histogram(name, labels)


def event(name, **attrs):
    """Emit a point-in-time trace event to the active registry's sinks."""
    registry = _active_registry
    if registry.enabled:
        registry.emit(tracing.point_event(name, attrs))


# -- quantiles -------------------------------------------------------------

def histogram_quantile(entry, q):
    """Quantile estimate from a histogram snapshot entry.

    Nearest-rank walk over the log-spaced bucket counts recorded by
    :class:`Histogram`: exact in rank, within :data:`QUANTILE_ALPHA`
    relative error in value (clamped to the observed min/max), and --
    because bucket counts add exactly under merging -- identical
    whether computed on a serial snapshot or on the merge of per-worker
    snapshots.  Returns ``None`` for empty or pre-quantile entries.
    """
    if not 0.0 <= q <= 1.0:
        raise TelemetryError("quantile must be in [0, 1], got %r" % (q,))
    zeros = int(entry.get("zeros") or 0)
    pos = sorted((int(index), int(n))
                 for index, n in (entry.get("buckets") or {}).items())
    neg = sorted(((int(index), int(n))
                  for index, n in (entry.get("neg_buckets") or {}).items()),
                 reverse=True)
    total = zeros + sum(n for _i, n in pos) + sum(n for _i, n in neg)
    if total == 0:
        return None

    def clamp(value):
        low, high = entry.get("min"), entry.get("max")
        if low is not None and value < low:
            return float(low)
        if high is not None and value > high:
            return float(high)
        return float(value)

    rank = max(1, math.ceil(q * total))
    seen = 0
    for index, n in neg:  # descending index == ascending value
        seen += n
        if seen >= rank:
            return clamp(-_bucket_midpoint(index))
    seen += zeros
    if zeros and seen >= rank:
        return clamp(0.0)
    for index, n in pos:
        seen += n
        if seen >= rank:
            return clamp(_bucket_midpoint(index))
    return clamp(_bucket_midpoint(pos[-1][0])) if pos else clamp(0.0)


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
    buckets = {}
    neg_buckets = {}
    for entry, target in ((a, buckets), (b, buckets),
                          (a, neg_buckets), (b, neg_buckets)):
        key = "buckets" if target is buckets else "neg_buckets"
        for raw, n in (entry.get(key) or {}).items():
            index = int(raw)
            target[index] = target.get(index, 0) + int(n)
    merged = {
        "kind": "histogram",
        "count": count,
        "total": total,
        "sum_sq": sum_sq,
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
        "mean": mean,
        "std": std,
        "zeros": int(a.get("zeros") or 0) + int(b.get("zeros") or 0),
        "buckets": {str(index): n for index, n in sorted(buckets.items())},
        "neg_buckets": {str(index): n for index, n
                        in sorted(neg_buckets.items())},
    }
    for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
        merged[key] = histogram_quantile(merged, q)
    return merged


def merge_histogram_entries(a, b):
    """Public histogram-entry merge (used by the SLO evaluator)."""
    return _merge_histogram_entries(a, b)


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
    ConsoleSink,
    JsonlSink,
    ListSink,
    NullSink,
    Span,
    span,
)
