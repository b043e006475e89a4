"""Tests for the telemetry substrate (metrics, spans, sinks)."""

import threading

import pytest

from repro.core import telemetry
from repro.core.exceptions import TelemetryError
from repro.core.tracing import (
    JsonlSink,
    NullSink,
    current_span,
    point_event,
    read_jsonl,
)


@pytest.fixture
def registry():
    """A live registry active for the duration of one test."""
    registry = telemetry.MetricsRegistry()
    with telemetry.use_registry(registry):
        yield registry


class TestInstruments:
    def test_counter_accumulates(self, registry):
        counter = registry.counter("dmm.solver.steps")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        assert counter.snapshot() == {"kind": "counter", "value": 42}

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(TelemetryError):
            registry.counter("dmm.solver.steps").inc(-1)

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.gauge("dmm.solver.sim_time")
        gauge.set(10.0)
        gauge.inc(-2.5)
        assert gauge.value == 7.5

    def test_histogram_streaming_moments(self, registry):
        histogram = registry.histogram("quantum.runtime.shot_time_ns")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 10.0
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.mean == pytest.approx(2.5)
        # population std of {1,2,3,4} is sqrt(1.25)
        assert histogram.std == pytest.approx(1.25 ** 0.5)

    def test_empty_histogram_stats_are_none(self, registry):
        histogram = registry.histogram("oscillator.distance.eval_seconds")
        assert histogram.count == 0
        assert histogram.mean is None
        assert histogram.std is None
        assert histogram.snapshot()["min"] is None

    def test_same_name_returns_same_instrument(self, registry):
        assert (registry.counter("inmemory.crossbar.reads")
                is registry.counter("inmemory.crossbar.reads"))

    def test_kind_clash_raises(self, registry):
        registry.counter("dmm.solver.steps")
        with pytest.raises(TelemetryError):
            registry.gauge("dmm.solver.steps")

    def test_module_accessors_hit_active_registry(self, registry):
        telemetry.counter("dmm.walksat.flips").inc(5)
        assert registry.counter("dmm.walksat.flips").value == 5

    def test_counter_thread_safety(self, registry):
        counter = registry.counter("dmm.dynamics.rhs_evals")
        threads = [threading.Thread(
            target=lambda: [counter.inc() for _ in range(10_000)])
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000


class TestRegistry:
    def test_snapshot_is_json_friendly(self, registry):
        registry.counter("a.b.c").inc(3)
        registry.histogram("a.b.t").observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot["a.b.c"] == {"kind": "counter", "value": 3}
        assert snapshot["a.b.t"]["count"] == 1
        import json
        json.dumps(snapshot)  # must not raise

    def test_reset_drops_instruments_keeps_sinks(self, registry):
        sink = registry.add_sink(NullSink())
        registry.counter("a.b.c").inc()
        registry.reset()
        assert len(registry) == 0
        assert sink in registry.sinks

    def test_len_and_contains(self, registry):
        registry.counter("a.b.c")
        assert "a.b.c" in registry
        assert "x.y.z" not in registry
        assert len(registry) == 1


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert telemetry.get_registry() is telemetry.NULL_REGISTRY
        assert not telemetry.enabled()

    def test_null_instruments_are_shared_noop_singletons(self):
        counter = telemetry.counter("dmm.solver.steps")
        assert counter is telemetry.NULL_INSTRUMENT
        assert counter is telemetry.histogram("any.other.name")
        assert not counter  # falsy, so hot paths can skip clock reads
        counter.inc(10)
        assert counter.value == 0.0

    def test_disabled_span_is_shared_noop(self):
        with telemetry.span("dmm.solver.solve", variables=3) as disabled:
            assert disabled is telemetry.tracing.NULL_SPAN
            assert not disabled
            disabled.set_attr("satisfied", True)  # no-op, no error
        assert current_span() is None

    def test_use_registry_restores_previous(self):
        before = telemetry.get_registry()
        with telemetry.use_registry(telemetry.MetricsRegistry()) as live:
            assert telemetry.get_registry() is live
        assert telemetry.get_registry() is before

    def test_use_registry_restores_on_exception(self):
        before = telemetry.get_registry()
        with pytest.raises(ValueError):
            with telemetry.use_registry(telemetry.MetricsRegistry()):
                raise ValueError("boom")
        assert telemetry.get_registry() is before

    def test_disable_returns_previous(self):
        live = telemetry.MetricsRegistry()
        telemetry.set_registry(live)
        try:
            assert telemetry.disable() is live
        finally:
            telemetry.disable()
        assert telemetry.get_registry() is telemetry.NULL_REGISTRY


class TestSpans:
    def test_span_times_and_observes_histogram(self, registry):
        with telemetry.span("quantum.compiler.compile") as compile_span:
            pass
        assert compile_span.duration_s >= 0.0
        histogram = registry.histogram("quantum.compiler.compile.seconds")
        assert histogram.count == 1

    def test_span_nesting_depth_and_parent(self, registry):
        events = []

        class Collect(NullSink):
            def emit(self, event):
                events.append(event)

        registry.add_sink(Collect())
        with telemetry.span("outer"):
            assert current_span().name == "outer"
            with telemetry.span("inner"):
                assert current_span().name == "inner"
        assert current_span() is None
        # inner closes first
        inner, outer = events
        assert inner["name"] == "inner"
        assert inner["depth"] == 1
        assert inner["parent"] == "outer"
        assert outer["depth"] == 0
        assert outer["parent"] is None

    def test_span_exception_safety(self, registry):
        events = []

        class Collect(NullSink):
            def emit(self, event):
                events.append(event)

        registry.add_sink(Collect())
        with pytest.raises(KeyError):
            with telemetry.span("dmm.solver.solve"):
                raise KeyError("missing")
        assert current_span() is None  # stack unwound
        (event,) = events
        assert event["status"] == "error"
        assert event["attrs"]["error"] == "KeyError"
        # duration still observed
        assert registry.histogram("dmm.solver.solve.seconds").count == 1

    def test_span_attrs_land_in_event(self, registry):
        with telemetry.span("s", a=1) as live_span:
            live_span.set_attr("b", 2)
        event = live_span.to_event()
        assert event["attrs"] == {"a": 1, "b": 2, }
        assert event["type"] == "span"

    def test_point_event_shape(self):
        event = point_event("dmm.solver.instanton", {"unsat_to": 3},
                            clock=lambda: 123.0)
        assert event == {"type": "event", "name": "dmm.solver.instanton",
                         "ts": 123.0, "attrs": {"unsat_to": 3}}

    def test_event_helper_emits_only_when_enabled(self, registry):
        events = []

        class Collect(NullSink):
            def emit(self, event):
                events.append(event)

        registry.add_sink(Collect())
        telemetry.event("a.b.c", value=1)
        assert len(events) == 1
        telemetry.disable()
        try:
            telemetry.event("a.b.c", value=2)
        finally:
            telemetry.set_registry(registry)
        assert len(events) == 1


class TestSinks:
    def test_jsonl_round_trip(self, registry, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = registry.add_sink(JsonlSink(path))
        telemetry.event("first", index=0)
        with telemetry.span("second", n=15):
            pass
        sink.close()
        assert sink.events_written == 2
        events = read_jsonl(path)
        assert [event["name"] for event in events] == ["first", "second"]
        assert events[0]["type"] == "event"
        assert events[1]["type"] == "span"
        assert events[1]["attrs"] == {"n": 15}

    def test_jsonl_lazy_open(self, registry, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        sink.close()  # closing an unopened sink is fine
        assert not path.exists()  # no events -> no file

    def test_multiple_sinks_fan_out(self, registry, tmp_path):
        first = registry.add_sink(JsonlSink(str(tmp_path / "a.jsonl")))
        second = registry.add_sink(JsonlSink(str(tmp_path / "b.jsonl")))
        telemetry.event("x")
        assert first.events_written == 1
        assert second.events_written == 1


class TestFormatting:
    def test_fmt_seconds_scales(self):
        assert telemetry.fmt_seconds(1.53) == "1.53s"
        assert telemetry.fmt_seconds(0.0124) == "12.4ms"
        assert telemetry.fmt_seconds(8.5e-4) == "850us"
        assert telemetry.fmt_seconds(2e-8) == "20ns"
        assert telemetry.fmt_seconds(0.0) == "0s"

    def test_fmt_quantity(self):
        assert telemetry.fmt_quantity(1234567) == "1,234,567"
        assert telemetry.fmt_quantity(0.5) == "0.5"
        assert telemetry.fmt_quantity(1.23e8) == "1.230e+08"
        assert telemetry.fmt_quantity(True) == "True"
        assert telemetry.fmt_quantity("dmm") == "dmm"

    def test_render_summary_table(self, registry):
        registry.counter("dmm.solver.steps").inc(1000)
        registry.histogram("dmm.solver.solve.seconds").observe(0.5)
        table = telemetry.render_summary(registry.snapshot())
        assert "telemetry summary" in table
        assert "dmm.solver.steps" in table
        assert "1,000" in table
        assert "count=1" in table

    def test_render_summary_empty(self):
        table = telemetry.render_summary({})
        assert "(no metrics recorded)" in table
