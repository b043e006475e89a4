"""Tests for the Chrome trace-event exporter (repro.core.tracing)."""

import json

import pytest

from repro.core import telemetry
from repro.core.profiling import ProfileSink
from repro.core.tracing import (
    CHROME_MAIN_TID,
    CHROME_PID,
    chrome_trace_events,
    point_event,
    read_chrome_trace,
    write_chrome_trace,
)


def record_nested_spans():
    """Run outer/inner spans under a live registry; return raw events."""
    registry = telemetry.MetricsRegistry()
    sink = registry.add_sink(ProfileSink())
    with telemetry.use_registry(registry):
        with telemetry.span("outer", kind="test"):
            with telemetry.span("inner"):
                pass
    return sink.events


class TestSchema:
    def test_spans_become_complete_events(self):
        converted = chrome_trace_events(record_nested_spans())
        spans = [e for e in converted if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"outer", "inner"}
        for event in spans:
            assert event["pid"] == CHROME_PID
            assert event["tid"] == CHROME_MAIN_TID
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0

    def test_all_phases_are_known(self):
        events = record_nested_spans() + [point_event("marker")]
        converted = chrome_trace_events(events)
        assert {e["ph"] for e in converted} <= {"X", "i", "M"}

    def test_timestamps_monotonic(self):
        converted = [e for e in chrome_trace_events(record_nested_spans())
                     if e["ph"] != "M"]
        timestamps = [e["ts"] for e in converted]
        assert timestamps == sorted(timestamps)

    def test_point_events_are_instants(self):
        converted = chrome_trace_events([point_event("tick")])
        instants = [e for e in converted if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["s"] == "t"
        assert instants[0]["name"] == "tick"

    def test_thread_metadata_precedes_events(self):
        converted = chrome_trace_events(record_nested_spans())
        assert converted[0]["ph"] == "M"
        assert converted[0]["name"] == "thread_name"
        assert converted[0]["args"]["name"] == "main"

    def test_error_status_lands_in_args(self):
        registry = telemetry.MetricsRegistry()
        sink = registry.add_sink(ProfileSink())
        with telemetry.use_registry(registry):
            with pytest.raises(RuntimeError):
                with telemetry.span("bad"):
                    raise RuntimeError("x")
        converted = chrome_trace_events(sink.events)
        bad = [e for e in converted if e.get("name") == "bad"][0]
        assert bad["args"]["status"] == "error"

    def test_events_without_timestamp_skipped(self):
        assert chrome_trace_events([{"type": "span", "name": "x"}]) == []


class TestNestedRoundTrip:
    def test_inner_span_nested_inside_outer(self, tmp_path):
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(record_nested_spans(), path)
        assert count == 2
        loaded = read_chrome_trace(path)
        spans = {e["name"]: e for e in loaded if e["ph"] == "X"}
        outer, inner = spans["outer"], spans["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] \
            <= outer["ts"] + outer["dur"] + 1.0  # 1 us slack
        assert outer["args"]["kind"] == "test"

    def test_file_is_perfetto_loadable_object(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(record_nested_spans(), path)
        with open(path) as handle:
            document = json.load(handle)
        assert isinstance(document["traceEvents"], list)
        assert document["displayTimeUnit"] == "ms"

    def test_read_accepts_bare_array_form(self, tmp_path):
        path = str(tmp_path / "bare.json")
        with open(path, "w") as handle:
            json.dump([{"ph": "X", "name": "a", "ts": 0, "dur": 1,
                        "pid": 1, "tid": 1}], handle)
        assert read_chrome_trace(path)[0]["name"] == "a"


class TestWorkerMerge:
    def worker_events(self):
        return [
            {"type": "span", "name": "chunk", "ts": 1.0,
             "duration_s": 0.5, "depth": 0, "status": "ok", "worker": 0},
            {"type": "span", "name": "chunk", "ts": 1.1,
             "duration_s": 0.4, "depth": 0, "status": "ok", "worker": 1},
            {"type": "span", "name": "map", "ts": 0.9,
             "duration_s": 1.0, "depth": 0, "status": "ok"},
        ]

    def test_workers_get_distinct_tids(self):
        converted = chrome_trace_events(self.worker_events())
        spans = [e for e in converted if e["ph"] == "X"]
        tids = {e["name"]: sorted({s["tid"] for s in spans
                                   if s["name"] == e["name"]})
                for e in spans}
        assert tids["map"] == [CHROME_MAIN_TID]
        assert tids["chunk"] == [CHROME_MAIN_TID + 1, CHROME_MAIN_TID + 2]

    def test_worker_lanes_named_in_metadata(self):
        converted = chrome_trace_events(self.worker_events())
        names = {e["args"]["name"] for e in converted if e["ph"] == "M"}
        assert names == {"main", "worker-0", "worker-1"}

    def test_parallel_run_spans_merge_from_workers(self, tmp_path):
        # end to end: a real chunked parallel map re-emits worker spans
        # tagged with their chunk; the trace must show >1 thread lane.
        from repro.core.parallel import ParallelMap

        registry = telemetry.MetricsRegistry()
        sink = registry.add_sink(ProfileSink())
        with telemetry.use_registry(registry):
            ParallelMap(workers=2).map(_traced_square, [1, 2, 3, 4])
        path = str(tmp_path / "parallel.json")
        write_chrome_trace(sink.events, path)
        spans = [e for e in read_chrome_trace(path) if e["ph"] == "X"]
        assert {e["tid"] for e in spans} > {CHROME_MAIN_TID}
        assert "worker.square" in {e["name"] for e in spans}


def _traced_square(value):
    with telemetry.span("worker.square"):
        return value * value
