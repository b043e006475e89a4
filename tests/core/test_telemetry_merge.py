"""Tests for telemetry snapshot merging (the parallel engine's join step).

Worker-local registries are merged into the parent's at join; these
tests pin the algebra down: counter and histogram merging is associative
and commutative on snapshots, histograms combine their moment
accumulators exactly, and kind clashes fail loudly.
"""

import math

import pytest

from repro.core import telemetry
from repro.core.exceptions import TelemetryError
from repro.core.telemetry import MetricsRegistry, merge_snapshots


def _registry_with(counters=(), observations=(), gauges=()):
    registry = MetricsRegistry()
    for name, value in counters:
        registry.counter(name).inc(value)
    for name, values in observations:
        for value in values:
            registry.histogram(name).observe(value)
    for name, value in gauges:
        registry.gauge(name).set(value)
    return registry


class TestMergeSnapshots:
    def test_counters_add(self):
        a = _registry_with(counters=[("dmm.solver.steps", 10)]).snapshot()
        b = _registry_with(counters=[("dmm.solver.steps", 32)]).snapshot()
        merged = merge_snapshots(a, b)
        assert merged["dmm.solver.steps"]["value"] == 42

    def test_disjoint_names_union(self):
        a = _registry_with(counters=[("only.a", 1)]).snapshot()
        b = _registry_with(counters=[("only.b", 2)]).snapshot()
        merged = merge_snapshots(a, b)
        assert merged["only.a"]["value"] == 1
        assert merged["only.b"]["value"] == 2

    def test_histograms_combine_moments_exactly(self):
        a = _registry_with(observations=[("h", [1.0, 2.0])]).snapshot()
        b = _registry_with(observations=[("h", [3.0, 4.0, 5.0])]).snapshot()
        merged = merge_snapshots(a, b)["h"]
        pooled = _registry_with(
            observations=[("h", [1.0, 2.0, 3.0, 4.0, 5.0])]).snapshot()["h"]
        assert merged["count"] == pooled["count"] == 5
        assert merged["total"] == pooled["total"]
        assert merged["min"] == pooled["min"]
        assert merged["max"] == pooled["max"]
        assert math.isclose(merged["mean"], pooled["mean"])
        assert math.isclose(merged["std"], pooled["std"])

    def test_empty_histogram_is_identity(self):
        a = _registry_with(observations=[("h", [7.0])]).snapshot()
        empty = MetricsRegistry()
        empty.histogram("h")  # created, never observed
        merged = merge_snapshots(a, empty.snapshot())
        assert merged["h"] == a["h"]

    def test_commutative_on_counters_and_histograms(self):
        a = _registry_with(counters=[("c", 3)],
                           observations=[("h", [1.0, 5.0])]).snapshot()
        b = _registry_with(counters=[("c", 4)],
                           observations=[("h", [2.0])]).snapshot()
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    def test_associative(self):
        a = _registry_with(counters=[("c", 1)],
                           observations=[("h", [1.0])]).snapshot()
        b = _registry_with(counters=[("c", 2)],
                           observations=[("h", [2.0, 3.0])]).snapshot()
        c = _registry_with(counters=[("c", 3)],
                           observations=[("h", [4.0])]).snapshot()
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right

    def test_gauge_merge_is_right_biased(self):
        a = _registry_with(gauges=[("g", 1.0)]).snapshot()
        b = _registry_with(gauges=[("g", 2.0)]).snapshot()
        assert merge_snapshots(a, b)["g"]["value"] == 2.0
        assert merge_snapshots(b, a)["g"]["value"] == 1.0

    def test_kind_clash_raises(self):
        a = _registry_with(counters=[("x", 1)]).snapshot()
        b = _registry_with(gauges=[("x", 1.0)]).snapshot()
        with pytest.raises(TelemetryError):
            merge_snapshots(a, b)

    def test_inputs_not_mutated(self):
        a = _registry_with(counters=[("c", 1)]).snapshot()
        b = _registry_with(counters=[("c", 2)]).snapshot()
        merge_snapshots(a, b)
        assert a["c"]["value"] == 1
        assert b["c"]["value"] == 2


class TestRegistryMerge:
    def test_merge_into_live_registry(self):
        registry = _registry_with(counters=[("c", 5)],
                                  observations=[("h", [1.0])])
        incoming = _registry_with(counters=[("c", 7)],
                                  observations=[("h", [3.0])],
                                  gauges=[("g", 9.0)])
        registry.merge(incoming.snapshot())
        assert registry.counter("c").value == 12
        histogram = registry.histogram("h")
        assert histogram.count == 2
        assert histogram.total == 4.0
        assert registry.gauge("g").value == 9.0

    def test_merge_matches_pure_merge(self):
        base = _registry_with(counters=[("c", 5)],
                              observations=[("h", [1.0, 2.0])])
        incoming = _registry_with(counters=[("c", 7)],
                                  observations=[("h", [3.0])])
        expected = merge_snapshots(base.snapshot(), incoming.snapshot())
        base.merge(incoming.snapshot())
        assert base.snapshot() == expected

    def test_merge_kind_clash_raises(self):
        registry = _registry_with(counters=[("x", 1)])
        incoming = _registry_with(gauges=[("x", 2.0)])
        with pytest.raises(TelemetryError):
            registry.merge(incoming.snapshot())

    def test_null_registry_merge_is_noop(self):
        incoming = _registry_with(counters=[("c", 1)])
        result = telemetry.NULL_REGISTRY.merge(incoming.snapshot())
        assert result is telemetry.NULL_REGISTRY
        assert len(telemetry.NULL_REGISTRY) == 0

    def test_histogram_snapshot_carries_sum_sq(self):
        registry = _registry_with(observations=[("h", [2.0, 3.0])])
        entry = registry.snapshot()["h"]
        assert entry["sum_sq"] == 13.0
