"""Tests for telemetry snapshot merging (the parallel engine's join step).

Worker-local registries are merged into the parent's at join; these
tests pin the algebra down: counter and histogram merging is associative
and commutative on snapshots, histograms combine their moment
accumulators exactly, any split of a run merges back to the serial
snapshot, and kind clashes fail loudly.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import telemetry
from repro.core.exceptions import TelemetryError
from repro.core.parallel import ParallelMap, shutdown_pools
from repro.core.telemetry import MetricsRegistry, merge_snapshots


# -- module-level worker entry point (must pickle) --------------------------

def _tenant_work(task):
    """Worker body: a per-tenant counter and latency histogram."""
    tenant, values = task
    telemetry.counter("test.merge.requests.%s" % tenant).inc()
    hist = telemetry.histogram("test.merge.latency.%s" % tenant)
    for value in values:
        hist.observe(value)
    return len(values)


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

    def test_json_round_trip_stable(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (0.5, -2.0, 0.0, 3.25):
            hist.observe(value)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot


def _apply(registry, operations):
    for tenant, kind, values in operations:
        registry.counter("prop.count.%s.%s" % (tenant, kind)).inc(
            len(values))
        hist = registry.histogram("prop.lat.%s.%s" % (tenant, kind))
        for value in values:
            hist.observe(value)


# Observation values are dyadic rationals (k/1024), so float addition
# of any subset is exact in a double: the serial and the split-merged
# registries accumulate total/sum_sq in different orders, and only
# order-independent sums make "bit-exact" a fair property.  (Counts,
# min and max are order-independent for any float.)
_VALUES = st.integers(min_value=1, max_value=2 ** 20).map(
    lambda n: n / 1024.0)

_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "dee", "acme-1", "acme-2"]),
        st.sampled_from(["solve", "distance"]),
        st.lists(_VALUES, max_size=8),
    ),
    max_size=24,
)


class TestMergeExactness:
    @given(operations=_OPERATIONS, chunks=st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_split_is_bit_exact(self, operations, chunks):
        """Split the op stream across N worker-local registries, merge
        the snapshots, and every moment -- count, total, sum_sq, min,
        max -- equals the serial registry's.
        """
        serial = MetricsRegistry()
        _apply(serial, operations)
        merged = {}
        for start in range(chunks):
            worker = MetricsRegistry()
            _apply(worker, operations[start::chunks])
            merged = merge_snapshots(merged, worker.snapshot())
        assert merged == serial.snapshot()


class TestWorkerIntegration:
    """The same per-tenant workload through real ParallelMap pools."""

    # dyadic values: totals are exact under any summation order, so
    # the pooled merge can be compared bit-for-bit against serial
    TASKS = [("acme", [0.25, 0.5, 0.75]),
             ("bob", [0.5]),
             ("acme", [1.0, 1.25]),
             ("carol", [1.0, 2.0, 4.0])]

    def _run(self, workers):
        shutdown_pools()
        registry = MetricsRegistry()
        with telemetry.use_registry(registry):
            results = ParallelMap(workers=workers).map(_tenant_work,
                                                       self.TASKS)
        assert results == [3, 1, 2, 3]
        snapshot = registry.snapshot()
        # keep only this test's series: the pool adds its own
        # parallel.* bookkeeping that varies with the worker count
        return {name: entry for name, entry in snapshot.items()
                if name.startswith("test.merge.")}

    @pytest.mark.parametrize("workers", [2, "auto"])
    def test_pool_merge_matches_serial(self, workers):
        serial = self._run(1)
        pooled = self._run(workers)
        assert pooled == serial
        latency = serial["test.merge.latency.acme"]
        assert latency["count"] == 5
        assert math.isclose(latency["total"], 3.75)
        assert serial["test.merge.requests.acme"]["value"] == 2
