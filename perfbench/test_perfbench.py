"""Unit tests for the benchmark's own arithmetic and input generation.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import collections
import json
import math
import statistics

import numpy as np
import pytest

from perfbench import catalog, gen, hostspeed, ledger, measure, stats
from perfbench.workloads import LibraryWorkload, Record, ServeWorkload


# -- seeded generation -------------------------------------------------------

GENERATORS = {
    "serve": lambda seed: gen.serve_ops(seed, 2 * len(gen.SERVE_BLOCK)),
    "library-small": gen.library_small_pool,
    "library-batch": gen.library_batch_round,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_identical_inputs(name):
    make = GENERATORS[name]
    assert gen.input_digest(make(7)) == gen.input_digest(make(7))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_other_seed_gives_other_inputs_of_same_sizes_and_mix(name):
    make = GENERATORS[name]
    first, second = make(7), make(8)
    assert gen.input_digest(first) != gen.input_digest(second)
    assert gen.shape_summary(first) == gen.shape_summary(second)


def test_schedule_keeps_the_block_mix_exactly():
    kinds = gen.schedule(3, gen.SERVE_BLOCK, 5 * len(gen.SERVE_BLOCK))
    expected = collections.Counter(gen.SERVE_BLOCK)
    assert collections.Counter(kinds) == {
        kind: 5 * count for kind, count in expected.items()}
    assert kinds != gen.schedule(4, gen.SERVE_BLOCK, len(kinds))


def test_serve_requests_are_distinct():
    ops = gen.serve_ops(2, 4 * len(gen.SERVE_BLOCK))
    bodies = {json.dumps(op["params"], sort_keys=True) for op in ops}
    assert len(bodies) == len(ops)


def test_zipf_draws_are_seeded_and_skewed():
    draws = gen.zipf_draws(5, 600, 20_000)
    assert np.array_equal(draws, gen.zipf_draws(5, 600, 20_000))
    assert not np.array_equal(draws, gen.zipf_draws(6, 600, 20_000))
    counts = sorted(collections.Counter(draws.tolist()).values(),
                    reverse=True)
    assert draws.min() >= 0 and draws.max() < 600
    assert counts[0] > 20 * counts[len(counts) // 2]


def test_quantum_seed_first_base_is_coprime():
    for start in range(1, 40):
        seed = gen.quantum_seed(15, start)
        assert seed >= 16 * start
        base = int(np.random.default_rng(seed).integers(2, 14))
        assert math.gcd(base, 15) == 1


# -- percentiles and sample counts -----------------------------------------

def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("q, count, ok", [
    (99, 1000, True), (99, 999, False), (90, 100, True), (90, 99, False),
    (50, 20, True), (50, 19, False)])
def test_supported_needs_ten_samples_beyond(q, count, ok):
    assert stats.supported(q, count) is ok


def test_highest_supported_and_summary():
    assert stats.highest_supported(100) == 90.0
    assert stats.highest_supported(1000) == 99.0
    assert stats.highest_supported(10_000) == 99.9
    assert stats.highest_supported(5) is None
    summary = stats.latency_summary([0.001 * i for i in range(1, 201)])
    assert summary["samples"] == 200
    assert summary["p50_ms"] == pytest.approx(100.0)
    assert summary["p99_ms"] == pytest.approx(198.0)
    assert summary["tail_q"] == 90.0


def test_spread_matches_statistics_quartiles():
    values = [9.0, 10.0, 10.5, 11.0, 30.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert stats.iqr(values) == third - first
    assert stats.iqr([4.0]) == 0.0


# -- the layer ledger --------------------------------------------------------

def test_self_time_is_span_minus_next_inner_span():
    rows = ledger.self_times([("kernel", [1.0, 1.0, 1.0]),
                              ("entry", [3.0, 3.0, 3.0]),
                              ("parallel", [3.5, 3.5, 3.5])])
    assert [row["self"] for row in rows] == [1.0, 2.0, 0.5]
    assert not any(row["negative"] for row in rows)


def test_negative_self_time_is_flagged_only_beyond_the_spread():
    noisy = ledger.self_times([("entry", [2.0, 3.0, 4.0, 5.0]),
                               ("parallel", [2.5, 3.0, 3.9, 4.5])])
    assert noisy[1]["self"] < 0 and not noisy[1]["negative"]
    wrong = ledger.self_times([("entry", [5.0, 5.0, 5.0]),
                               ("parallel", [4.0, 4.0, 4.0])])
    assert wrong[1]["negative"]


def test_span_log_round_trips(tmp_path):
    spans = ledger.SpanLog()
    spans.record("kernel", 3, 1.0, 1.5, parent="entry")
    spans.record("entry", 3, 2.0, 3.0)
    path = tmp_path / "spans.json"
    spans.write(str(path))
    loaded = json.loads(path.read_text())
    assert [span["name"] for span in loaded] == ["kernel", "entry"]
    assert loaded[0]["parent"] == "entry" and loaded[1]["parent"] is None
    assert [span["id"] for span in loaded] == [0, 1]


# -- host-speed scaling ------------------------------------------------------

def _speed(samples):
    """A HostSpeed holding ``(time, reference cost)`` samples."""
    speed = hostspeed.HostSpeed()
    for when, cost in samples:
        speed.times.append(when)
        speed.costs.append(cost)
    return speed


def test_scaling_uses_the_reference_samples_near_each_operation():
    ref = hostspeed.REFERENCE_S
    # The host runs at full speed until t=10, then at half speed.
    speed = _speed([(0.05 * k, ref if k < 200 else 2 * ref)
                    for k in range(400)])
    fast = Record(0, 5.0, 5.002, 0, None)
    slow = Record(1, 15.0, 15.004, 1, None)
    assert speed.scaled(fast) == pytest.approx(0.002)
    assert speed.scaled(slow) == pytest.approx(0.002)
    assert speed.scaled_span(0.0, 20.0) == pytest.approx(15.0, abs=0.05)
    # No sample near: the run's median.
    assert speed.factor(100.0, 101.0) == pytest.approx(1 / 1.5)


def test_end_to_end_figures_are_at_the_reference_speed():
    ref = hostspeed.REFERENCE_S
    speed = _speed([(0.05 * k, 2 * ref) for k in range(200)])
    records = [Record(index, 2.0 * index, 2.0 * index + duration, index,
                      None) for index, duration in enumerate((1.0, 2.0, 3.0))]
    ops_per_s, p50_ms = measure.end_to_end(LibraryWorkload, records, speed)
    assert ops_per_s == pytest.approx(3 / 3.0)
    assert p50_ms == pytest.approx(1000.0)
    ops_per_s, p50_ms = measure.end_to_end(ServeWorkload, records, speed)
    assert ops_per_s == pytest.approx(3 / 3.5)
    assert p50_ms == pytest.approx(1000.0)


def test_every_layer_metric_has_a_prediction():
    assert set(catalog.MOVES) == set(catalog.PER_LAYER)
    from perfbench.run import WORKLOAD_NAMES
    assert [w["name"] for w in catalog.SPEC["workloads"]] \
        == list(WORKLOAD_NAMES)
