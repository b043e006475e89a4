"""Differential equivalence: batched oscillator sweeps vs scalar measures.

``measure_batch`` must equal a Python loop over :meth:`measure` bit for
bit (``np.array_equal``), in both operating modes, and ``measure_pairs``
must return identical values for every worker count and chunking.
FAST ``detect`` (one batched distance step, then the rejection step on
candidate pixels only) must find the corners, and make the comparisons,
of the per-pixel ``is_corner`` loop it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import telemetry
from repro.oscillators.distance import MIN_CHUNK_PAIRS, OscillatorDistanceUnit
from repro.oscillators.fast.bresenham import interior_pixels
from repro.oscillators.fast.oscillator_fast import OscillatorFastDetector

ARRAY_SIZES = [1, 2, 7, 64]


def intensity_arrays(seed, size, dtype):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 255.0, size=size)
    b = rng.uniform(0.0, 255.0, size=size)
    if np.issubdtype(np.dtype(dtype), np.integer):
        return a.astype(dtype), b.astype(dtype)
    return a.astype(dtype), b.astype(dtype)


class TestMeasureBatchBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), size=st.sampled_from(ARRAY_SIZES),
           dtype=st.sampled_from(["float64", "float32", "int64", "uint8"]),
           exponent=st.sampled_from([1.0, 1.6, 2.0]))
    def test_behavioral_matches_scalar_loop(self, seed, size, dtype,
                                            exponent):
        unit = OscillatorDistanceUnit(norm_exponent=exponent)
        a, b = intensity_arrays(seed, size, dtype)
        batched = unit.measure_batch(a, b)
        scalar = np.array([unit.measure(x, y) for x, y in zip(a, b)])
        assert np.array_equal(batched, scalar)

    def test_behavioral_matches_scalar_on_2d_arrays(self):
        unit = OscillatorDistanceUnit()
        a, b = intensity_arrays(3, (4, 5), "float64")
        batched = unit.measure_batch(a, b)
        scalar = np.array([[unit.measure(x, y) for x, y in zip(ra, rb)]
                           for ra, rb in zip(a, b)])
        assert batched.shape == (4, 5)
        assert np.array_equal(batched, scalar)

    def test_physical_fallback_matches_scalar_loop(self):
        # physical mode has no dense form; the batch API must still give
        # exactly the scalar ODE answers (few pairs, short sim: it's slow),
        # and count one eval per pair as the scalar path does
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            unit = OscillatorDistanceUnit(mode="physical", cycles=10)
            a = np.array([10.0, 128.0, 200.0])
            b = np.array([12.0, 128.0, 100.0])
            batched = unit.measure_batch(a, b)
            assert registry.counter("oscillator.distance.evals").value == 3
            scalar = np.array([unit.measure(x, y) for x, y in zip(a, b)])
        assert np.array_equal(batched, scalar)

    def test_identical_intensities_measure_baseline(self):
        unit = OscillatorDistanceUnit(behavioral_baseline=0.125)
        values = np.array([0.0, 17.0, 255.0])
        assert np.array_equal(unit.measure_batch(values, values),
                              np.full(3, 0.125))


class TestMeasurePairsWorkerStability:
    def pairs(self, count=40, seed=11):
        rng = np.random.default_rng(seed)
        return [(float(a), float(b))
                for a, b in rng.uniform(0.0, 255.0, size=(count, 2))]

    def test_identical_across_workers_1_2_auto(self):
        unit = OscillatorDistanceUnit()
        pairs = self.pairs()
        serial = unit.measure_pairs(pairs)
        for workers, chunk_size in ((1, 10), (2, 10), ("auto", 10),
                                    (2, 7), (2, 1)):
            chunked = unit.measure_pairs(pairs, workers=workers,
                                         chunk_size=chunk_size)
            assert chunked == serial, (workers, chunk_size)

    def test_matches_scalar_measure_loop(self):
        unit = OscillatorDistanceUnit()
        pairs = self.pairs(count=9)
        assert unit.measure_pairs(pairs) \
            == [unit.measure(a, b) for a, b in pairs]

    @pytest.mark.parametrize("count", [
        MIN_CHUNK_PAIRS - 1, MIN_CHUNK_PAIRS, MIN_CHUNK_PAIRS + 1,
        8 * MIN_CHUNK_PAIRS + 3])
    @pytest.mark.parametrize("options", [{"retry": 2}, {"workers": 2}],
                             ids=["retry", "workers"])
    def test_default_chunks_around_the_floor(self, count, options):
        # one chunk up to the floor, two just past it, and ~8 chunks of
        # more than the floor far past it
        unit = OscillatorDistanceUnit()
        pairs = np.random.default_rng(count).uniform(0.0, 255.0,
                                                     size=(count, 2))
        assert unit.measure_pairs(pairs, **options) \
            == unit.measure_pairs(pairs)


def fast_scene(seed, height, width, scene, dtype):
    """A bright rectangle on texture, or uniform noise."""
    rng = np.random.default_rng(seed)
    if scene == "noise":
        image = rng.uniform(0.0, 255.0, size=(height, width))
    else:
        image = rng.uniform(20.0, 60.0, size=(height, width))
        top, left = rng.integers(0, height), rng.integers(0, width)
        bottom = top + rng.integers(3, height + 3)
        right = left + rng.integers(3, width + 3)
        image[top:bottom, left:right] = rng.uniform(160.0, 220.0)
    return image.astype(dtype)


def fast_counts(registry):
    return (registry.counter("oscillator.fast.comparisons").value,
            registry.counter("oscillator.distance.evals").value)


class TestDetectMatchesPerPixelReference:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), height=st.integers(5, 40),
           width=st.integers(5, 40),
           scene=st.sampled_from(["rectangle", "noise"]),
           dtype=st.sampled_from(["float64", "float32", "int64", "uint8"]),
           threshold=st.integers(10, 50),
           n=st.sampled_from([1, 3, 9, 12, 16]),
           unit=st.sampled_from(
               [{}, {"norm_exponent": 3.0, "behavioral_baseline": 0.1}]),
           path=st.sampled_from(
               [{}, {"retry": 2}, {"workers": 2, "chunk_size": 5}]))
    def test_detect_matches_is_corner_loop(self, seed, height, width, scene,
                                           dtype, threshold, n, unit, path):
        # n <= 7 leaves room for several flagged runs on one circle
        image = fast_scene(seed, height, width, scene, dtype)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            reference = OscillatorFastDetector(
                threshold, n, OscillatorDistanceUnit(**unit))
            detector = OscillatorFastDetector(
                threshold, n, OscillatorDistanceUnit(**unit))
            _, evals_before = fast_counts(registry)
            expected = [pixel for pixel in interior_pixels(image)
                        if reference.is_corner(image, *pixel)]
            before = fast_counts(registry)
            reference_evals = before[1] - evals_before
            corners = detector.detect(image, **path)
            after = fast_counts(registry)
        pixels = len(list(interior_pixels(image)))
        assert corners == expected
        assert detector.last_stats == {
            "pixels": pixels,
            "oscillator_comparisons": reference._comparisons,
            "comparisons_per_pixel": reference._comparisons / max(1, pixels),
            "corners": len(expected),
        }
        assert reference_evals == reference._comparisons
        assert after == (before[0] + reference._comparisons,
                         before[1] + reference_evals)
