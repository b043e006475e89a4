"""Tests for the l_k norm fitting (Fig. 5) and the distance primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import OscillatorError
from repro.oscillators.distance import OscillatorDistanceUnit
from repro.oscillators.norms import analytic_norm_curve, fit_norm_exponent


class TestFitNormExponent:
    @pytest.mark.parametrize("k", [1.0, 1.6, 2.0, 3.4])
    def test_recovers_known_exponent(self, k):
        deltas = np.array([0.0, 0.01, 0.02, 0.03, 0.05, 0.08])
        # normalize so the largest delta rises well above the noise floor
        scale = 1.0 / 0.08 ** k
        measures = analytic_norm_curve(deltas, k, scale=scale, baseline=0.1)
        assert fit_norm_exponent(deltas, measures) == pytest.approx(k,
                                                                    rel=1e-6)

    def test_noise_tolerance(self):
        rng = np.random.default_rng(0)
        deltas = np.array([0.0, 0.01, 0.02, 0.03, 0.05, 0.08])
        measures = analytic_norm_curve(deltas, 2.0, scale=5.0)
        measures = measures * (1.0 + rng.normal(0, 0.02, measures.shape))
        measures[0] = 0.0
        assert fit_norm_exponent(deltas, measures) == pytest.approx(2.0,
                                                                    abs=0.3)

    def test_requires_zero_point(self):
        with pytest.raises(OscillatorError):
            fit_norm_exponent([0.01, 0.02, 0.04], [0.1, 0.2, 0.4])

    def test_requires_enough_rising_points(self):
        with pytest.raises(OscillatorError):
            fit_norm_exponent([0.0, 0.01, 0.02], [0.5, 0.5, 0.5])

    def test_length_mismatch(self):
        with pytest.raises(OscillatorError):
            fit_norm_exponent([0.0, 0.1], [0.0])

    def test_symmetric_sweep_fit_is_independent_of_tie_order(self):
        """+d and -d tie on |d|.  numpy's default sort may reorder ties
        in arrays of 8 or more (its SIMD kernels do), so the fit must
        use a stable sort: presorting the points stably changes nothing.
        """
        rng = np.random.default_rng(7)
        half = np.array([0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08])
        deltas = np.concatenate([-half[::-1], [0.0], half])
        for _ in range(20):
            measures = analytic_norm_curve(deltas, 2.0, scale=50.0,
                                           baseline=0.1)
            measures = measures * (1.0 + rng.normal(0, 0.05,
                                                    measures.shape))
            order = rng.permutation(len(deltas))
            d, m = deltas[order], measures[order]
            s = np.argsort(np.abs(d), kind="stable")
            assert fit_norm_exponent(d, m) == fit_norm_exponent(d[s], m[s])


class TestAnalyticCurve:
    def test_baseline_and_scale(self):
        curve = analytic_norm_curve([0.0, 1.0], 2.0, scale=3.0,
                                    baseline=0.5)
        assert curve.tolist() == [0.5, 3.5]

    def test_symmetric_in_sign(self):
        assert analytic_norm_curve([-0.5], 2.0)[0] == \
            analytic_norm_curve([0.5], 2.0)[0]


class TestDistanceUnitBehavioral:
    def test_zero_distance(self):
        unit = OscillatorDistanceUnit()
        assert unit.measure(128, 128) == pytest.approx(
            unit.behavioral_baseline)

    def test_monotone_in_difference(self):
        unit = OscillatorDistanceUnit()
        values = [unit.measure(100, 100 + d) for d in (0, 10, 40, 120)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_symmetric(self):
        unit = OscillatorDistanceUnit()
        assert unit.measure(30, 200) == pytest.approx(unit.measure(200, 30))

    def test_full_scale_reads_one(self):
        unit = OscillatorDistanceUnit()
        assert unit.measure(0, 255) == pytest.approx(1.0)

    def test_threshold_comparator(self):
        unit = OscillatorDistanceUnit()
        assert unit.exceeds(100, 160, 30)
        assert not unit.exceeds(100, 120, 30)

    def test_threshold_level_matches_measure(self):
        unit = OscillatorDistanceUnit()
        threshold = 25
        level = unit.measure_threshold(threshold)
        assert unit.measure(0, threshold) == pytest.approx(level)

    def test_voltage_encoding_span(self):
        unit = OscillatorDistanceUnit(base_v_gs=1.8, v_gs_span=0.08)
        assert unit.intensity_to_v_gs(0) == pytest.approx(1.76)
        assert unit.intensity_to_v_gs(255) == pytest.approx(1.84)
        assert unit.intensity_to_v_gs(127.5) == pytest.approx(1.8)

    def test_invalid_construction(self):
        with pytest.raises(OscillatorError):
            OscillatorDistanceUnit(mode="quantum")
        with pytest.raises(OscillatorError):
            OscillatorDistanceUnit(v_gs_span=0.0)

    def test_exponent_changes_shape(self):
        gentle = OscillatorDistanceUnit(norm_exponent=1.2)
        sharp = OscillatorDistanceUnit(norm_exponent=3.0)
        # below full scale the high-k unit reads relatively lower
        assert sharp.measure(100, 140) < gentle.measure(100, 140)


@pytest.mark.slow
class TestDistanceUnitPhysical:
    def test_physical_mode_monotone(self):
        unit = OscillatorDistanceUnit(mode="physical", cycles=80)
        near = unit.measure(128, 138)
        far = unit.measure(128, 230)
        assert far > near

    def test_calibrate_from_physics_updates_exponent(self):
        unit = OscillatorDistanceUnit(cycles=80)
        deltas, measures = unit.calibrate_from_physics(num_points=5)
        assert len(deltas) == len(measures) == 5
        assert 0.3 < unit.norm_exponent < 6.0


@settings(max_examples=30, deadline=None)
@given(a=st.integers(min_value=0, max_value=255),
       b=st.integers(min_value=0, max_value=255))
def test_property_behavioral_measure_bounded_and_symmetric(a, b):
    """The behavioral response is a bounded symmetric pseudo-distance."""
    unit = OscillatorDistanceUnit()
    measure = unit.measure(a, b)
    assert 0.0 <= measure <= 1.0
    assert measure == pytest.approx(unit.measure(b, a))
