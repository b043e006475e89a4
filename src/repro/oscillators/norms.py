"""Effective l_k distance norms from the XOR measure (Fig. 5).

"For a large range of coupling strengths, two nearly-identical
oscillators always have the [1-Avg(XOR)] measure minima near the point
where dVgs = 0.  For increasing coupling strengths, (that is, decreasing
R_C), the shape of the curves around the minima point follow increasing
l_k norms ... from almost (k ~ 1.6) to parabolic (k ~ 2.0) to extremely
nonlinear (k ~ 3.4)."

This module sweeps the input difference, records the XOR measure, and
fits the effective exponent ``k`` of ``measure(d) - measure(0) ~ d^k`` by
log-log regression around the minimum -- the quantity Fig. 5 plots.
"""

import numpy as np

from ..core.exceptions import OscillatorError
from .locking import DEFAULT_C_C, DEFAULT_CYCLES, simulate_calibrated_pair
from .readout import XorReadout


def xor_measure_curve(base_v_gs, delta_v_gs_values, r_c, c_c=DEFAULT_C_C,
                      cycles=DEFAULT_CYCLES, readout=None,
                      oscillator_kwargs=None):
    """The Fig. 5 raw material: XOR measure at each input difference.

    Returns an array of ``1 - Avg(XOR)`` values aligned with
    ``delta_v_gs_values``.
    """
    readout = readout or XorReadout()
    measures = []
    for delta in delta_v_gs_values:
        times, v_1, v_2 = simulate_calibrated_pair(
            base_v_gs, base_v_gs + delta, r_c, c_c=c_c, cycles=cycles,
            oscillator_kwargs=oscillator_kwargs)
        measures.append(readout.measure(times, v_1, v_2))
    return np.asarray(measures)


def fit_norm_exponent(delta_v_gs_values, measures, min_delta_measure=1e-3):
    """Fit ``k`` in ``measure(d) - min(measure) ~ |d - d_min|^k``.

    Per the paper, the curves "have the [1-Avg(XOR)] measure minima
    *near* the point where dVgs = 0" -- not necessarily exactly at it --
    so the fit's baseline is the sweep minimum, and the exponent is the
    log-log slope of the rise beyond the minimum.  Two exclusions keep
    the fit inside the l_k regime:

    * points whose rise is below ``min_delta_measure`` (noise floor),
    * points beyond the locking edge, detected as the first substantial
      fall-back of the curve (the paper: curves "becoming irregular near
      the edge of the locking range").

    Raises :class:`OscillatorError` when fewer than three usable points
    remain.
    """
    deltas = np.abs(np.asarray(delta_v_gs_values, dtype=float))
    measures = np.asarray(measures, dtype=float)
    if len(deltas) != len(measures):
        raise OscillatorError("deltas/measures length mismatch")
    if len(deltas) < 4:
        raise OscillatorError("need at least four sweep points")
    order = np.argsort(deltas, kind="stable")
    deltas = deltas[order]
    measures = measures[order]
    # locate the minimum within the small-delta half of the sweep
    half = max(1, len(deltas) // 2)
    min_position = int(np.argmin(measures[:half + 1]))
    baseline = float(measures[min_position])
    # truncate at the locking edge: first substantial fall-back
    edge_tolerance = 0.05
    last_usable = len(deltas)
    running_max = baseline
    for position in range(min_position + 1, len(deltas)):
        if measures[position] < running_max - edge_tolerance:
            last_usable = position
            break
        running_max = max(running_max, measures[position])
    offsets = deltas - deltas[min_position]
    rise = measures - baseline
    usable = np.zeros(len(deltas), dtype=bool)
    usable[min_position + 1:last_usable] = True
    usable &= (rise > min_delta_measure) & (offsets > 0)
    if np.count_nonzero(usable) < 3:
        raise OscillatorError(
            "too few points rise above the baseline to fit an exponent")
    slope, _intercept = np.polyfit(np.log(offsets[usable]),
                                   np.log(rise[usable]), 1)
    return float(slope)


def effective_norm_exponent(r_c, base_v_gs=1.8, deltas=None, c_c=DEFAULT_C_C,
                            cycles=DEFAULT_CYCLES, oscillator_kwargs=None):
    """End-to-end Fig. 5 point: simulate the sweep and fit ``k`` for ``r_c``.

    The default detuning grid spans the locked region of the calibrated
    operating point.  Returns ``(k, deltas, measures)``.
    """
    if deltas is None:
        deltas = np.array([0.0, 0.01, 0.02, 0.03, 0.045, 0.06, 0.08])
    measures = xor_measure_curve(base_v_gs, deltas, r_c, c_c=c_c,
                                 cycles=cycles,
                                 oscillator_kwargs=oscillator_kwargs)
    k = fit_norm_exponent(deltas, measures)
    return k, np.asarray(deltas), measures


def analytic_norm_curve(deltas, k, scale=1.0, baseline=0.0):
    """Reference ``baseline + scale * |d|^k`` curve for plotting/tests."""
    deltas = np.abs(np.asarray(deltas, dtype=float))
    return baseline + scale * deltas ** k
