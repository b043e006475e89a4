"""The coupled-oscillator distance primitive used by the FAST pipeline.

Section III.B: "The intensities of the pixels under comparison are then
fed as voltages to the coupled oscillator distance metric computation
primitive for the comparison operation.  The distance metric gives an
approximation of absolute difference between the two voltages, but the
direction of the difference ... is not known."

:class:`OscillatorDistanceUnit` is that primitive: two pixel intensities
are encoded as the gate voltages of a coupled pair and the XOR-readout
measure (a monotone function of |difference| inside the locking range) is
returned.  Two operating modes:

* ``behavioral`` (default) -- the calibrated closed-form response
  ``measure = baseline + scale * |dVgs|^k`` with the exponent taken from
  the Fig. 5 family.  This is what the image-scale FAST benchmarks use:
  one pixel comparison costs one function evaluation, exactly how an
  accuracy-tunable oscillator co-processor would be deployed behind a
  calibration table.
* ``physical`` -- every comparison runs the full coupled-pair ODE
  simulation and XOR readout.  Slow; used by integration tests to confirm
  the behavioral table tracks the physics.
"""

import time

import numpy as np

from ..core import cache as result_cache
from ..core import parallel, profiling, resilience, telemetry
from ..core.exceptions import OscillatorError
from .locking import DEFAULT_C_C, simulate_calibrated_pair
from .norms import xor_measure_curve
from .readout import XorReadout


def _measure_pairs_chunk(payload):
    """Worker entry point: score one block of intensity pairs.

    Rebuilds the distance unit from its config dict inside the worker
    (the unit binds telemetry instruments at construction, so each
    worker's copy binds to that worker's local registry).  ``pairs``
    arrives as an ``(n, 2)`` float array -- a shape the engine can ship
    through shared memory -- and the whole block is scored in one
    :meth:`OscillatorDistanceUnit.measure_batch` call.
    """
    config, pairs = payload
    unit = OscillatorDistanceUnit(**config)
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return unit.measure_batch(pairs[:, 0], pairs[:, 1])


def _block_is_finite(values):
    """Validate hook: every measure in a block must be a finite float."""
    return bool(np.isfinite(values).all())


def _encode_measures(values):
    return [float(value) for value in values]


def _pair_array(pairs):
    """``pairs`` as one ``(n, 2)`` float64 array, or raise.

    Accepts any ``(n, 2)`` array (any memory order or numeric dtype) or
    a sequence of two-element rows; empty input is ``(0, 2)``.
    """
    try:
        array = np.asarray(pairs, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise OscillatorError("pairs must be (a, b) intensity pairs: %s"
                              % error)
    if array.size == 0 and array.ndim == 1:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise OscillatorError("pairs must have shape (n, 2), got %s"
                              % (array.shape,))
    return array


class OscillatorDistanceUnit:
    """Analog |a - b| comparator built from a coupled oscillator pair.

    Parameters
    ----------
    mode : str
        ``"behavioral"`` or ``"physical"``.
    base_v_gs : float
        Operating-point gate voltage both inputs are biased around.
    v_gs_span : float
        Full-scale input swing in volts: intensity 0 maps to
        ``base - span/2``, intensity ``intensity_scale`` maps to
        ``base + span/2``.  Kept inside the pair's locking range.
    r_c : float
        Coupling resistance (selects the effective norm exponent).
    norm_exponent : float
        Behavioral-mode exponent ``k``; calibrate from
        :func:`repro.oscillators.norms.effective_norm_exponent`.
    intensity_scale : float
        Input intensity full scale (255 for 8-bit images).
    cycles : int
        Physical-mode simulation length in oscillation cycles.
    """

    def __init__(self, mode="behavioral", base_v_gs=1.8, v_gs_span=0.08,
                 r_c=35e3, c_c=DEFAULT_C_C, norm_exponent=1.6,
                 behavioral_scale=None, behavioral_baseline=0.0,
                 intensity_scale=255.0, cycles=120):
        if mode not in ("behavioral", "physical"):
            raise OscillatorError("mode must be 'behavioral' or 'physical'")
        if v_gs_span <= 0:
            raise OscillatorError("v_gs_span must be positive")
        self.mode = mode
        self.base_v_gs = float(base_v_gs)
        self.v_gs_span = float(v_gs_span)
        self.r_c = float(r_c)
        self.c_c = float(c_c)
        self.norm_exponent = float(norm_exponent)
        self.behavioral_baseline = float(behavioral_baseline)
        if behavioral_scale is None:
            # normalize so a full-scale difference reads 1.0
            behavioral_scale = (1.0 - self.behavioral_baseline) \
                / (self.v_gs_span ** self.norm_exponent)
        self.behavioral_scale = float(behavioral_scale)
        self.intensity_scale = float(intensity_scale)
        self.cycles = int(cycles)
        self._readout = XorReadout()
        # Bound once at construction; no-op singletons when telemetry is
        # disabled, so the per-comparison hot path stays branch-cheap.
        registry = telemetry.get_registry()
        self._eval_counter = registry.counter("oscillator.distance.evals")
        self._eval_timer = registry.histogram(
            "oscillator.distance.eval_seconds")

    # -- encoding ---------------------------------------------------------

    def intensity_to_v_gs(self, intensity):
        """Map a pixel intensity onto the oscillator input voltage."""
        fraction = float(intensity) / self.intensity_scale
        return self.base_v_gs + (fraction - 0.5) * self.v_gs_span

    def delta_v_gs(self, intensity_a, intensity_b):
        """Gate-voltage difference the pair sees for two intensities."""
        return (self.intensity_to_v_gs(intensity_a)
                - self.intensity_to_v_gs(intensity_b))

    # -- the primitive -------------------------------------------------------

    def measure(self, intensity_a, intensity_b):
        """XOR-readout measure for two pixel intensities (monotone in |a-b|)."""
        if self._eval_timer:
            start = time.perf_counter()
            result = self._measure(intensity_a, intensity_b)
            self._eval_timer.observe(time.perf_counter() - start)
            self._eval_counter.inc()
            return result
        return self._measure(intensity_a, intensity_b)

    def _measure(self, intensity_a, intensity_b):
        delta = abs(self.delta_v_gs(intensity_a, intensity_b))
        if self.mode == "behavioral":
            # np.power, not the builtin ``**``: libm's pow disagrees
            # with numpy's vectorized pow in the last ulp for ~5% of
            # inputs, while np.power is bit-stable across array shapes,
            # offsets, and strides -- using it here keeps this scalar
            # reference bit-identical to :meth:`measure_batch`.
            response = self.behavioral_baseline + self.behavioral_scale \
                * float(np.power(delta, self.norm_exponent))
            return float(min(1.0, response))
        v_a = self.intensity_to_v_gs(intensity_a)
        v_b = self.intensity_to_v_gs(intensity_b)
        times, wave_a, wave_b = simulate_calibrated_pair(
            v_a, v_b, self.r_c, c_c=self.c_c, cycles=self.cycles)
        return self._readout.measure(times, wave_a, wave_b)

    def measure_batch(self, intensities_a, intensities_b):
        """Measures for two parallel intensity arrays, element-wise.

        Bit-identical to calling :meth:`measure` on every pair (the
        equivalence tier asserts ``np.array_equal``): the behavioral
        response is the same chain of IEEE-754 operations, applied to
        the whole array at once instead of pair-at-a-time through the
        interpreter.  Physical mode has no dense form (each comparison
        is an ODE integration) and falls back to the scalar loop.
        Telemetry counts every element in ``oscillator.distance.evals``;
        ``eval_seconds`` sees one observation per batch.
        """
        a = np.asarray(intensities_a, dtype=float)
        b = np.asarray(intensities_b, dtype=float)
        if a.shape != b.shape:
            raise OscillatorError("intensity array shape mismatch")
        if self.mode != "behavioral":
            flat_a, flat_b = a.ravel(), b.ravel()
            return np.array([self._measure(x, y)
                             for x, y in zip(flat_a, flat_b)]
                            ).reshape(a.shape)
        if self._eval_timer:
            start = time.perf_counter()
        v_a = self.base_v_gs \
            + (a / self.intensity_scale - 0.5) * self.v_gs_span
        v_b = self.base_v_gs \
            + (b / self.intensity_scale - 0.5) * self.v_gs_span
        delta = np.abs(v_a - v_b)
        response = self.behavioral_baseline \
            + self.behavioral_scale * np.power(delta, self.norm_exponent)
        measures = np.minimum(1.0, response)
        if self._eval_timer:
            self._eval_timer.observe(time.perf_counter() - start)
            self._eval_counter.inc(a.size)
        return measures

    def config(self):
        """Constructor kwargs reproducing this unit (picklable dict).

        The parallel fan-out ships this instead of the unit itself so
        worker-side copies bind their telemetry instruments to the
        worker's local registry.
        """
        return {
            "mode": self.mode,
            "base_v_gs": self.base_v_gs,
            "v_gs_span": self.v_gs_span,
            "r_c": self.r_c,
            "c_c": self.c_c,
            "norm_exponent": self.norm_exponent,
            "behavioral_scale": self.behavioral_scale,
            "behavioral_baseline": self.behavioral_baseline,
            "intensity_scale": self.intensity_scale,
            "cycles": self.cycles,
        }

    def measure_pairs(self, pairs, workers=None, chunk_size=None,
                      timeout=None, retry=None, checkpoint=None,
                      resume_from=None, checkpoint_every=1, cache=None):
        """Measures for a sequence of ``(a, b)`` intensity pairs, in order.

        ``pairs`` is an ``(n, 2)`` array or a sequence of ``(a, b)``
        rows; any other shape raises :class:`OscillatorError`.  The
        image-scale fan-out path: pairs are split into blocks
        (chunking depends only on the pair count and ``chunk_size``) and
        scored on the parallel engine's workers; each worker's telemetry
        (``oscillator.distance.evals`` etc.) merges into the active
        registry at join.  The primitive is deterministic, so results
        are identical for every worker count; ``workers=1`` with
        ``chunk_size=None`` (and no resilience options) scores inline on
        this unit.  ``timeout``/``retry`` bound and re-dispatch failed
        blocks; ``checkpoint``/``resume_from`` (paths) persist finished
        blocks so an interrupted image sweep resumes where it stopped.
        ``cache`` (None / False / path /
        :class:`~repro.core.cache.ResultCache`) reuses measures
        content-addressed by the pair values and the unit's calibration
        (the primitive has no RNG, so every workload is cacheable):
        whole-call on the serial path, per block on the chunked path.
        """
        pair_array = _pair_array(pairs)
        workers = parallel.resolve_workers(workers)
        resilient = (timeout is not None or retry is not None
                     or checkpoint is not None or resume_from is not None)
        config = self.config()

        def cache_meta():
            return {"pairs": result_cache.array_fingerprint(pair_array),
                    "count": len(pair_array), "config": config}

        if workers == 1 and chunk_size is None and not resilient:
            spec = result_cache.spec_for(
                cache, "oscillator-distance", cache_meta,
                encode=_encode_measures)
            if spec is not None:
                hit, measures = spec.lookup()
                if hit:
                    return measures
            start = time.perf_counter()
            measures = self.measure_batch(pair_array[:, 0],
                                          pair_array[:, 1]).tolist()
            profiling.record_throughput("oscillator.distance.pairs",
                                        len(pair_array),
                                        time.perf_counter() - start)
            if spec is not None:
                spec.store(measures)
            return measures
        sizes = parallel.chunk_sizes(len(pair_array), chunk_size)
        chunks = []
        offset = 0
        for size in sizes:
            chunks.append(pair_array[offset:offset + size])
            offset += size
        ckpt = None
        if checkpoint is not None or resume_from is not None:
            meta = {"pairs": len(pair_array), "sizes": sizes,
                    "config": config}
            ckpt = resilience.Checkpointer(
                checkpoint if checkpoint is not None else resume_from,
                "oscillator-distance", meta=meta, encode=_encode_measures,
                every=checkpoint_every, resume_from=resume_from)
        spec = result_cache.spec_for(
            cache, "oscillator-distance-chunk",
            lambda: dict(cache_meta(), sizes=sizes),
            encode=_encode_measures)
        start = time.perf_counter()
        blocks = parallel.ParallelMap(workers=workers, timeout=timeout).map(
            _measure_pairs_chunk, [(config, chunk) for chunk in chunks],
            retry=retry, validate=_block_is_finite, checkpoint=ckpt,
            cache=spec)
        profiling.record_throughput("oscillator.distance.pairs",
                                    len(pair_array),
                                    time.perf_counter() - start)
        if not blocks:
            return []
        return np.concatenate(
            [np.asarray(block, dtype=float) for block in blocks]).tolist()

    def measure_threshold(self, intensity_threshold):
        """Measure level corresponding to an intensity difference threshold.

        The FAST comparator asks "is |a - b| > t"; in oscillator hardware
        that is "is the measure above measure(t)", with measure(t) supplied
        by this calibration helper (behavioral response evaluated at t).
        """
        delta = abs(self.delta_v_gs(intensity_threshold, 0.0))
        response = self.behavioral_baseline + self.behavioral_scale \
            * float(np.power(delta, self.norm_exponent))
        return float(min(1.0, response))

    def exceeds(self, intensity_a, intensity_b, intensity_threshold):
        """True when the analog distance reads above the threshold level."""
        return self.measure(intensity_a, intensity_b) \
            > self.measure_threshold(intensity_threshold)

    # -- calibration -----------------------------------------------------------

    def calibrate_from_physics(self, num_points=6):
        """Fit the behavioral response to fresh physical simulations.

        Runs the XOR-measure sweep across the unit's input span, fits the
        exponent/scale/baseline, updates the behavioral parameters in
        place, and returns ``(deltas, measures)`` for inspection.
        """
        deltas = np.linspace(0.0, self.v_gs_span, num_points)
        measures = xor_measure_curve(self.base_v_gs, deltas, self.r_c,
                                     c_c=self.c_c, cycles=self.cycles)
        baseline = float(measures[0])
        rise = measures - baseline
        usable = deltas > 0
        usable &= rise > 1e-3
        if np.count_nonzero(usable) >= 2:
            slope, intercept = np.polyfit(np.log(deltas[usable]),
                                          np.log(rise[usable]), 1)
            self.norm_exponent = float(slope)
            self.behavioral_scale = float(np.exp(intercept))
            self.behavioral_baseline = baseline
        return deltas, measures

    def __repr__(self):
        return ("OscillatorDistanceUnit(mode=%s, k=%.2f, r_c=%g)"
                % (self.mode, self.norm_exponent, self.r_c))
