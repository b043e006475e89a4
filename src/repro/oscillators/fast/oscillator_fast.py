"""FAST corner detection using coupled-oscillator distance norms (Fig. 6).

Section III.B describes a two-step flow, reproduced here exactly:

1. **Distance step** -- the pixel under test is compared against its 16
   circle neighbours through the oscillator distance primitive.  The
   primitive reports a monotone measure of |difference| but not its sign
   ("the direction of the difference ... is not known and does not
   matter"), so a circle pixel is flagged when its measure exceeds the
   calibrated threshold level.
2. **False-positive rejection** -- a contiguous run of flagged pixels may
   mix brighter and darker neighbours (invisible to an unsigned metric).
   "we compare the adjacent pixels in the result set with each other to
   check if they are similar.  If any of the difference values are
   greater than two times the threshold, then we can classify the result
   set as a false positive."

Note the doubled comparison count the paper concedes: "we must do two
comparison steps instead of the one required for the baseline software
algorithm" -- the detector tracks primitive invocations so the power /
throughput models can charge for them.
"""

import time

import numpy as np

from ...core import parallel, profiling, telemetry
from ...core import cache as result_cache
from ..distance import OscillatorDistanceUnit
from .bresenham import (CIRCLE_OFFSETS_R3, circle_intensities,
                        interior_pixel_array)

#: The circle offsets as a ``(16, 2)`` index array.
_RING = np.array(CIRCLE_OFFSETS_R3)

#: Fewest pixels in a default chunk of
#: :meth:`OscillatorFastDetector.detect`.  Measured on a 2-vCPU host
#: (min of 20): ``_scan`` costs ~1.0-2.9 us per pixel on a smooth
#: scene and ~5.5-6 us on noise (24x24 to 96x96), plus ~0.1 ms per
#: call, while a pool dispatch costs ~110-145 us per chunk.  A
#: 1,024-pixel chunk (~1-6 ms) repays its dispatch; a small image is
#: one chunk, and a 256x256 image still splits into 8.
MIN_CHUNK_PIXELS = 1024


def _encode_block(value):
    corners, comparisons, pixels = value
    return {"corners": [[int(row), int(col)] for row, col in corners],
            "comparisons": int(comparisons), "pixels": int(pixels)}


def _decode_block(doc):
    return ([(int(row), int(col)) for row, col in doc["corners"]],
            int(doc["comparisons"]), int(doc["pixels"]))


def _detect_chunk(payload):
    """Worker entry point: segment-test one block of candidate pixels.

    Rebuilds the detector (and its distance unit) from config inside the
    worker; returns ``(corners, comparisons, pixels)`` for the block.
    """
    threshold, n, unit_config, image, pixels = payload
    detector = OscillatorFastDetector(
        threshold=threshold, n=n,
        distance_unit=OscillatorDistanceUnit(**unit_config))
    return detector._scan(image, pixels)


def _merge_blocks(blocks):
    """Merge: corners in pixel order, comparison and pixel totals."""
    corners = []
    comparisons = pixels = 0
    for block_corners, block_comparisons, block_pixels in blocks:
        corners.extend(block_corners)
        comparisons += block_comparisons
        pixels += block_pixels
    return corners, comparisons, pixels


def _circular_runs(flags):
    """Maximal circular runs of True as (start, length) pairs."""
    flags = list(bool(f) for f in flags)
    size = len(flags)
    if all(flags):
        return [(0, size)]
    if not any(flags):
        return []
    runs = []
    # rotate so position 0 is False, making runs linear
    first_false = flags.index(False)
    rotated = flags[first_false:] + flags[:first_false]
    start = None
    for position, value in enumerate(rotated):
        if value and start is None:
            start = position
        elif not value and start is not None:
            runs.append(((start + first_false) % size, position - start))
            start = None
    if start is not None:
        runs.append(((start + first_false) % size, len(rotated) - start))
    return runs


def _has_run(flags, n):
    """Rows of a ``(pixels, 16)`` flag array with a circular run >= ``n``.

    A run of ``n`` starts at position ``s`` when the flags at ``s`` ..
    ``s + n - 1`` (mod 16) are all set: their sum, read off a cumulative
    sum over the row with its first ``n - 1`` flags appended, is ``n``.
    """
    size = flags.shape[1]
    wrapped = np.concatenate([flags, flags[:, :n - 1]], axis=1)
    counts = np.zeros((len(flags), size + n), dtype=np.intp)
    np.cumsum(wrapped, axis=1, out=counts[:, 1:])
    return ((counts[:, n:] - counts[:, :size]) == n).any(axis=1)


class OscillatorFastDetector:
    """The Fig. 6 detector: oscillator distance step + rejection step.

    Parameters
    ----------
    threshold : float
        Intensity margin ``t`` (same meaning as the software detector).
    n : int
        Contiguity requirement.
    distance_unit : OscillatorDistanceUnit, optional
        The analog comparison primitive; a behavioral-mode unit with the
        calibrated Fig. 5 exponent is built by default.
    """

    def __init__(self, threshold=30.0, n=9, distance_unit=None):
        if not 1 <= n <= 16:
            raise ValueError("n must be in [1, 16]")
        self.threshold = float(threshold)
        self.n = int(n)
        self.distance_unit = distance_unit or OscillatorDistanceUnit()
        #: statistics of the last detect() call
        self.last_stats = {}
        self._comparisons = 0

    def _exceeds(self, intensity_a, intensity_b, margin):
        self._comparisons += 1
        return self.distance_unit.measure(intensity_a, intensity_b) \
            > self.distance_unit.measure_threshold(margin)

    def is_corner(self, image, row, col):
        """Run the two-step Fig. 6 test on one pixel."""
        center = float(np.asarray(image)[row, col])
        circle = circle_intensities(image, row, col)
        # step 1: unsigned distance test against the center pixel
        flagged = [self._exceeds(value, center, self.threshold)
                   for value in circle]
        candidate_runs = [run for run in _circular_runs(flagged)
                          if run[1] >= self.n]
        if not candidate_runs:
            return False
        # step 2: adjacent-similarity check inside each candidate run
        size = len(circle)
        for start, length in candidate_runs:
            consistent = True
            for offset in range(length - 1):
                a = circle[(start + offset) % size]
                b = circle[(start + offset + 1) % size]
                if self._exceeds(a, b, 2.0 * self.threshold):
                    consistent = False
                    break
            if consistent:
                return True
        return False

    def _scan(self, image, pixels):
        """Segment-test ``pixels``: ``(corners, comparisons, pixels)``.

        :meth:`is_corner` on every row of the ``(count, 2)`` array
        ``pixels`` of the float ``image``, batched.  Step 1 gathers every
        pixel's circle with one index and scores it against the centre
        in one
        :meth:`~repro.oscillators.distance.OscillatorDistanceUnit.measure_batch`,
        against levels computed once per call.  Step 2 runs in pixel
        order on the pixels with a flagged run of at least ``n`` only,
        and stops where :meth:`is_corner` stops, so the corners and the
        comparison count (and ``oscillator.distance.evals``) are the
        per-pixel test's.
        """
        if not len(pixels):
            return [], 0, 0
        rows, cols = pixels[:, :1], pixels[:, 1:]
        circles = image[rows + _RING[:, 0], cols + _RING[:, 1]]
        centers = np.broadcast_to(image[rows, cols], circles.shape)
        unit = self.distance_unit
        # step 1: every pixel's 16 unsigned distance tests at once
        flagged = unit.measure_batch(circles, centers) \
            > unit.measure_threshold(self.threshold)
        comparisons = flagged.size
        # step 2: the adjacent-similarity check, as in is_corner
        similar = unit.measure_threshold(2.0 * self.threshold)
        size = len(_RING)
        corners = []
        for index in np.flatnonzero(_has_run(flagged, self.n)):
            circle = circles[index].tolist()
            for start, length in _circular_runs(flagged[index]):
                if length < self.n:
                    continue
                for offset in range(length - 1):
                    comparisons += 1
                    if unit.measure(circle[(start + offset) % size],
                                    circle[(start + offset + 1) % size]) \
                            > similar:
                        break
                else:  # no adjacent pair differs: a corner
                    corners.append(tuple(pixels[index].tolist()))
                    break
        return corners, comparisons, len(pixels)

    def _cache_meta(self, image):
        """Cache fingerprint: detector knobs + image content hash."""
        return {"threshold": self.threshold, "n": self.n,
                "config": self.distance_unit.config(),
                "image": result_cache.array_fingerprint(np.asarray(image))}

    def detect(self, image, workers=None, chunk_size=None, timeout=None,
               retry=None, cache=None):
        """All corners of ``image``; records primitive-invocation stats.

        Runs on :func:`repro.core.parallel.run_workload`: inline on this
        detector unless the call is chunked (``workers``, ``chunk_size``,
        ``timeout`` or ``retry`` set), in which case the interior pixels
        are split into blocks (by default ~8 of at least
        :data:`MIN_CHUNK_PIXELS` pixels) scored on the parallel engine
        (image-patch scoring is pure, so the corner list is identical on
        both paths and for every worker count) and worker telemetry
        merges into the active registry at join.  ``timeout``/``retry``
        bound each block and re-dispatch failed ones before giving up.
        ``cache`` (None / False / path /
        :class:`~repro.core.cache.ResultCache`) reuses
        detections content-addressed by the image pixels and the
        detector's knobs (deterministic workload, always cacheable);
        ``last_stats`` and the ``oscillator.fast.*`` counters replay on
        a hit.
        """
        start = time.perf_counter()
        pixel_array = interior_pixel_array(image)
        float_image = np.asarray(image, dtype=float)
        with telemetry.span("oscillator.fast.detect") as detect_span:
            corners, self._comparisons, pixels = parallel.run_workload(
                "oscillator-fast", _detect_chunk,
                lambda low, high, _rng: (
                    self.threshold, self.n, self.distance_unit.config(),
                    float_image, pixel_array[low:high]),
                len(pixel_array), _merge_blocks,
                lambda: self._cache_meta(image),
                inline=lambda: self._scan(float_image, pixel_array),
                encode=_encode_block, decode=_decode_block,
                workers=workers, chunk_size=chunk_size, timeout=timeout,
                retry=retry, cache=cache, min_chunk=MIN_CHUNK_PIXELS)
            detect_span.set_attr("pixels", pixels)
            detect_span.set_attr("corners", len(corners))
            detect_span.set_attr("comparisons", self._comparisons)
        profiling.record_throughput("oscillator.fast.pixels", pixels,
                                    time.perf_counter() - start)
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter("oscillator.fast.detections").inc()
            registry.counter("oscillator.fast.pixels").inc(pixels)
            registry.counter("oscillator.fast.comparisons").inc(
                self._comparisons)
            registry.counter("oscillator.fast.corners").inc(len(corners))
        self.last_stats = {
            "pixels": pixels,
            "oscillator_comparisons": self._comparisons,
            "comparisons_per_pixel": self._comparisons / max(1, pixels),
            "corners": len(corners),
        }
        return corners


def agreement(corners_a, corners_b, tolerance=1):
    """Precision/recall of detector A against reference detector B.

    A detection matches when a reference corner lies within Chebyshev
    distance ``tolerance``.  Returns a dict with precision, recall and the
    raw match counts.
    """
    def matches(point, reference_set):
        row, col = point
        return any(max(abs(row - r), abs(col - c)) <= tolerance
                   for r, c in reference_set)

    set_b = list(corners_b)
    true_positives = sum(1 for corner in corners_a if matches(corner, set_b))
    precision = true_positives / len(corners_a) if corners_a else 1.0
    recovered = sum(1 for corner in set_b if matches(corner, corners_a))
    recall = recovered / len(set_b) if set_b else 1.0
    return {
        "precision": precision,
        "recall": recall,
        "detected": len(corners_a),
        "reference": len(set_b),
        "matched": true_positives,
    }
