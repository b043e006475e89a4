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

import numpy as np

from ...core import parallel, telemetry
from ...core import cache as result_cache
from ..distance import OscillatorDistanceUnit
from .bresenham import circle_intensities, interior_pixels


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
    corners = [(row, col) for row, col in pixels
               if detector.is_corner(image, row, col)]
    return corners, detector._comparisons, len(pixels)


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

    def _cache_meta(self, image, sizes=None):
        """Cache fingerprint: detector knobs + image content hash."""
        meta = {"threshold": self.threshold, "n": self.n,
                "config": self.distance_unit.config(),
                "image": result_cache.array_fingerprint(np.asarray(image))}
        if sizes is not None:
            meta["sizes"] = sizes
        return meta

    def detect(self, image, workers=None, chunk_size=None, timeout=None,
               retry=None, cache=None):
        """All corners of ``image``; records primitive-invocation stats.

        ``workers``/``chunk_size`` split the interior pixels into blocks
        scored on the parallel engine (image-patch scoring is pure, so
        the corner list is identical for every worker count); worker
        telemetry merges into the active registry at join.
        ``timeout``/``retry`` bound each block and re-dispatch failed
        ones before giving up.  ``cache`` (None / False / path /
        :class:`~repro.core.cache.ResultCache`) reuses detections
        content-addressed by the image pixels and the detector's knobs
        (deterministic workload, always cacheable); ``last_stats`` and
        the ``oscillator.fast.*`` counters replay on a hit.
        """
        self._comparisons = 0
        corners = []
        pixels = 0
        workers = parallel.resolve_workers(workers)
        resilient = timeout is not None or retry is not None
        with telemetry.span("oscillator.fast.detect") as detect_span:
            if workers == 1 and chunk_size is None and not resilient:
                spec = result_cache.spec_for(
                    cache, "oscillator-fast",
                    lambda: self._cache_meta(image),
                    encode=_encode_block, decode=_decode_block)
                hit = False
                if spec is not None:
                    hit, value = spec.lookup()
                    if hit:
                        corners, self._comparisons, pixels = value
                if not hit:
                    for row, col in interior_pixels(image):
                        pixels += 1
                        if self.is_corner(image, row, col):
                            corners.append((row, col))
                    if spec is not None:
                        spec.store((corners, self._comparisons, pixels))
            else:
                meta_image = image
                image = np.asarray(image, dtype=float)
                chunks = parallel.chunk_list(list(interior_pixels(image)),
                                             chunk_size)
                spec = result_cache.spec_for(
                    cache, "oscillator-fast-chunk",
                    lambda: self._cache_meta(
                        meta_image, sizes=[len(c) for c in chunks]),
                    encode=_encode_block, decode=_decode_block)
                unit_config = self.distance_unit.config()
                tasks = [(self.threshold, self.n, unit_config, image,
                          chunk) for chunk in chunks]
                blocks = parallel.ParallelMap(
                    workers=workers, timeout=timeout).map(
                    _detect_chunk, tasks, retry=retry, cache=spec)
                for block_corners, comparisons, block_pixels in blocks:
                    corners.extend(block_corners)
                    self._comparisons += comparisons
                    pixels += block_pixels
            detect_span.set_attr("pixels", pixels)
            detect_span.set_attr("corners", len(corners))
            detect_span.set_attr("comparisons", self._comparisons)
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
