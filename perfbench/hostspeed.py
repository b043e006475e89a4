"""Host speed: a fixed reference loop timed next to the workload.

On a shared 2-vCPU VM the same call was seen to take up to twice as
long in spells lasting from half a second to minutes (CPU steal, and
other guests contending for the cores), so the raw median of one 15-s
window moved by a fifth from one run to the next.  The benchmark therefore
times a fixed loop that calls nothing of the program -- JSON, SHA-256
and a numpy sort, the kinds of work the measured layers do -- every
``SAMPLE_EVERY_S`` during the run, and reports each operation's time
scaled by ``REFERENCE_S / reference``, where ``reference`` is the median
of the loop's samples within ``NEIGHBOURHOOD_S`` of that operation.  A
change to the program moves the operation and not the loop; a slower
host moves both.  On that VM the scaling took the run-to-run difference
of a 30-s median of 64-pair ``measure_pairs`` calls from 20% to under
2%.
"""

import bisect
import hashlib
import json
import threading
import time

import numpy as np

from . import stats

#: The reference loop's nominal time.  A reported second is a second of
#: a host on which the loop takes this long.
REFERENCE_S = 1e-3

SAMPLE_EVERY_S = 0.05
NEIGHBOURHOOD_S = 0.25

_VALUES = np.random.default_rng(0).normal(size=4096)


def reference_loop():
    """The fixed work; returns its wall time in seconds."""
    start = time.perf_counter()
    items = [{"k": i, "v": i * 0.5, "s": str(i)} for i in range(300)]
    text = json.dumps(items, sort_keys=True)
    hashlib.sha256(text.encode()).digest()
    json.loads(text)
    np.sort(_VALUES).sum()
    return time.perf_counter() - start


class HostSpeed:
    """Reference-loop samples of one run, and the scaling they give.

    ``neighbourhood_s`` is how far from an operation its samples may
    lie; ``math.inf`` scales every operation by the whole run's median.
    """

    def __init__(self, neighbourhood_s=NEIGHBOURHOOD_S):
        self.neighbourhood_s = neighbourhood_s
        self.times = []
        self.costs = []
        self._next = 0.0
        self._lock = threading.Lock()

    def sample(self):
        now = time.perf_counter()
        cost = reference_loop()
        with self._lock:
            self.times.append(now)
            self.costs.append(cost)
        self._next = now + SAMPLE_EVERY_S

    def burst(self, count):
        """``count`` samples back to back."""
        for _ in range(count):
            self.sample()

    def maybe_sample(self):
        """A sample if ``SAMPLE_EVERY_S`` passed since the last one; call
        it between operations of a single-threaded workload."""
        if time.perf_counter() >= self._next:
            self.sample()

    def sampling(self):
        """A context manager sampling from a thread, for a workload whose
        operations run elsewhere (a server child)."""
        return _Sampler(self)

    def median(self):
        return stats.median(self.costs)

    def factor(self, start, end):
        """``REFERENCE_S`` over the loop's median around [start, end]."""
        first = bisect.bisect_left(self.times, start - self.neighbourhood_s)
        last = bisect.bisect_right(self.times, end + self.neighbourhood_s)
        near = self.costs[first:last]
        return REFERENCE_S / (stats.median(near) if near else self.median())

    def scaled(self, record):
        """A record's duration at the reference host speed."""
        return (record.end - record.start) * self.factor(record.start,
                                                         record.end)

    def scaled_span(self, start, end):
        """Wall time from ``start`` to ``end`` at the reference speed,
        integrated in ``SAMPLE_EVERY_S`` steps."""
        total = 0.0
        edge = start
        while edge < end:
            step = min(SAMPLE_EVERY_S, end - edge)
            total += step * self.factor(edge, edge + step)
            edge += step
        return total


class _Sampler:
    def __init__(self, speed):
        self.speed = speed
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self.stop.is_set():
            self.speed.sample()
            self.stop.wait(SAMPLE_EVERY_S)

    def __enter__(self):
        self.thread.start()
        return self.speed

    def __exit__(self, *exc_info):
        self.stop.set()
        self.thread.join()
