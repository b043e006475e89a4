"""Spans recorded from outside the program, and the layer arithmetic.

The benchmark never instruments the program: it records a span around
each call it makes into a layer.  The traced replay calls one input at
each boundary in turn, from the bare kernel outwards, so a layer's self
time is its median span minus the median span of the next layer in.
"""

import json
import threading

from . import stats


class SpanLog:
    """Spans kept in memory and written out once, when the run ends.

    A span is ``{"id", "name", "trace", "parent", "start", "end"}``;
    spans of one operation share ``trace``, and ``parent`` is the name of
    the layer that wraps this one (a logical parent: replayed layers run
    one after another, not nested in time).
    """

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()

    def record(self, name, trace, start, end, parent=None):
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "name": name, "trace": trace,
                               "parent": parent, "start": start,
                               "end": end})
        return span_id

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def self_times(chain):
    """Self time of each layer of one operation's replay chain.

    ``chain`` lists ``(layer, samples)`` from the innermost layer out,
    each ``samples`` the repeated durations of that layer's call.  Each
    row gives the layer's median and IQR, its self time (median minus
    the next-inner median) with that difference's spread (the two IQRs
    added), and ``negative``: self time below zero by more than that
    spread, which means the replay did not measure what it claims.
    """
    rows = []
    inner = None
    for layer, samples in chain:
        middle = stats.median(samples)
        spread = stats.iqr(samples)
        if inner is None:
            own, own_spread = middle, spread
        else:
            own = middle - inner["median"]
            own_spread = spread + inner["spread"]
        row = {"layer": layer, "median": middle, "spread": spread,
               "self": own, "self_spread": own_spread,
               "negative": own < -own_spread}
        rows.append(row)
        inner = row
    return rows
