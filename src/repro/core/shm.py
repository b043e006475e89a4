"""Shared-memory transport for large ndarray chunk payloads.

Dispatching a chunk to a worker process normally pickles the whole
payload through a pipe: for the fan-out paths that ship big arrays (an
oscillator pair block, a DMM state block) that is two full copies plus
queue framing per chunk.  This module parks such arrays in POSIX shared
memory instead and ships a tiny picklable :class:`SharedArrayHandle`;
the worker maps the segment and copies the data out locally.

The transport is deliberately *copy-on-receive*: :meth:`asarray`
returns a private writable copy, exactly what pickling would have
produced, so worker code may mutate its array without corrupting the
parent's payload (the retry contract -- a re-dispatched chunk replays
its original payload -- survives unchanged).  The win over pickling is
that the parent's only cost is one memcpy into the segment, the pipe
carries ~100 bytes, and the worker's copy runs at memory bandwidth.

Lifetime: the parent owns every segment it creates
(:func:`share_payload` collects them) and must close+unlink each one
once the chunk's outcome is recorded (:func:`release_segments`); the
engine does this per chunk, with a final sweep when the round ends.

Attaching to a segment (``SharedMemory(name=...)``) registers it with
the attaching process's resource tracker.  A worker forked before the
parent's tracker ran starts a tracker of its own, which no unlink ever
reaches: at exit it warns about "leaked shared_memory objects" that
were in fact released.  The engine therefore calls
:func:`share_tracker` before it starts a worker, so every worker
registers into the parent's tracker, where the parent's unlink clears
the entry.  (Unregistering in the worker instead would remove the
parent's own entry whenever the tracker is shared, and the parent's
unlink would then fail inside the tracker.)
"""

import os
import threading

import numpy as np

try:
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover -- stdlib module, but stay gated
    _shared_memory = None

# Accounting of segments this process created but has not yet released.
# A long-running service must converge back to zero after every round
# (including kill/timeout/crash recovery); the leak regression tests in
# ``tests/core/test_parallel.py`` and ``tests/serve`` hold it to that.
_TRACK_LOCK = threading.Lock()
_ACTIVE_SEGMENTS = set()


def active_segment_count():
    """Number of shared segments created here and not yet released."""
    with _TRACK_LOCK:
        return len(_ACTIVE_SEGMENTS)


def active_segment_names():
    """Names of the currently unreleased segments (diagnostics/tests)."""
    with _TRACK_LOCK:
        return sorted(_ACTIVE_SEGMENTS)

#: Arrays at or above this many bytes ride in shared memory; smaller
#: ones pickle through the queue as before (the segment setup would
#: cost more than it saves).
SHARE_THRESHOLD_BYTES = 64 * 1024


def available():
    """True when the platform offers POSIX shared memory."""
    return _shared_memory is not None


def share_tracker():
    """Start this process's resource tracker so workers started after
    this call register their segment attaches with it."""
    if _shared_memory is not None and os.name == "posix":
        _resource_tracker.ensure_running()


class SharedArrayHandle:
    """Picklable stand-in for an ndarray parked in a shared segment."""

    __slots__ = ("name", "shape", "dtype_str")

    def __init__(self, name, shape, dtype_str):
        self.name = name
        self.shape = tuple(shape)
        self.dtype_str = dtype_str

    def asarray(self):
        """Materialize a private copy of the array in this process."""
        segment = _shared_memory.SharedMemory(name=self.name)
        try:
            view = np.ndarray(self.shape, dtype=np.dtype(self.dtype_str),
                              buffer=segment.buf)
            return view.copy()
        finally:
            del view
            segment.close()

    def __repr__(self):
        return "SharedArrayHandle(%r, shape=%s, dtype=%s)" % (
            self.name, self.shape, self.dtype_str)


def _share_array(array, segments):
    segment = _shared_memory.SharedMemory(create=True, size=array.nbytes)
    segments.append(segment)
    with _TRACK_LOCK:
        _ACTIVE_SEGMENTS.add(segment.name)
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[...] = array
    del view
    return SharedArrayHandle(segment.name, array.shape, array.dtype.str)


def _eligible(value, threshold):
    return (isinstance(value, np.ndarray)
            and value.nbytes >= threshold
            and value.dtype.hasobject is False)


def share_payload(task, segments, threshold=SHARE_THRESHOLD_BYTES):
    """Replace large ndarrays inside ``task`` with shared-memory handles.

    Walks plain containers (tuples, lists, dicts) one level at a time;
    arbitrary objects pass through untouched (their internals keep
    pickling as before).  Created segments are appended to ``segments``
    for the caller to release.  Returns the (possibly rebuilt) payload.
    """
    if _shared_memory is None:
        return task
    if _eligible(task, threshold):
        return _share_array(task, segments)
    if isinstance(task, tuple):
        return tuple(share_payload(item, segments, threshold)
                     for item in task)
    if isinstance(task, list):
        return [share_payload(item, segments, threshold) for item in task]
    if isinstance(task, dict):
        return {key: share_payload(value, segments, threshold)
                for key, value in task.items()}
    return task


def resolve_payload(task):
    """Worker-side inverse of :func:`share_payload`."""
    if isinstance(task, SharedArrayHandle):
        return task.asarray()
    if isinstance(task, tuple):
        return tuple(resolve_payload(item) for item in task)
    if isinstance(task, list):
        return [resolve_payload(item) for item in task]
    if isinstance(task, dict):
        return {key: resolve_payload(value) for key, value in task.items()}
    return task


def release_segments(segments):
    """Close and unlink every segment; tolerates repeated calls."""
    while segments:
        segment = segments.pop()
        with _TRACK_LOCK:
            _ACTIVE_SEGMENTS.discard(segment.name)
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass
