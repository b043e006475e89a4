"""Failure handling for the fan-out paths: retries and injected faults.

The paper frames all three computing models as *accelerators* beside a
classical host (Fig. 1/2); real accelerator orchestration assumes
workers fail, time out, and get retried without corrupting results.
:mod:`repro.core.parallel` detects chunk failures (error / timeout /
crash); this module turns detection into *recovery*:

* :func:`resolve_retry` -- checks a ``retry=`` argument: None or an
  int, the total attempts per chunk; a failed chunk is re-dispatched in
  the engine's next round, with no wait, whatever its failure reason,
* :class:`FaultPlan` -- a test harness that injects ``raise`` /
  ``hang`` / ``kill`` / ``nan`` faults at chosen chunk x attempt
  coordinates, installed in process (:func:`use_faults`,
  :func:`set_fault_plan`, or the ``fault_plan`` pytest fixture) and
  never read from the environment -- recovery semantics are *proved*
  under injected faults instead of hoped for.

A killed long run resumes through the result cache, not through a
separate checkpoint: chunked calls store each finished chunk in the
``cache=`` directory as it completes, so re-running the same call
against that directory executes only the missing chunks (see
:func:`repro.core.parallel.run_workload` and ``docs/resilience.md``).

Determinism under retry
-----------------------
A retried chunk re-runs its *original* task payload: on the process
path the parent's payload (including its spawned child generator) is
never mutated by a worker, and on the serial path the engine
deep-copies the payload before every attempt whenever retries or fault
injection are active.  A chunk that eventually succeeds therefore
returns exactly what a fault-free run returns -- the recovery suite
(``tests/core/test_resilience.py``) holds the library to that bit for
bit.
"""

import contextlib
import json
import os
import time

import numpy as np

from .exceptions import InjectedFault, ResilienceError


def resolve_retry(retry):
    """Coerce a ``retry`` argument into an attempt count or None.

    ``retry`` is None (no retries) or an int -- the CLI's ``--retries
    N`` -- giving the total attempts per chunk, the first included.
    ``N == 1`` means no retries and returns None; ``N < 1`` or anything
    but an int raises :class:`ResilienceError`.
    """
    if retry is None:
        return None
    if not isinstance(retry, (int, np.integer)) or isinstance(retry, bool):
        raise ResilienceError(
            "retry must be None or an int attempt count; got %r" % (retry,))
    if retry < 1:
        raise ResilienceError("retries must be >= 1, got %d" % retry)
    return int(retry) if retry > 1 else None


# -- fault injection -------------------------------------------------------

class FaultPlan:
    """Injected faults at chosen ``chunk x attempt`` coordinates.

    Parameters
    ----------
    faults : iterable of (chunk_index, attempt, action)
        ``action`` is one of ``"raise"`` (the task raises
        :class:`~repro.core.exceptions.InjectedFault`), ``"hang"``
        (the task sleeps ``hang_seconds`` -- pair with a
        ``ParallelMap`` timeout), ``"kill"`` (the worker process exits
        without reporting, exercising crash detection), or ``"nan"``
        (the task's result is NaN-corrupted, exercising result
        validation).  At most one fault per coordinate.
    hang_seconds : float
        Sleep length for ``hang`` faults (long enough to trip any
        sensible timeout).
    exit_code : int
        Exit status ``kill`` faults die with.

    Notes
    -----
    On the serial path there is no worker process to kill and no
    timeout enforcement, so ``kill`` and ``hang`` degrade to
    ``raise`` there -- the fault still surfaces as a retryable
    failure instead of taking down (or hanging) the host process.
    """

    ACTIONS = ("raise", "hang", "kill", "nan")

    def __init__(self, faults=(), hang_seconds=3600.0, exit_code=17):
        self._faults = {}
        for entry in faults:
            try:
                chunk_index, attempt, action = entry
            except (TypeError, ValueError):
                raise ResilienceError(
                    "fault entries are (chunk_index, attempt, action); "
                    "got %r" % (entry,))
            if action not in self.ACTIONS:
                raise ResilienceError(
                    "unknown fault action %r; choose from %s"
                    % (action, list(self.ACTIONS)))
            key = (int(chunk_index), int(attempt))
            if key[0] < 0 or key[1] < 1:
                raise ResilienceError(
                    "fault coordinates must have chunk_index >= 0 and "
                    "attempt >= 1; got %r" % (entry,))
            if key in self._faults:
                raise ResilienceError(
                    "duplicate fault at chunk %d attempt %d" % key)
            self._faults[key] = str(action)
        self.hang_seconds = float(hang_seconds)
        self.exit_code = int(exit_code)

    @classmethod
    def from_spec(cls, spec, **kwargs):
        """Parse ``"chunk:attempt:action[,chunk:attempt:action...]"``.

        The format :func:`use_faults` accepts, e.g.
        ``use_faults("0:1:raise,2:1:kill")``.
        """
        faults = []
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) != 3:
                raise ResilienceError(
                    "bad fault spec %r (want chunk:attempt:action)" % part)
            try:
                chunk_index, attempt = int(pieces[0]), int(pieces[1])
            except ValueError:
                raise ResilienceError(
                    "bad fault coordinates in %r (want integers)" % part)
            faults.append((chunk_index, attempt, pieces[2]))
        return cls(faults, **kwargs)

    def spec(self):
        """Canonical spec string (round-trips through :meth:`from_spec`)."""
        return ",".join("%d:%d:%s" % (chunk, attempt, action)
                        for (chunk, attempt), action
                        in sorted(self._faults.items()))

    def action_for(self, chunk_index, attempt):
        """The injected action at this coordinate, or None."""
        return self._faults.get((int(chunk_index), int(attempt)))

    def faults(self):
        """The plan's entries as ``(chunk, attempt, action)`` tuples."""
        return [(chunk, attempt, action)
                for (chunk, attempt), action
                in sorted(self._faults.items())]

    def __len__(self):
        return len(self._faults)

    def __repr__(self):
        return "FaultPlan(%r)" % self.spec()


_active_plan = None


def set_fault_plan(plan):
    """Install ``plan`` process-wide (None clears); returns the previous."""
    global _active_plan
    previous = _active_plan
    _active_plan = plan
    return previous


def active_fault_plan():
    """The plan :func:`set_fault_plan` or :func:`use_faults` installed,
    or None."""
    return _active_plan


@contextlib.contextmanager
def use_faults(plan):
    """Scoped fault injection: install ``plan``, restore the old one after.

    Accepts a :class:`FaultPlan` or a spec string.
    """
    if isinstance(plan, str):
        plan = FaultPlan.from_spec(plan)
    previous = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)


def nan_corrupt(value):
    """A NaN-poisoned copy of ``value`` (arrays, scalars, containers).

    What a ``"nan"`` fault returns in place of the task's real result:
    structurally similar enough to pass shape-based handling, but
    guaranteed to fail any finiteness validation.
    """
    if isinstance(value, np.ndarray):
        return np.full(value.shape, np.nan)
    if isinstance(value, tuple):
        return tuple(nan_corrupt(item) for item in value)
    if isinstance(value, list):
        return [nan_corrupt(item) for item in value]
    if isinstance(value, dict):
        return {key: nan_corrupt(item) for key, item in value.items()}
    return float("nan")


def run_task(fn, task, chunk_index, attempt, plan, serial=False):
    """Execute one chunk attempt, applying any injected fault.

    The single execution point both the worker entry point and the
    serial path go through; ``serial=True`` degrades ``kill``/``hang``
    to ``raise`` (there is no worker to kill and no timeout to trip).
    """
    action = None if plan is None else plan.action_for(chunk_index, attempt)
    if action in ("kill", "hang") and serial:
        raise InjectedFault(
            "injected %r at chunk %d attempt %d (degraded to raise on "
            "the serial path)" % (action, chunk_index, attempt))
    if action == "raise":
        raise InjectedFault(
            "injected failure at chunk %d attempt %d"
            % (chunk_index, attempt))
    if action == "hang":
        time.sleep(plan.hang_seconds)
        raise InjectedFault(
            "injected hang at chunk %d attempt %d outlived its %.3gs "
            "sleep without a timeout" % (chunk_index, attempt,
                                         plan.hang_seconds))
    if action == "kill":
        os._exit(plan.exit_code)
    value = fn(task)
    if action == "nan":
        return nan_corrupt(value)
    return value


# -- workload fingerprints -------------------------------------------------

def rng_fingerprint(seed_or_rng):
    """JSON-able description of an RNG argument for cache metadata.

    A stored chunk only reproduces the uninterrupted run when the
    per-chunk streams respawn identically, which requires the same root
    seed (or a generator in the same spawn state).  This fingerprint
    captures exactly that, so a cache entry is only reused by a run
    that would compute it bit-identically.  Call it *before* spawning
    child generators -- spawning advances ``n_children_spawned``.
    """
    if seed_or_rng is None:
        return None
    if isinstance(seed_or_rng, (int, np.integer)):
        return ["seed", int(seed_or_rng)]
    if isinstance(seed_or_rng, np.random.Generator):
        seq = getattr(seed_or_rng.bit_generator, "seed_seq", None)
        if seq is None:
            return ["generator", None]
        entropy = seq.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = [int(word) for word in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        return ["generator", entropy, [int(k) for k in seq.spawn_key],
                int(seq.n_children_spawned)]
    raise TypeError(
        "expected None, int seed, or numpy Generator; got %r"
        % (seed_or_rng,))


def jsonable(value):
    """``value`` if it survives a JSON round trip, else its ``repr``.

    Cache metadata must serialize; arbitrary caller kwargs (numpy
    scalars, parameter objects) degrade to their repr, which still
    mismatch-detects reliably.
    """
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError):
        return repr(value)
