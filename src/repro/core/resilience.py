"""Failure handling for the fan-out paths: retries, faults, checkpoints.

The paper frames all three computing models as *accelerators* beside a
classical host (Fig. 1/2); real accelerator orchestration assumes
workers fail, time out, and get retried without corrupting results.
:mod:`repro.core.parallel` detects chunk failures (error / timeout /
crash); this module turns detection into *recovery*:

* :class:`RetryPolicy` -- per-chunk retry budget with exponential
  backoff and deterministic jitter (drawn from a
  :func:`~repro.core.rngs.spawn_rngs` stream keyed on ``(root seed,
  chunk index, attempt)``, so the delay schedule -- like everything
  else in the engine -- is independent of the worker count),
* :class:`FaultPlan` -- a test harness that injects ``raise`` /
  ``hang`` / ``kill`` / ``nan`` faults at chosen chunk x attempt
  coordinates, enabled programmatically (:func:`use_faults`), through
  the ``REPRO_FAULTS`` environment variable, or through the
  ``fault_plan`` pytest fixture -- recovery semantics are *proved*
  under injected faults instead of hoped for,
* :class:`Checkpointer` -- a JSON chunk-result checkpoint that
  :meth:`repro.core.parallel.ParallelMap.map` updates as chunks
  complete and consults on the next run to skip finished chunks, so a
  killed long run resumes instead of restarting.

Determinism under retry
-----------------------
A retried chunk re-runs its *original* task payload: on the process
path the parent's payload (including its spawned child generator) is
never mutated by a worker, and on the serial path the engine
deep-copies the payload before every attempt whenever retries or fault
injection are active.  A chunk that eventually succeeds therefore
returns exactly what a fault-free run returns -- the recovery suite
(``tests/core/test_resilience.py``) holds the library to that bit for
bit.  :func:`coordinate_rng` additionally derives a fresh stream from
``(root seed, chunk index, attempt)`` for callers (and the backoff
jitter) that want per-attempt randomness without breaking the
contract.

Checkpoint file format
----------------------
One JSON document (written atomically via rename)::

    {"format": "repro-checkpoint-v1",
     "kind": "dmm-ensemble",
     "meta": {... workload fingerprint, incl. RNG bookkeeping ...},
     "chunks": {"0": <encoded chunk result>, "3": ...}}

``meta`` must match between the writing and the resuming run (same
seed, same chunking, same physics parameters); a mismatch raises
:class:`~repro.core.exceptions.ResilienceError` unless the caller
opted into ``restart_on_mismatch`` (used by rolling checkpoints such
as Shor's per-base order finding).  See ``docs/resilience.md``.
"""

import contextlib
import json
import os
import time

import numpy as np

from . import telemetry
from .exceptions import InjectedFault, ResilienceError
from .rngs import spawn_rngs

#: Environment variable carrying a fault-plan spec
#: (``"chunk:attempt:action[,chunk:attempt:action...]"``).
FAULTS_ENV = "REPRO_FAULTS"

#: The checkpoint document's format marker.
CHECKPOINT_FORMAT = "repro-checkpoint-v1"

#: Mask keeping SeedSequence entropy words non-negative 64-bit ints.
_SEED_MASK = (1 << 63) - 1


def coordinate_rng(root_seed, chunk_index, attempt):
    """Deterministic generator for one ``(root seed, chunk, attempt)``.

    The stream depends only on its coordinates -- never on the worker
    count or on how many other chunks were retried -- so per-attempt
    randomness (backoff jitter, attempt-specific reseeding) preserves
    the engine's bit-identical-across-workers contract.
    """
    seq = np.random.SeedSequence([int(root_seed) & _SEED_MASK,
                                  int(chunk_index) & _SEED_MASK,
                                  int(attempt) & _SEED_MASK])
    return spawn_rngs(np.random.default_rng(seq), 1)[0]


class RetryPolicy:
    """How (and whether) failed chunks are re-dispatched.

    Parameters
    ----------
    max_attempts : int
        Total attempts per chunk, including the first (1 == no retry).
    backoff_base : float
        Delay in seconds before the second attempt; 0 disables sleeping
        (tests use this to keep retries instantaneous).
    backoff_factor : float
        Multiplier applied per additional attempt (exponential backoff).
    backoff_max : float
        Upper clamp on any single delay.
    jitter : float
        Fractional jitter: the delay is scaled by ``1 + jitter * u``
        with ``u`` drawn from :func:`coordinate_rng` -- deterministic
        given ``(seed, chunk index, attempt)``.
    retry_on : iterable of str
        :class:`~repro.core.parallel.TaskFailure` reasons that warrant
        a retry; the default retries everything the engine classifies
        (``error`` / ``timeout`` / ``crashed`` / ``invalid``).
    seed : int
        Root seed for the jitter streams.
    """

    #: Every failure reason the engine can classify.
    RETRYABLE_REASONS = ("error", "timeout", "crashed", "invalid")

    def __init__(self, max_attempts=3, backoff_base=0.05,
                 backoff_factor=2.0, backoff_max=2.0, jitter=0.25,
                 retry_on=None, seed=0):
        if int(max_attempts) < 1:
            raise ResilienceError(
                "max_attempts must be >= 1, got %r" % (max_attempts,))
        if backoff_base < 0 or backoff_max < 0 or jitter < 0:
            raise ResilienceError(
                "backoff_base, backoff_max, and jitter must be "
                "non-negative")
        if backoff_factor < 1.0:
            raise ResilienceError(
                "backoff_factor must be >= 1, got %r" % (backoff_factor,))
        reasons = self.RETRYABLE_REASONS if retry_on is None \
            else tuple(retry_on)
        unknown = set(reasons) - set(self.RETRYABLE_REASONS)
        if unknown:
            raise ResilienceError(
                "unknown retry_on reason(s) %s; choose from %s"
                % (sorted(unknown), list(self.RETRYABLE_REASONS)))
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.backoff_max = float(backoff_max)
        self.jitter = float(jitter)
        self.retry_on = reasons
        self.seed = int(seed)

    def retries(self, reason):
        """True when a failure with this reason is worth re-dispatching."""
        return reason in self.retry_on

    def delay(self, chunk_index, attempt):
        """Seconds to wait before re-running ``chunk_index``.

        ``attempt`` is the (1-based) attempt that just failed; the
        jitter is a pure function of ``(seed, chunk index, attempt)``.
        """
        if self.backoff_base <= 0.0:
            return 0.0
        raw = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if self.jitter > 0.0:
            u = coordinate_rng(self.seed, chunk_index, attempt).random()
            raw *= 1.0 + self.jitter * u
        return min(raw, self.backoff_max)

    def __repr__(self):
        return ("RetryPolicy(max_attempts=%d, backoff_base=%g, "
                "retry_on=%s)" % (self.max_attempts, self.backoff_base,
                                  list(self.retry_on)))


def resolve_retry(retry):
    """Coerce a ``retry`` argument into a :class:`RetryPolicy` or None.

    Accepts ``None`` (no retries), an existing policy, or an int --
    the CLI's ``--retries N`` -- read as ``max_attempts``: ``N == 1``
    means no retries, and ``N < 1`` raises :class:`ResilienceError`.
    """
    if retry is None:
        return None
    if isinstance(retry, RetryPolicy):
        return retry
    if isinstance(retry, (int, np.integer)) and not isinstance(retry, bool):
        attempts = int(retry)
        if attempts < 1:
            raise ResilienceError(
                "retries must be >= 1, got %d" % attempts)
        if attempts == 1:
            return None
        return RetryPolicy(max_attempts=attempts)
    raise ResilienceError(
        "retry must be None, an int, or a RetryPolicy; got %r" % (retry,))


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

        The format of the ``REPRO_FAULTS`` environment variable, e.g.
        ``REPRO_FAULTS="0:1:raise,2:1:kill"``.
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
    """Install ``plan`` process-wide (None clears); returns the previous.

    The programmatic override wins over the ``REPRO_FAULTS``
    environment variable.
    """
    global _active_plan
    previous = _active_plan
    _active_plan = plan
    return previous


def active_fault_plan():
    """The fault plan the engine should apply right now, or None.

    Checks the programmatic override first, then ``REPRO_FAULTS``.
    """
    if _active_plan is not None:
        return _active_plan
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if spec:
        return FaultPlan.from_spec(spec)
    return None


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


# -- checkpoint / resume ---------------------------------------------------

def rng_fingerprint(seed_or_rng):
    """JSON-able description of an RNG argument for checkpoint metadata.

    Resuming a checkpointed run only reproduces the uninterrupted run
    when the per-chunk streams respawn identically, which requires the
    same root seed (or a generator in the same spawn state).  This
    fingerprint captures exactly that, so :class:`Checkpointer` can
    refuse a mismatched resume.  Call it *before* spawning child
    generators -- spawning advances ``n_children_spawned``.
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

    Checkpoint metadata must serialize; arbitrary caller kwargs (numpy
    scalars, parameter objects) degrade to their repr, which still
    mismatch-detects reliably.
    """
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError):
        return repr(value)


class Checkpointer:
    """Chunk-result checkpoint file: record as you go, skip on resume.

    Parameters
    ----------
    path : str
        Checkpoint file to write (atomically, via rename).  When it
        already exists it is also the resume source unless
        ``resume_from`` names another file.
    kind : str
        Workload tag (``"dmm-ensemble"``, ``"quantum-shots"``, ...);
        resuming a file of a different kind is an error.
    meta : dict, optional
        Workload fingerprint (chunking, seeds via
        :func:`rng_fingerprint`, physics parameters).  Must be
        JSON-able and must match the resumed file's.
    encode, decode : callable, optional
        Map one chunk result to/from its JSON representation
        (default: identity).
    every : int
        Flush to disk after this many newly recorded chunks (1 ==
        every chunk; the final flush always happens).
    resume_from : str, optional
        Explicit resume source (must exist); defaults to ``path`` when
        that exists.
    restart_on_mismatch : bool
        Start empty instead of raising when the resume source's
        kind/meta disagree -- for rolling checkpoint files that
        legitimately change workloads (e.g. Shor's per-base order
        finding).

    Telemetry: every flush increments ``resilience.checkpoints`` and
    adds the document size to ``resilience.checkpoint_bytes``;
    restored chunks count into ``resilience.chunks_restored``.
    """

    def __init__(self, path, kind, meta=None, encode=None, decode=None,
                 every=1, resume_from=None, restart_on_mismatch=False):
        if int(every) < 1:
            raise ResilienceError("every must be >= 1, got %r" % (every,))
        self.path = str(path)
        self.kind = str(kind)
        self.meta = jsonable(dict(meta) if meta else {})
        self._encode = encode if encode is not None else (lambda value: value)
        self._decode = decode if decode is not None else (lambda value: value)
        self.every = int(every)
        self.restart_on_mismatch = bool(restart_on_mismatch)
        self._completed = {}
        self._dirty = 0
        if resume_from is not None and not os.path.exists(resume_from):
            raise ResilienceError(
                "resume checkpoint %r does not exist" % (resume_from,))
        source = resume_from if resume_from is not None else (
            self.path if os.path.exists(self.path) else None)
        if source is not None:
            self._load(source)

    def _load(self, source):
        try:
            with open(source) as handle:
                document = json.load(handle)
        except (OSError, ValueError) as error:
            raise ResilienceError(
                "cannot read checkpoint %r: %s" % (source, error))
        if document.get("format") != CHECKPOINT_FORMAT:
            raise ResilienceError(
                "checkpoint %r has format %r, expected %r"
                % (source, document.get("format"), CHECKPOINT_FORMAT))
        file_fingerprint = {"kind": document.get("kind"),
                            "meta": jsonable(document.get("meta", {}))}
        run_fingerprint = {"kind": self.kind, "meta": self.meta}
        if file_fingerprint != run_fingerprint:
            if self.restart_on_mismatch:
                return
            mismatch = "kind %r != %r" \
                % (file_fingerprint["kind"], self.kind) \
                if file_fingerprint["kind"] != self.kind \
                else "meta %r != %r" % (file_fingerprint["meta"], self.meta)
            raise ResilienceError(
                "checkpoint %r does not match this run (%s); refusing "
                "to resume: checkpoint fingerprint %r != this run's "
                "fingerprint %r" % (source, mismatch, file_fingerprint,
                                    run_fingerprint))
        chunks = document.get("chunks", {})
        self._completed = {int(index): self._decode(value)
                           for index, value in chunks.items()}
        registry = telemetry.get_registry()
        if registry.enabled and self._completed:
            registry.counter("resilience.chunks_restored").inc(
                len(self._completed))

    def completed(self):
        """Decoded results of the already-finished chunks, by index."""
        return dict(self._completed)

    def record(self, index, value):
        """Record one finished chunk; flushes every ``every`` records."""
        self._completed[int(index)] = value
        self._dirty += 1
        if self._dirty >= self.every:
            self.flush()

    def flush(self):
        """Write the checkpoint document atomically (no-op when clean)."""
        if not self._dirty:
            return
        document = {
            "format": CHECKPOINT_FORMAT,
            "kind": self.kind,
            "meta": self.meta,
            "chunks": {str(index): self._encode(value)
                       for index, value in sorted(self._completed.items())},
        }
        payload = json.dumps(document)
        scratch = self.path + ".tmp"
        with open(scratch, "w") as handle:
            handle.write(payload)
            handle.write("\n")
        os.replace(scratch, self.path)
        self._dirty = 0
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter("resilience.checkpoints").inc()
            registry.counter("resilience.checkpoint_bytes").inc(
                len(payload) + 1)

    def __len__(self):
        return len(self._completed)

    def __repr__(self):
        return "Checkpointer(path=%r, kind=%s, completed=%d)" % (
            self.path, self.kind, len(self._completed))
