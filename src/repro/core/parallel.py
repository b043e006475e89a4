"""Chunked process-pool execution engine for the library's fan-out paths.

The paper frames all three computing models as *accelerators* beside a
classical host (Fig. 1/2); every hot workload in this reproduction --
DMM time-to-solution ensembles, quantum shot loops, oscillator
image-patch scoring -- is a bag of independent kernels.  This module is
the host-side scheduler for those bags:

* :func:`chunk_sizes` / :func:`chunk_list` -- deterministic chunking
  that depends only on the task count and the chunk size, **never** on
  the worker count, so results are bit-identical whether a run uses one
  worker or eight,
* :class:`ParallelMap` -- maps a module-level function over chunk
  payloads on a bounded set of worker processes, with ordered result
  collection, per-task timeouts, crash recovery (a dead worker marks
  its chunk failed and the run continues), per-chunk retries
  (:class:`~repro.core.resilience.RetryPolicy`), result validation,
  checkpoint/resume (:class:`~repro.core.resilience.Checkpointer`), and
  content-addressed chunk reuse (:class:`~repro.core.cache.CacheSpec` --
  a cached chunk skips dispatch and replays bit-identically),
* :class:`WorkerPool` -- the persistent worker processes behind
  :class:`ParallelMap`: spawned once per (start method), reused across
  consecutive ``map()`` calls so the fork/import cost is amortized over
  a whole sweep instead of paid per call, grown on demand, respawned
  individually after a crash or timeout kill, and shut down at
  interpreter exit,
* :class:`TaskFailure` -- the ordered-result placeholder for a chunk
  that raised, timed out, failed validation, or whose worker died.

Large ndarrays inside chunk payloads ride in POSIX shared memory
(:mod:`repro.core.shm`) instead of pickling through the dispatch queue;
the worker copies the array out of the segment, so the semantics are
exactly those of pickling at a fraction of the cost.

``workers="auto"`` (accepted everywhere a worker count is: the
``workers=`` arguments, ``REPRO_WORKERS``, the CLI's ``--workers``)
sizes the pool from :func:`os.cpu_count` and stays serial when the
machine has one core or the workload is a single chunk.  Auto mode
always routes through the *chunked* code path, so its results are
bit-identical to any explicit ``--workers N`` run of the same chunked
workload -- the machine decides only where chunks run, never what they
compute.

Seeding contract
----------------
Callers split their workload into chunks first, then spawn one child
generator per chunk with :func:`repro.core.rngs.spawn_rngs` and ship the
generator inside the chunk payload.  Because both the chunking and the
spawn are functions of ``(task count, chunk size, root seed)`` alone,
the worker count only decides *where* a chunk runs, never *what* it
computes -- the determinism suite (``tests/core/test_parallel.py``)
holds the library to that.

Retries preserve the contract: a re-dispatched chunk re-runs its
*original* payload (workers never mutate the parent's copy; the serial
path deep-copies per attempt when retries or fault injection are
active), so a chunk that eventually succeeds returns exactly what a
fault-free run returns.  See :mod:`repro.core.resilience` and
``docs/resilience.md``.

Telemetry
---------
When the active registry is live at :meth:`ParallelMap.map` time, each
worker process records into its own fresh
:class:`~repro.core.telemetry.MetricsRegistry` (never into inherited
parent sinks), and the worker's snapshot and buffered trace events are
shipped back with its result and merged into the parent registry at
join.  The engine itself records ``parallel.tasks`` (one per chunk
*execution*, so retried chunks count each attempt),
``parallel.failures``, ``parallel.retries``, ``parallel.giveups``, and
the ``parallel.worker_seconds`` histogram, and wraps each map in a
``parallel.map`` span.

Serial fallback
---------------
``workers=1`` (the default, also reachable through the ``REPRO_WORKERS``
environment variable), a single-task map, or a platform without a usable
multiprocessing start method all run the same chunk functions inline in
the parent process -- same results, no subprocesses, no pickling.  One
exception: a ``timeout=`` forces the pool path even at ``workers=1``,
because only a subprocess can be killed past its deadline -- a wedged
inline call would hang the caller (fatal for a long-running service).
Only a platform with *no* usable start method still runs timed maps
inline; the engine says so once per process with a ``RuntimeWarning``
plus a ``parallel.timeout_unenforced`` counter/event instead of
silently ignoring the budget.

Thread safety
-------------
A :class:`WorkerPool` serializes its rounds with a lock, so concurrent
``map()`` calls from multiple threads (the ``repro serve`` dispatcher)
queue up instead of interleaving dispatches and stealing each other's
results.  ``shutdown()`` during an active round aborts that round
cleanly: pending chunks come back as ``TaskFailure(reason="crashed")``,
in-flight shared-memory segments are released, and no workers are
respawned into the closed pool.
"""

import atexit
import copy
import multiprocessing
import os
import queue as queue_module
import threading
import time
import warnings

from . import resilience, shm, telemetry, tracing
from .exceptions import ParallelError
from .tracing import ListSink

#: Default number of chunks a workload is split into when the caller
#: gives no explicit chunk size.  A constant (rather than anything
#: derived from the worker count) so chunking -- and therefore per-chunk
#: RNG spawning -- is identical across worker counts.
DEFAULT_CHUNKS = 8

#: Environment variable consulted when ``workers=None``.
WORKERS_ENV = "REPRO_WORKERS"

#: The ``workers`` sentinel for machine-sized pools.
AUTO = "auto"

#: Auto mode refuses to fan a workload of fewer chunks than this out to
#: processes -- a single chunk gains nothing from a pool.
AUTO_MIN_CHUNKS = 2

#: Grace period (seconds) for a result to drain out of a worker that
#: already exited; after this the chunk is declared crashed.
_DRAIN_GRACE_S = 0.5


def _cpu_count():
    """Visible CPU count (module-level so tests can patch it)."""
    return os.cpu_count() or 1


def resolve_workers(workers=None):
    """Coerce a ``workers`` argument into a positive int or ``"auto"``.

    ``None`` consults the ``REPRO_WORKERS`` environment variable and
    falls back to 1 (serial) -- so library call sites stay serial unless
    a caller, the CLI's ``--workers``, or the environment opts in.
    ``"auto"`` passes through as-is: the pool size is picked per
    workload (see :data:`AUTO` and :meth:`ParallelMap.map`).
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        workers = raw
    if isinstance(workers, str):
        text = workers.strip().lower()
        if text == AUTO:
            return AUTO
        try:
            workers = int(text)
        except ValueError:
            raise ParallelError(
                "workers must be an integer or 'auto', got %r" % workers)
    workers = int(workers)
    if workers < 1:
        raise ParallelError("workers must be >= 1, got %d" % workers)
    return workers


def wants_fanout(workers):
    """True when this ``workers`` request should take a fan-out branch.

    ``"auto"`` always fans out through the chunked path (its results
    must not depend on the machine's core count; the pool may still
    execute serially), explicit counts fan out above 1.
    """
    workers = resolve_workers(workers)
    return workers == AUTO or workers > 1


def default_chunk_size(total):
    """Chunk size splitting ``total`` tasks into ~:data:`DEFAULT_CHUNKS`."""
    if total < 0:
        raise ParallelError("total must be non-negative, got %d" % total)
    return max(1, -(-total // DEFAULT_CHUNKS))


def chunk_sizes(total, chunk_size=None):
    """Deterministic chunk sizes covering ``total`` work units.

    Every chunk has ``chunk_size`` units except a smaller trailing
    remainder.  Depends only on ``(total, chunk_size)`` -- never on the
    worker count (see the module's seeding contract).
    """
    if total < 0:
        raise ParallelError("total must be non-negative, got %d" % total)
    if total == 0:
        return []
    size = default_chunk_size(total) if chunk_size is None else int(chunk_size)
    if size < 1:
        raise ParallelError("chunk_size must be >= 1, got %d" % size)
    full, remainder = divmod(total, size)
    sizes = [size] * full
    if remainder:
        sizes.append(remainder)
    return sizes


def chunk_list(items, chunk_size=None):
    """Split ``items`` into the :func:`chunk_sizes` chunks, in order."""
    items = list(items)
    chunks = []
    start = 0
    for size in chunk_sizes(len(items), chunk_size):
        chunks.append(items[start:start + size])
        start += size
    return chunks


class TaskFailure:
    """Ordered-result placeholder for a chunk that did not produce a value.

    Filter failures out of a mixed result list with
    ``[r for r in results if not isinstance(r, TaskFailure)]``.
    (``TaskFailure`` is deliberately *truthy* like any other object: an
    earlier falsy ``__bool__`` made ``if r`` filtering silently drop
    legitimate falsy results such as ``0`` or ``[]``.)

    Attributes
    ----------
    index : int
        The chunk's position in the task list (results stay ordered).
    reason : str
        ``"error"`` (the function raised), ``"timeout"`` (the per-task
        deadline passed and the worker was terminated), ``"crashed"``
        (the worker process died without reporting a result), or
        ``"invalid"`` (the result failed the caller's ``validate``
        hook).
    message : str
        Human-readable detail (exception repr, exit code, ...).
    """

    __slots__ = ("index", "reason", "message")

    def __init__(self, index, reason, message=""):
        self.index = int(index)
        self.reason = str(reason)
        self.message = str(message)

    def __repr__(self):
        return "TaskFailure(index=%d, reason=%s, message=%r)" % (
            self.index, self.reason, self.message)


def _pick_context(start_method=None):
    """A usable multiprocessing context, or None (forces serial).

    Prefers ``fork`` (cheap, inherits the parent's loaded state); falls
    back to ``spawn`` elsewhere; returns None when the platform offers
    neither -- :class:`ParallelMap` then degrades gracefully to serial.
    """
    methods = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in methods:
            return None
        return multiprocessing.get_context(start_method)
    for method in ("fork", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None


_timeout_warning_emitted = False


def _reset_timeout_warning():
    """Re-arm the one-time serial-timeout warning (tests only)."""
    global _timeout_warning_emitted
    _timeout_warning_emitted = False


def _warn_timeout_unenforced(timeout, registry):
    """Flag a ``timeout=`` that the serial path cannot enforce.

    The telemetry counter/event fire on every affected ``map()`` call;
    the ``RuntimeWarning`` fires once per process so a looped serial
    caller is not spammed.
    """
    global _timeout_warning_emitted
    if registry.enabled:
        registry.counter("parallel.timeout_unenforced").inc()
        telemetry.event("parallel.timeout_unenforced", timeout=timeout)
    if not _timeout_warning_emitted:
        _timeout_warning_emitted = True
        warnings.warn(
            "ParallelMap(timeout=%g) is not enforceable without a usable "
            "multiprocessing start method; the task(s) will run inline "
            "to completion" % timeout,
            RuntimeWarning, stacklevel=3)


def _pool_worker_main(in_queue, out_queue):
    """Persistent worker loop: run dispatched chunks until told to stop.

    Each message is one chunk job; ``None`` is the shutdown sentinel.
    For every chunk the worker replaces the inherited registry: a forked
    child must never write into the parent's sinks (a JSONL sink would
    interleave), so it records into a fresh registry (with a buffering
    sink) when telemetry is on, or into the null registry when it is
    off.  Results carry the dispatching job id so the parent can discard
    stale messages from a round it already abandoned.
    """
    while True:
        message = in_queue.get()
        if message is None:
            return
        job, fn, task, index, attempt, plan, instrument, trace = message
        start = time.perf_counter()
        sink = None
        try:
            task = shm.resolve_payload(task)
            if instrument:
                registry = telemetry.MetricsRegistry()
                sink = registry.add_sink(ListSink())
            else:
                registry = telemetry.NULL_REGISTRY
            with telemetry.use_registry(registry), tracing.use_trace(trace):
                # A chunk span only when a request trace is flowing
                # through: plain parallel runs keep their event stream
                # (and merged snapshot) exactly as before.
                chunk_span = telemetry.span(
                    "parallel.chunk", index=index, attempt=attempt) \
                    if trace is not None else tracing.NULL_SPAN
                with chunk_span:
                    value = resilience.run_task(fn, task, index, attempt,
                                                plan)
            elapsed = time.perf_counter() - start
            payload = (registry.snapshot(), sink.events) if instrument \
                else None
            out_queue.put((job, index, "ok", value, payload, elapsed))
        except BaseException as error:  # noqa: BLE001 -- report, not die
            elapsed = time.perf_counter() - start
            detail = "%s: %s" % (type(error).__name__, error)
            payload = (registry.snapshot(), sink.events) if sink is not None \
                else None
            out_queue.put((job, index, "error", detail, payload, elapsed))


class _PoolWorker:
    """One pool slot: a process, its private dispatch queue, task state."""

    __slots__ = ("process", "in_queue", "busy_index", "deadline",
                 "segments")

    def __init__(self, process, in_queue):
        self.process = process
        self.in_queue = in_queue
        self.busy_index = None
        self.deadline = None
        self.segments = []

    @property
    def idle(self):
        return self.busy_index is None

    def release(self):
        """Drop shared-memory segments of the finished/abandoned chunk."""
        shm.release_segments(self.segments)
        self.busy_index = None
        self.deadline = None


class WorkerPool:
    """Persistent worker processes shared by consecutive ``map()`` calls.

    One pool exists per multiprocessing start method
    (:func:`_get_pool`); it grows to the largest worker count any map
    has asked for and never shrinks -- idle workers block on their
    dispatch queues and cost nothing.  A worker that dies (crash, kill
    fault) or is terminated (timeout/hang recovery) is respawned in
    place, so one bad chunk never degrades the pool for the rest of a
    sweep.  Because every chunk payload carries everything the chunk
    needs (function, data, its own spawned RNG), *which* worker slot
    runs it can never change the result.

    Telemetry: ``parallel.pool.spawns`` counts worker processes started
    (first use and growth), ``parallel.pool.reuses`` counts rounds
    served by already-running workers, ``parallel.pool.restarts``
    counts in-place respawns after a kill or crash.
    """

    def __init__(self, context):
        self.context = context
        self.out_queue = context.Queue()
        self.workers = []
        self._job_counter = 0
        self._closed = False
        self._closing = False
        # Serializes rounds: concurrent map() threads take turns on the
        # pool instead of dispatching into the same slots and draining
        # each other's results (which deadlocked and leaked the loser's
        # in-flight shared-memory segments).
        self._round_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def _spawn_slot(self):
        in_queue = self.context.Queue()
        process = self.context.Process(
            target=_pool_worker_main, args=(in_queue, self.out_queue),
            daemon=True)
        process.start()
        telemetry.get_registry().counter("parallel.pool.spawns").inc()
        return _PoolWorker(process, in_queue)

    def ensure_workers(self, count):
        """Grow to ``count`` live workers; respawn any that died idle."""
        for slot, worker in enumerate(self.workers):
            if not worker.process.is_alive():
                worker.release()
                self.workers[slot] = self._spawn_slot()
        while len(self.workers) < count:
            self.workers.append(self._spawn_slot())

    def _restart_slot(self, slot, registry):
        worker = self.workers[slot]
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=1.0)
        worker.release()
        self.workers[slot] = self._spawn_slot()
        if registry.enabled:
            registry.counter("parallel.pool.restarts").inc()
            # Named in tracing.DEFAULT_FLIGHT_TRIGGERS: a FlightRecorder
            # sink dumps its ring when this passes through.
            registry.emit(tracing.point_event("parallel.pool.restart",
                                              {"slot": slot}))

    def shutdown(self):
        """Stop every worker; the pool cannot be used afterwards.

        Safe to call while another thread is mid-round: the flag makes
        the active round abort cleanly (its remaining chunks come back
        as ``TaskFailure(reason="crashed")`` and its segments are
        released), then the teardown below runs once the round lock is
        free -- workers are never respawned into a closed pool and the
        queues are only closed with no round in flight.
        """
        if self._closed:
            return
        self._closing = True
        with self._round_lock:
            if self._closed:  # pragma: no cover -- lost the close race
                return
            self._closed = True
            for worker in self.workers:
                try:
                    worker.in_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
            for worker in self.workers:
                worker.process.join(timeout=1.0)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=1.0)
                worker.release()
                worker.in_queue.close()
            self.workers = []
            self.out_queue.close()

    @property
    def closed(self):
        return self._closed or self._closing

    # -- one retry round ---------------------------------------------------

    def run_round(self, fn, pairs, workers, timeout, registry, attempt,
                  plan):
        """Execute one round of pending chunks on up to ``workers`` slots.

        Returns ``{index: value-or-TaskFailure}``; timeout and crash
        handling matches the old process-per-chunk scheduler, except
        that the affected slot is respawned instead of abandoned.

        Rounds are serialized by the pool's lock: a second thread's
        round waits for the first to finish instead of the two stealing
        each other's dispatch slots and results.
        """
        with self._round_lock:
            if self._closed or self._closing:
                raise ParallelError("worker pool is shut down")
            return self._run_round_locked(fn, pairs, workers, timeout,
                                          registry, attempt, plan)

    def _abort_round(self, active, pending, outcomes):
        """Shutdown arrived mid-round: fail what's left, reclaim segments."""
        message = "worker pool shut down mid-round"
        for worker in active:
            if not worker.idle:
                outcomes.setdefault(
                    worker.busy_index,
                    TaskFailure(worker.busy_index, "crashed", message))
                worker.release()
        for index, _task in pending:
            outcomes.setdefault(index,
                                TaskFailure(index, "crashed", message))

    def _run_round_locked(self, fn, pairs, workers, timeout, registry,
                          attempt, plan):
        self.ensure_workers(workers)
        instrument = registry.enabled
        trace = tracing.current_trace_id()
        self._job_counter += 1
        job = self._job_counter
        pending = list(pairs)
        draining = {}    # index -> drain deadline
        outcomes = {}    # index -> ("ok"|"error", ...) | TaskFailure
        total = len(pending)
        active = self.workers[:workers]

        try:
            while len(outcomes) < total:
                if self._closing:
                    self._abort_round(active, pending, outcomes)
                    break
                for worker in active:
                    if worker.idle and pending:
                        index, task = pending.pop(0)
                        payload = shm.share_payload(task, worker.segments)
                        worker.in_queue.put(
                            (job, fn, payload, index, attempt, plan,
                             instrument, trace))
                        worker.busy_index = index
                        worker.deadline = None if timeout is None \
                            else time.monotonic() + timeout

                self._drain(job, outcomes)
                now = time.monotonic()

                for slot, worker in enumerate(active):
                    if worker.idle:
                        continue
                    index = worker.busy_index
                    if index in outcomes:
                        worker.release()
                    elif worker.deadline is not None \
                            and now > worker.deadline:
                        outcomes[index] = TaskFailure(
                            index, "timeout",
                            "exceeded %.3gs" % timeout)
                        self._restart_slot(slot, registry)
                        active[slot] = self.workers[slot]
                    elif not worker.process.is_alive():
                        # Exited without a visible result: give the
                        # queue feeder a moment before declaring a
                        # crash, then respawn the slot either way.
                        draining[index] = (now + _DRAIN_GRACE_S,
                                           worker.process.exitcode)
                        self._restart_slot(slot, registry)
                        active[slot] = self.workers[slot]

                for index in list(draining):
                    drain_deadline, exitcode = draining[index]
                    if index in outcomes:
                        del draining[index]
                    elif time.monotonic() > drain_deadline:
                        outcomes[index] = TaskFailure(
                            index, "crashed",
                            "worker exited with code %r without a result"
                            % exitcode)
                        del draining[index]

        finally:
            for worker in active:
                if not worker.idle:
                    if self._closing:
                        # Shutdown in progress: reclaim segments only;
                        # never respawn into a closing pool.
                        worker.release()
                        continue
                    # Abandoned mid-round (exception in the parent):
                    # the slot's task is unrecoverable, reset it.
                    slot = self.workers.index(worker)
                    self._restart_slot(slot, registry)
        return outcomes

    def _drain(self, job, outcomes):
        """Pull worker messages: block briefly for one, then sweep the rest.

        Only the first ``get`` waits (so the parent parks until a result
        or the liveness-check interval elapses); everything already
        queued behind it is taken without blocking.  Returning the
        moment the queue is dry keeps freed workers idle for
        microseconds, not a full poll interval -- the difference between
        pool dispatch amortizing and losing to serial on small chunks.
        """
        block = True
        while True:
            try:
                if block:
                    message = self.out_queue.get(timeout=0.02)
                else:
                    message = self.out_queue.get_nowait()
            except queue_module.Empty:
                return
            block = False
            msg_job, index, status, value, payload, elapsed = message
            if msg_job != job or index in outcomes:
                continue    # stale: a round we already gave up on
            if status == "ok":
                outcomes[index] = ("ok", value, payload, elapsed)
            else:
                outcomes[index] = ("error",
                                   TaskFailure(index, "error", value),
                                   payload, elapsed)


#: Live pools, one per multiprocessing start method.
_POOLS = {}
_POOLS_LOCK = threading.Lock()


def _get_pool(context, registry):
    """The persistent pool for ``context``'s start method (created once).

    Creation is locked so concurrent first maps from multiple threads
    share one pool instead of racing two into existence (the loser's
    workers would leak).
    """
    key = context.get_start_method()
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is not None and not pool.closed:
            if registry.enabled:
                registry.counter("parallel.pool.reuses").inc()
            return pool
        pool = WorkerPool(context)
        _POOLS[key] = pool
        return pool


def shutdown_pools():
    """Stop every persistent pool (atexit hook; callable from tests)."""
    for pool in list(_POOLS.values()):
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)


class ParallelMap:
    """Map a function over chunk payloads on a bounded worker pool.

    Parameters
    ----------
    workers : int, ``"auto"``, or None
        Maximum concurrent worker processes.  ``None`` consults
        ``REPRO_WORKERS`` (default 1 == serial inline execution);
        ``"auto"`` sizes the pool from the machine's core count per
        ``map()`` call and stays serial for one-chunk workloads or
        single-core hosts (the choice is recorded in the
        ``parallel.auto.*`` counters and never changes results).
    timeout : float or None
        Per-task wall-clock budget in seconds.  A worker past its
        deadline is terminated and its chunk marked failed
        (``reason="timeout"``).  Setting a timeout routes the map
        through the worker pool even at ``workers=1`` so the budget is
        always enforced; only a platform with no usable multiprocessing
        start method still runs inline, and there the engine warns once
        (``parallel.timeout_unenforced``) instead of silently dropping
        the budget.
    start_method : str or None
        Force a multiprocessing start method (mostly for tests); the
        default prefers ``fork`` and degrades to serial when the
        platform has no usable method.

    Notes
    -----
    ``fn`` must be a module-level callable and tasks/results must be
    picklable (both are inherited for free under ``fork``, but the
    contract keeps callers portable to ``spawn`` platforms).
    """

    def __init__(self, workers=None, timeout=None, start_method=None):
        self.workers = resolve_workers(workers)
        if timeout is not None and timeout <= 0:
            raise ParallelError("timeout must be positive, got %r" % timeout)
        self.timeout = timeout
        self.start_method = start_method

    def map(self, fn, tasks, on_error="raise", retry=None, validate=None,
            checkpoint=None, cache=None):
        """Run ``fn`` over ``tasks``; return results in task order.

        Parameters
        ----------
        on_error : str
            ``"raise"`` re-raises the first *permanent* failure as a
            :class:`ParallelError` (after every task has been given the
            chance to finish and retry); ``"return"`` leaves a
            :class:`TaskFailure` in the failed slots instead.
        retry : None, int, or RetryPolicy
            Per-chunk retry budget
            (:func:`repro.core.resilience.resolve_retry`).  A failed
            chunk whose reason the policy retries is re-dispatched with
            its original payload -- results stay bit-identical to a
            fault-free run -- after the policy's deterministic backoff
            delay.  Failures that exhaust the budget (or are not
            retryable) count into ``parallel.giveups``.
        validate : callable, optional
            Called on each successful result; returning falsy converts
            the result into ``TaskFailure(reason="invalid")`` --
            retryable -- so silently corrupted output (NaNs from a sick
            accelerator) is caught instead of propagated.
        checkpoint : Checkpointer, optional
            Chunk results are recorded as they complete
            (:meth:`~repro.core.resilience.Checkpointer.record`) and
            chunks already completed in a resumed checkpoint are
            skipped -- their recorded results fill the output slots
            without re-execution.
        cache : CacheSpec, optional
            Content-addressed chunk reuse
            (:class:`~repro.core.cache.CacheSpec`).  Before dispatch,
            each still-pending chunk index is looked up under the
            workload fingerprint: hits fill their output slots (and the
            checkpoint, when one is active) without executing; every
            freshly computed, validated chunk value is stored for the
            next run.  Failures are never cached.  The checkpoint is
            consulted first -- a resumed run trusts its own recorded
            results over the shared cache.
        """
        if on_error not in ("raise", "return"):
            raise ParallelError(
                "on_error must be 'raise' or 'return', got %r" % on_error)
        tasks = list(tasks)
        if not tasks:
            return []
        retry = resilience.resolve_retry(retry)
        plan = resilience.active_fault_plan()
        total = len(tasks)
        registry = telemetry.get_registry()
        outcomes = {}
        if checkpoint is not None:
            for index, value in checkpoint.completed().items():
                if 0 <= index < total:
                    outcomes[index] = value
        if cache is not None:
            for index in range(total):
                if index in outcomes:
                    continue
                hit, value = cache.lookup(index)
                if hit:
                    outcomes[index] = value
                    if checkpoint is not None:
                        checkpoint.record(index, value)
        pending = [(index, task) for index, task in enumerate(tasks)
                   if index not in outcomes]
        if self.workers == AUTO:
            workers = self._auto_workers(total, registry)
        else:
            workers = min(self.workers, total)
        with telemetry.span("parallel.map", tasks=total,
                            workers=workers) as map_span:
            # The context is chosen once per map and reused for every
            # retry round: a round that shrinks to one pending chunk
            # must NOT fall back to serial, or the timeout (and with it
            # hang recovery) would silently stop being enforced.  For
            # the same reason a timed map routes through the pool even
            # at workers=1 -- only a subprocess can be killed past its
            # deadline; a wedged inline call would hang the caller.
            fanout = workers > 1 \
                or (self.timeout is not None and bool(pending))
            context = _pick_context(self.start_method) if fanout else None
            if context is None and self.timeout is not None and pending:
                _warn_timeout_unenforced(self.timeout, registry)
            copy_tasks = retry is not None or plan is not None
            attempt = 1
            while pending:
                if context is None:
                    round_values = self._run_serial(
                        fn, pending, registry, attempt, plan, copy_tasks)
                else:
                    round_values = self._run_pool(
                        fn, pending, workers, context, registry, attempt,
                        plan)
                retry_pairs = []
                for index, task in pending:
                    value = round_values[index]
                    if validate is not None \
                            and not isinstance(value, TaskFailure) \
                            and not validate(value):
                        value = TaskFailure(
                            index, "invalid",
                            "validate() rejected the chunk result")
                        if registry.enabled:
                            registry.counter("parallel.failures").inc()
                    if isinstance(value, TaskFailure):
                        if retry is not None \
                                and attempt < retry.max_attempts \
                                and retry.retries(value.reason):
                            retry_pairs.append((index, task))
                            if registry.enabled:
                                registry.counter("parallel.retries").inc()
                            continue
                        if retry is not None and registry.enabled:
                            registry.counter("parallel.giveups").inc()
                        outcomes[index] = value
                    else:
                        outcomes[index] = value
                        if checkpoint is not None:
                            checkpoint.record(index, value)
                        if cache is not None:
                            cache.store(value, index)
                if retry_pairs:
                    delay = max(retry.delay(index, attempt)
                                for index, _task in retry_pairs)
                    if delay > 0.0:
                        time.sleep(delay)
                pending = retry_pairs
                attempt += 1
            if checkpoint is not None:
                checkpoint.flush()
            results = [outcomes[index] for index in range(total)]
            failures = [r for r in results if isinstance(r, TaskFailure)]
            if map_span:
                map_span.set_attr("failures", len(failures))
        if failures and on_error == "raise":
            first = failures[0]
            raise ParallelError(
                "%d of %d parallel task(s) failed; first: task %d %s (%s)"
                % (len(failures), total, first.index, first.reason,
                   first.message))
        return results

    # -- serial fallback --------------------------------------------------

    @staticmethod
    def _run_serial(fn, pairs, registry, attempt, plan, copy_tasks):
        """Inline execution: same chunk functions, no subprocesses.

        When retries or fault injection are active the task payload is
        deep-copied per attempt: inline execution would otherwise
        mutate payload state (a chunk's spawned RNG advances in place),
        and a retry must replay the *original* payload to stay
        bit-identical with a fault-free run.  Worker processes get this
        for free -- fork copy-on-write and spawn pickling both leave
        the parent's payload untouched.
        """
        enabled = registry.enabled
        values = {}
        for index, task in pairs:
            start = time.perf_counter()
            payload = copy.deepcopy(task) if copy_tasks else task
            try:
                value = resilience.run_task(fn, payload, index, attempt,
                                            plan, serial=True)
            except Exception as error:  # noqa: BLE001
                value = TaskFailure(index, "error", "%s: %s"
                                    % (type(error).__name__, error))
                if enabled:
                    registry.counter("parallel.failures").inc()
            if enabled:
                registry.counter("parallel.tasks").inc()
                registry.histogram("parallel.worker_seconds").observe(
                    time.perf_counter() - start)
            values[index] = value
        return values

    # -- auto sizing -------------------------------------------------------

    @staticmethod
    def _auto_workers(total, registry):
        """Pool size for ``workers="auto"``: cores, capped by chunks.

        Stays serial (returns 1) on single-core machines and for
        workloads below :data:`AUTO_MIN_CHUNKS` chunks, where process
        dispatch can only add overhead.  The decision never feeds back
        into chunking or seeding, so any choice yields bit-identical
        results; ``parallel.auto.serial`` / ``parallel.auto.parallel``
        record which way it went.
        """
        cpus = _cpu_count()
        workers = min(cpus, total)
        if cpus < 2 or total < AUTO_MIN_CHUNKS:
            workers = 1
        if registry.enabled:
            registry.counter(
                "parallel.auto.serial" if workers == 1
                else "parallel.auto.parallel").inc()
        return workers

    # -- persistent worker pool -------------------------------------------

    def _run_pool(self, fn, pairs, workers, context, registry, attempt,
                  plan):
        """One retry round on the persistent pool for this start method."""
        pool = _get_pool(context, registry)
        outcomes = pool.run_round(fn, pairs, workers, self.timeout,
                                  registry, attempt, plan)
        return self._collect(outcomes, registry, registry.enabled)

    @staticmethod
    def _collect(outcomes, registry, instrument):
        """Per-round results + deterministic telemetry merge at join.

        Worker registries are merged (and their buffered trace events
        re-emitted, tagged with the worker's chunk index) in chunk order
        regardless of completion order, so sink output and merged
        metrics are reproducible.
        """
        enabled = registry.enabled
        values = {}
        for index in sorted(outcomes):
            outcome = outcomes[index]
            if isinstance(outcome, TaskFailure):      # timeout / crashed
                if enabled:
                    registry.counter("parallel.tasks").inc()
                    registry.counter("parallel.failures").inc()
                values[index] = outcome
                continue
            status, value, payload, elapsed = outcome
            if enabled:
                registry.counter("parallel.tasks").inc()
                registry.histogram("parallel.worker_seconds").observe(
                    elapsed)
                if status != "ok":
                    registry.counter("parallel.failures").inc()
            if instrument and payload is not None:
                snapshot, events = payload
                registry.merge(snapshot)
                for event in events:
                    event.setdefault("worker", index)
                    registry.emit(event)
            values[index] = value
        return values


def parallel_map(fn, tasks, workers=None, timeout=None, on_error="raise",
                 retry=None):
    """One-shot convenience wrapper around :class:`ParallelMap`."""
    return ParallelMap(workers=workers, timeout=timeout).map(
        fn, tasks, on_error=on_error, retry=retry)
