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
* :func:`run_workload` -- the one execution path behind every kernel
  entry point (``measure_pairs``, FAST ``detect``, ``solve_ensemble``,
  ``solve_portfolio``, ``QuantumRuntime.run``, ``find_order``): it picks
  the inline or the chunked path (:func:`is_chunked`), fingerprints the
  workload for the cache, spawns one child stream per chunk, and runs
  the chunks on a :class:`ParallelMap`,
* :class:`ParallelMap` -- maps a module-level function over chunk
  payloads on a bounded set of worker processes, with ordered result
  collection, per-task timeouts, crash recovery (a dead worker marks
  its chunk failed and the run continues), per-chunk retries
  (``retry=N`` attempts), result validation, and
  content-addressed chunk reuse (:class:`~repro.core.cache.CacheSpec` --
  a cached chunk skips dispatch and replays bit-identically, so a
  killed run re-run against the same cache directory resumes),
* :class:`WorkerPool` -- the persistent worker processes behind
  :class:`ParallelMap`: spawned once per process, reused across
  consecutive ``map()`` calls so the fork/import cost is amortized over
  a whole sweep instead of paid per call, grown on demand, respawned
  individually after a crash or timeout kill, and shut down at
  interpreter exit,
* :class:`TaskFailure` -- the ordered-result placeholder for a chunk
  that raised, timed out, failed validation, or whose worker died.

Every chunk payload, arrays included, pickles through its worker's
dispatch queue.

``workers="auto"`` (accepted everywhere a worker count is: the
``workers=`` arguments and the CLI's ``--workers``) sizes the pool from
:func:`os.cpu_count` and stays serial when the machine has one core or
the workload is a single chunk.  Auto mode always routes through the
*chunked* code path, so its results are bit-identical to any explicit
``--workers N`` run of the same chunked workload -- the machine decides
only where chunks run, never what they compute.

Seeding contract
----------------
:func:`run_workload` splits a workload into chunks first, then spawns
one child generator per chunk with :func:`repro.core.rngs.spawn_rngs`
and ships the generator inside the chunk payload.  Because both the
chunking and the spawn are functions of ``(task count, chunk size, root
seed)`` alone, the worker count only decides *where* a chunk runs,
never *what* it computes -- the determinism suite
(``tests/core/test_parallel.py``) holds the library to that.

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
``parallel.map`` span whose ``tasks`` attribute counts the chunks the
map ran or replayed from the cache (fewer than submitted when a
``stop=`` predicate ended the map early).

Serial fallback
---------------
``workers=1`` (the default) or a single-task map runs the same chunk
functions inline in the parent process -- same results, no
subprocesses, no pickling.  One exception: a ``timeout=`` forces the
pool path even at ``workers=1``, because only a subprocess can be
killed past its deadline -- a wedged inline call would hang the caller
(fatal for a long-running service).

Thread safety
-------------
A :class:`WorkerPool` serializes its rounds with a lock, so concurrent
``map()`` calls from multiple threads (the ``repro serve`` dispatcher)
queue up instead of interleaving dispatches and stealing each other's
results.  ``shutdown()`` during an active round aborts that round
cleanly: pending chunks come back as ``TaskFailure(reason="crashed")``
and no workers are respawned into the closed pool.
"""

import atexit
import copy
import multiprocessing
import os
import queue as queue_module
import threading
import time

from . import cache as result_cache
from . import resilience, telemetry, tracing
from .exceptions import ParallelError
from .rngs import spawn_rngs
from .tracing import ListSink

#: Default number of chunks a workload is split into when the caller
#: gives no explicit chunk size.  A constant (rather than anything
#: derived from the worker count) so chunking -- and therefore per-chunk
#: RNG spawning -- is identical across worker counts.
DEFAULT_CHUNKS = 8

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

    ``None`` means 1 (serial) -- so library call sites stay serial
    unless a caller or the CLI's ``--workers`` opts in.  ``"auto"``
    passes through as-is: the pool size is picked per workload (see
    :data:`AUTO` and :meth:`ParallelMap.map`).
    """
    if workers is None:
        return 1
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


def is_chunked(workers=None, chunk_size=None, timeout=None, retry=None):
    """True when a kernel call takes the chunked path of :func:`run_workload`.

    A call is chunked when it fans out (:func:`wants_fanout`), sets a
    chunk size, or asks for a timeout or retries (only chunks can be
    timed out and re-dispatched); otherwise it runs inline.  The two
    paths draw different random streams, so fingerprints of work built
    on a kernel call record this choice.
    """
    return (wants_fanout(workers) or chunk_size is not None
            or timeout is not None or retry is not None)


def default_chunk_size(total, minimum=1):
    """Chunk size splitting ``total`` tasks into ~:data:`DEFAULT_CHUNKS`,
    but never below ``minimum`` tasks per chunk."""
    if total < 0:
        raise ParallelError("total must be non-negative, got %d" % total)
    return max(minimum, -(-total // DEFAULT_CHUNKS))


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


def _pick_context():
    """The multiprocessing context for the worker pool.

    Prefers ``fork`` (cheap, inherits the parent's loaded state); falls
    back to ``spawn``, which every CPython platform offers.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


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

    __slots__ = ("process", "in_queue", "busy_index", "deadline")

    def __init__(self, process, in_queue):
        self.process = process
        self.in_queue = in_queue
        self.busy_index = None
        self.deadline = None

    @property
    def idle(self):
        return self.busy_index is None

    def release(self):
        """Mark the slot free once its chunk has an outcome."""
        self.busy_index = None
        self.deadline = None


class WorkerPool:
    """Persistent worker processes shared by consecutive ``map()`` calls.

    One pool exists per process (:func:`_get_pool`); it grows to the
    largest worker count any map has asked for and never shrinks --
    idle workers block on their dispatch queues and cost nothing.  A
    worker that dies (crash, kill fault) or is terminated (timeout/hang
    recovery) is respawned in place, so one bad chunk never degrades
    the pool for the rest of a sweep.  Because every chunk payload carries everything the chunk
    needs (function, data, its own spawned RNG), *which* worker slot
    runs it can never change the result.

    Telemetry: ``parallel.pool.spawns`` counts worker processes started
    (first use and growth), ``parallel.pool.reuses`` counts rounds
    served by already-running workers, ``parallel.pool.restarts``
    counts in-place respawns after a kill, crash or timeout, or of a
    slot found dead or busy when a round starts.
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
        # each other's results (which deadlocked).
        self._round_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def _spawn_slot(self):
        in_queue = self.context.Queue()
        # A payload larger than the pipe buffer waits in the queue's
        # feeder thread until the worker reads it.  If the worker dies
        # first, a joined feeder would block interpreter exit forever,
        # so the queue is dropped, not flushed, when the slot goes.
        in_queue.cancel_join_thread()
        process = self.context.Process(
            target=_pool_worker_main, args=(in_queue, self.out_queue),
            daemon=True)
        process.start()
        telemetry.get_registry().counter("parallel.pool.spawns").inc()
        return _PoolWorker(process, in_queue)

    def ensure_workers(self, count, registry):
        """Grow to ``count`` live workers.  A slot whose worker died, or
        that still holds a chunk of a round the parent abandoned on an
        exception, is respawned first."""
        for slot, worker in enumerate(self.workers):
            if not (worker.idle and worker.process.is_alive()):
                self._restart_slot(slot, registry)
        while len(self.workers) < count:
            self.workers.append(self._spawn_slot())

    def _restart_slot(self, slot, registry):
        worker = self.workers[slot]
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=1.0)
        worker.in_queue.close()
        self.workers[slot] = self._spawn_slot()
        if registry.enabled:
            registry.counter("parallel.pool.restarts").inc()
            registry.emit(tracing.point_event("parallel.pool.restart",
                                              {"slot": slot}))

    def shutdown(self):
        """Stop every worker; the pool cannot be used afterwards.

        Safe to call while another thread is mid-round: the flag makes
        the active round abort cleanly (its remaining chunks come back
        as ``TaskFailure(reason="crashed")``), then the teardown below
        runs once the round lock is free -- workers are never respawned
        into a closed pool and the queues are only closed with no round
        in flight.
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

    def _run_round_locked(self, fn, pairs, workers, timeout, registry,
                          attempt, plan):
        self.ensure_workers(workers, registry)
        instrument = registry.enabled
        trace = tracing.current_trace_id()
        self._job_counter += 1
        job = self._job_counter
        pending = list(pairs)
        draining = {}    # index -> drain deadline
        outcomes = {}    # index -> ("ok"|"error", ...) | TaskFailure
        total = len(pending)
        active = self.workers[:workers]

        while len(outcomes) < total:
            if self._closing:
                # Shutdown arrived mid-round: every chunk still out
                # comes back crashed.
                for index, _task in pairs:
                    outcomes.setdefault(index, TaskFailure(
                        index, "crashed", "worker pool shut down mid-round"))
                break
            for worker in active:
                if worker.idle and pending:
                    index, task = pending.pop(0)
                    worker.in_queue.put((job, fn, task, index, attempt,
                                         plan, instrument, trace))
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
                elif worker.deadline is not None and now > worker.deadline:
                    outcomes[index] = TaskFailure(
                        index, "timeout", "exceeded %.3gs" % timeout)
                    self._restart_slot(slot, registry)
                    active[slot] = self.workers[slot]
                elif not worker.process.is_alive():
                    # Exited without a visible result: give the queue
                    # feeder a moment before declaring a crash, then
                    # respawn the slot either way.
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


#: The live pool.  One is enough: :func:`_pick_context` returns the
#: same start method for the whole life of a process.
_POOL = None
_POOL_LOCK = threading.Lock()


def _get_pool(context, registry):
    """The process's persistent pool (created on first use).

    Creation is locked so concurrent first maps from multiple threads
    share one pool instead of racing two into existence (the loser's
    workers would leak).
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and not _POOL.closed:
            if registry.enabled:
                registry.counter("parallel.pool.reuses").inc()
            return _POOL
        _POOL = WorkerPool(context)
        return _POOL


def shutdown_pools():
    """Stop the persistent pool (atexit hook; callable from tests)."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


atexit.register(shutdown_pools)


def _stop_prefix(stop, outcomes, settled):
    """Grow the settled prefix past ``settled``, asking ``stop`` at each
    length; returns ``(length, stopped)``."""
    while settled in outcomes:
        settled += 1
        if stop([outcomes[index] for index in range(settled)]):
            return settled, True
    return settled, False


class ParallelMap:
    """Map a function over chunk payloads on a bounded worker pool.

    Parameters
    ----------
    workers : int, ``"auto"``, or None
        Maximum concurrent worker processes.  ``None`` means 1 (serial
        inline execution); ``"auto"`` sizes the pool from the machine's
        core count per ``map()`` call and stays serial for one-chunk
        workloads or single-core hosts (the choice is recorded in the
        ``parallel.auto.*`` counters and never changes results).
    timeout : float or None
        Per-task wall-clock budget in seconds.  A worker past its
        deadline is terminated and its chunk marked failed
        (``reason="timeout"``).  Setting a timeout routes the map
        through the worker pool even at ``workers=1`` so the budget is
        always enforced.

    Notes
    -----
    ``fn`` must be a module-level callable and tasks/results must be
    picklable (both are inherited for free under ``fork``, but the
    contract keeps callers portable to ``spawn`` platforms).
    """

    def __init__(self, workers=None, timeout=None):
        self.workers = resolve_workers(workers)
        if timeout is not None and timeout <= 0:
            raise ParallelError("timeout must be positive, got %r" % timeout)
        self.timeout = timeout

    def map(self, fn, tasks, on_error="raise", retry=None, validate=None,
            cache=None, stop=None):
        """Run ``fn`` over ``tasks``; return results in task order.

        Parameters
        ----------
        on_error : str
            ``"raise"`` re-raises the first *permanent* failure among the
            returned results as a :class:`ParallelError` (after every
            task has been given the chance to finish and retry);
            ``"return"`` leaves a :class:`TaskFailure` in the failed
            slots instead.
        retry : None or int
            Total attempts per chunk, the first included
            (:func:`repro.core.resilience.resolve_retry`).  A failed
            chunk, whatever its failure reason, is re-dispatched in the
            next round, with no wait, with its original payload --
            results stay bit-identical to a fault-free run.  Failures
            that exhaust the budget count into ``parallel.giveups``.
        validate : callable, optional
            Called on each successful result; returning falsy converts
            the result into ``TaskFailure(reason="invalid")`` --
            retryable -- so silently corrupted output (NaNs from a sick
            accelerator) is caught instead of propagated.
        cache : CacheSpec, optional
            Content-addressed chunk reuse
            (:class:`~repro.core.cache.CacheSpec`).  Before dispatch,
            each chunk index is looked up under the workload
            fingerprint: hits fill their output slots without
            executing; every freshly computed, validated chunk value is
            stored as it completes.  Failures are never cached, so a
            map that failed re-runs only its failed chunks.
        stop : callable, optional
            Early stop for a map whose answer reads only a prefix of
            the results.  ``stop(prefix)`` is called on the in-order
            prefix of settled results (a :class:`TaskFailure` holds a
            permanently failed slot), once per prefix length, shortest
            first.  Chunks are then dispatched in index order, in waves
            of at most the worker count (1 when the map runs serially);
            a wave's retries finish before its results join the prefix,
            and once ``stop`` returns true no further chunk is
            dispatched and the map returns the shortest prefix it held
            for.  That prefix is the same for every worker count; only
            how many chunks past it ran can differ.
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
        if cache is not None:
            for index in range(total):
                hit, value = cache.lookup(index)
                if hit:
                    outcomes[index] = value
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
            context = _pick_context() if fanout else None
            copy_tasks = retry is not None or plan is not None
            width = total if stop is None else workers
            settled, stopped = 0, False
            while True:
                if stop is not None:
                    settled, stopped = _stop_prefix(stop, outcomes, settled)
                if stopped or not pending:
                    break
                wave, pending = pending[:width], pending[width:]
                attempt = 1
                while wave:
                    if context is None:
                        round_values = self._run_serial(
                            fn, wave, registry, attempt, plan, copy_tasks)
                    else:
                        round_values = self._run_pool(
                            fn, wave, workers, context, registry, attempt,
                            plan)
                    retry_pairs = []
                    for index, task in wave:
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
                            if retry is not None and attempt < retry:
                                retry_pairs.append((index, task))
                                if registry.enabled:
                                    registry.counter(
                                        "parallel.retries").inc()
                                continue
                            if retry is not None and registry.enabled:
                                registry.counter("parallel.giveups").inc()
                            outcomes[index] = value
                        else:
                            outcomes[index] = value
                            if cache is not None:
                                cache.store(value, index)
                    wave = retry_pairs
                    attempt += 1
            results = [outcomes[index]
                       for index in range(settled if stopped else total)]
            failures = [r for r in results if isinstance(r, TaskFailure)]
            if map_span:
                map_span.set_attr("tasks", len(outcomes))
                map_span.set_attr("failures", len(failures))
        if failures and on_error == "raise":
            first = failures[0]
            raise ParallelError(
                "%d of %d parallel task(s) failed; first: task %d %s (%s)"
                % (len(failures), len(results), first.index, first.reason,
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
        """One retry round on the persistent pool."""
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


def run_workload(kind, fn, task, count, merge, meta, inline=None,
                 rng=result_cache.NO_RNG, encode=None, decode=None,
                 validate=None, on_error="raise", workers=None,
                 chunk_size=None, timeout=None, retry=None, cache=None,
                 min_chunk=1, stop=None):
    """Run one kernel call inline or chunked; returns its merged result.

    The inline path (taken when :func:`is_chunked` is false and the
    kernel has an ``inline`` form) calls ``inline()`` once in this
    process, on the caller's own RNG stream, behind the whole-call cache
    (:func:`repro.core.cache.cached_call`, entry kind ``kind``).  The
    chunked path splits the ``count`` work units into
    :func:`chunk_sizes` chunks, spawns one child generator per chunk
    from ``rng`` (after fingerprinting it), and maps ``fn`` over the
    chunk payloads on a :class:`ParallelMap`, caching per chunk under
    ``kind + "-chunk"``.  Both the chunking and the spawn depend only on
    ``(count, chunk_size, rng)``, so the result is the same for every
    worker count; and because finished chunks are stored as they
    complete, re-running a failed or killed chunked call against the
    same cache directory executes only the chunks it is missing.

    Parameters
    ----------
    kind : str
        Cache kind of the workload.
    fn : callable
        Module-level chunk function (worker payloads must pickle).
    task : callable
        ``task(start, stop, rng)``: the payload for work units
        ``[start, stop)`` with the chunk's generator (None for a kernel
        without an RNG).
    count : int
        Work units: pairs, pixels, trajectories, shots, attempts.
    merge : callable
        The chunk results, in order, into the call's result.
    meta : callable
        Zero-argument workload fingerprint meta, evaluated only when a
        cache is on; the RNG fingerprint and (chunked) the chunk sizes
        are added to it.
    inline : callable or None
        The whole call on the caller's stream, returning what ``merge``
        returns; None for a kernel that is always chunked.
    rng : None, int, Generator, or NO_RNG
        The caller's RNG argument; leave it at
        :data:`~repro.core.cache.NO_RNG` for a kernel that draws no
        random numbers.
    encode, decode, validate, on_error, timeout, retry
        Per-chunk codec, result check, and failure handling (see
        :meth:`ParallelMap.map`); the codec also applies to the
        whole-call entry.
    workers, chunk_size, cache
        Worker count, work units per chunk, and the ``cache=`` argument
        (:func:`repro.core.cache.resolve_cache`).
    min_chunk : int
        The kernel's floor on units per chunk when ``chunk_size`` is
        None: the default size is ``max(min_chunk, ceil(count /
        DEFAULT_CHUNKS))``, so a call too small to repay a dispatch per
        chunk runs as one chunk.  An explicit ``chunk_size`` wins.
    stop : callable or None
        Early stop over the in-order prefix of chunk results
        (:meth:`ParallelMap.map`); ``merge`` then receives only that
        prefix.  Every chunk's stream is still spawned up front, so
        ``rng`` ends in the same state whether or not the map stops.
    """
    if inline is not None and not is_chunked(workers, chunk_size, timeout,
                                             retry):
        return result_cache.cached_call(kind, inline, meta, rng=rng,
                                        cache=cache, encode=encode,
                                        decode=decode)
    sizes = chunk_sizes(count, default_chunk_size(count, min_chunk)
                        if chunk_size is None else chunk_size)
    # spec_for evaluates the meta right away: the RNG is fingerprinted
    # before spawn_rngs advances it.
    spec = result_cache.spec_for(
        cache, kind + "-chunk",
        lambda: result_cache.seeded_meta(meta, rng, sizes=sizes),
        encode=encode, decode=decode)
    streams = [None] * len(sizes) if rng is result_cache.NO_RNG \
        else spawn_rngs(rng, len(sizes))
    tasks = []
    start = 0
    for size, stream in zip(sizes, streams):
        tasks.append(task(start, start + size, stream))
        start += size
    values = ParallelMap(workers=workers, timeout=timeout).map(
        fn, tasks, on_error=on_error, retry=retry, validate=validate,
        cache=spec, stop=stop)
    return merge(values)
