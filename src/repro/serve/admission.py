"""Priority queue with admission control for ``repro serve``.

Admission is where the service says *no* early instead of degrading
late -- the paper's host-plus-accelerators model (Fig. 1) puts many
callers behind a few shared accelerators, so the dispatch layer must
bound its backlog:

* **bounded depth** -- a queue past ``max_depth`` rejects new work with
  :class:`~repro.core.exceptions.QueueFullError` (the HTTP layer turns
  it into a 429 with ``Retry-After``), keeping latency bounded instead
  of letting the backlog grow without limit;
* **per-tenant quotas** -- one tenant may hold at most ``tenant_quota``
  jobs queued or running at once
  (:class:`~repro.core.exceptions.QuotaError`), so a single chatty
  caller cannot starve the rest.  Coalesced followers and cache hits
  never count against the quota -- they cost no execution -- and
  neither do bounded jobs, which run at submission without queueing;
* **priorities** -- lower number runs first (0 is most urgent, default
  5), FIFO within one priority level via a monotonic sequence number,
  so equal-priority jobs never starve each other.

The queue is single-event-loop only (all mutation happens on the
service's loop); ``pop()`` is the one awaiting side, woken by an
:class:`asyncio.Event` when work arrives.  ``serve.queue_depth`` tracks
the live depth as a gauge.
"""

import asyncio
import heapq

from ..core import telemetry
from ..core.exceptions import QueueFullError, QuotaError

#: Default bound on queued (not yet running) jobs.
DEFAULT_MAX_DEPTH = 64

#: Default per-tenant cap on jobs queued or running at once.
DEFAULT_TENANT_QUOTA = 16

#: Priorities span 0 (most urgent) .. 9; the default sits mid-range so
#: callers can both expedite and deprioritize relative to it.
DEFAULT_PRIORITY = 5
MIN_PRIORITY, MAX_PRIORITY = 0, 9


class AdmissionQueue:
    """Bounded, tenant-quota'd priority queue of jobs awaiting dispatch."""

    def __init__(self, max_depth=DEFAULT_MAX_DEPTH,
                 tenant_quota=DEFAULT_TENANT_QUOTA):
        if int(max_depth) < 1:
            raise ValueError("max_depth must be >= 1, got %r" % max_depth)
        if tenant_quota is not None and int(tenant_quota) < 1:
            raise ValueError("tenant_quota must be >= 1 or None, got %r"
                             % tenant_quota)
        self.max_depth = int(max_depth)
        self.tenant_quota = None if tenant_quota is None \
            else int(tenant_quota)
        self._heap = []         # (priority, seq, job)
        self._seq = 0
        self._active = {}       # tenant -> jobs queued or running
        self._wakeup = asyncio.Event()

    # -- admission ---------------------------------------------------------

    @property
    def depth(self):
        return len(self._heap)

    def active_for(self, tenant):
        """Jobs this tenant currently has queued or running."""
        return self._active.get(tenant, 0)

    def push(self, job):
        """Admit ``job`` or raise :class:`QueueFullError` /
        :class:`QuotaError`.

        An admitted job holds one unit of its tenant's quota until the
        service calls :meth:`release` at completion.
        """
        if len(self._heap) >= self.max_depth:
            raise QueueFullError(
                "queue is full (%d jobs queued); retry later"
                % len(self._heap))
        if self.tenant_quota is not None \
                and self.active_for(job.tenant) >= self.tenant_quota:
            raise QuotaError(
                "tenant %r is at its quota (%d jobs queued or running); "
                "retry later" % (job.tenant, self.tenant_quota))
        self._seq += 1
        heapq.heappush(self._heap, (job.priority, self._seq, job))
        self._active[job.tenant] = self.active_for(job.tenant) + 1
        self._record_depth()
        self._wakeup.set()

    def release(self, tenant):
        """Return one unit of ``tenant``'s quota (job finished)."""
        remaining = self.active_for(tenant) - 1
        if remaining > 0:
            self._active[tenant] = remaining
        else:
            self._active.pop(tenant, None)

    # -- dispatch ----------------------------------------------------------

    async def pop(self):
        """The highest-priority queued job; waits until one exists."""
        while True:
            if self._heap:
                _priority, _seq, job = heapq.heappop(self._heap)
                self._record_depth()
                return job
            self._wakeup.clear()
            await self._wakeup.wait()

    def _record_depth(self):
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.gauge("serve.queue_depth").set(len(self._heap))
