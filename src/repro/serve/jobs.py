"""Job records and the in-memory job table for ``repro serve``.

A job is one accepted request: it gets a stable id, a lifecycle state
(``queued -> running -> done | failed``; a job run at submission is
never seen ``queued``), and an :class:`asyncio.Future` that resolves
when the job finishes (the HTTP layer's long-poll awaits it).  Jobs
that join an identical in-flight computation (request coalescing, see
:mod:`repro.serve.service`) carry ``coalesced_with`` naming the
primary job whose single execution produced their result.

The :class:`JobTable` keeps every live job plus the ``retention`` most
recently finished ones, so status polling works for a while after
completion without the table growing forever under sustained traffic.
"""

import collections
import time

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Finished jobs kept around for status polling, earliest-finished
#: dropped first.
DEFAULT_RETENTION = 1024


class Job:
    """One accepted request and its lifecycle state."""

    __slots__ = ("id", "kind", "params", "tenant", "priority", "key",
                 "doc", "state", "result", "error", "cached",
                 "coalesced_with", "followers", "submitted_at",
                 "started_at", "finished_at", "future", "trace_id",
                 "joined_trace")

    def __init__(self, job_id, kind, params, tenant, priority, key, doc,
                 trace_id=None):
        self.id = job_id
        self.kind = kind
        self.params = params
        self.tenant = tenant
        self.priority = priority
        self.key = key          # workload fingerprint (cache key)
        self.doc = doc          # fingerprint document behind the key
        self.state = QUEUED
        self.result = None
        self.error = None
        self.cached = False
        self.coalesced_with = None
        self.followers = []
        self.submitted_at = time.monotonic()
        self.started_at = None
        self.finished_at = None
        self.future = None      # created by the service's event loop
        self.trace_id = trace_id
        # Trace of the execution this job's result actually came from:
        # set for coalesced followers (the primary's trace); None when
        # this job's own trace did the work.
        self.joined_trace = None

    @property
    def finished(self):
        return self.state in (DONE, FAILED)

    def describe(self):
        """JSON-able status document (the GET /v1/jobs/<id> body)."""
        doc = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "tenant": self.tenant,
            "priority": self.priority,
            "cached": self.cached,
            "coalesced_with": self.coalesced_with,
            "trace_id": self.trace_id,
        }
        if self.joined_trace is not None:
            doc["joined_trace"] = self.joined_trace
        if self.state == DONE:
            doc["result"] = self.result
        if self.state == FAILED:
            doc["error"] = self.error
        return doc

    def __repr__(self):
        return "Job(id=%s, kind=%s, state=%s, tenant=%s)" % (
            self.id, self.kind, self.state, self.tenant)


class JobTable:
    """All live jobs plus the most recently finished ones."""

    def __init__(self, retention=DEFAULT_RETENTION):
        if int(retention) < 0:
            raise ValueError("retention must be >= 0, got %r" % retention)
        self.retention = int(retention)
        self._jobs = {}
        self._finished = collections.deque()   # job ids, finish order
        self._counter = 0

    def create(self, kind, params, tenant, priority, key, doc,
               trace_id=None):
        """A fresh :class:`Job` registered under a new id."""
        self._counter += 1
        job = Job("job-%06d" % self._counter, kind, params, tenant,
                  priority, key, doc, trace_id=trace_id)
        self._jobs[job.id] = job
        return job

    def get(self, job_id):
        return self._jobs.get(job_id)

    def drop(self, job_id):
        """Remove a job that was never admitted (rejected at submit)."""
        self._jobs.pop(job_id, None)

    def mark_finished(self, job):
        """Record that ``job`` settled: it is now the newest finished job."""
        self._finished.append(job.id)

    def prune(self):
        """Drop the earliest-finished jobs beyond the retention cap.

        Jobs go in the order they finished, not the order they were
        created, so a slow job stays pollable for as long as a fast one.
        """
        while len(self._finished) > self.retention:
            self._jobs.pop(self._finished.popleft(), None)

    def stats(self):
        """Job counts by lifecycle state."""
        counts = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts

    def __len__(self):
        return len(self._jobs)
