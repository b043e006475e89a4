"""Request coalescing for ``repro serve``.

:class:`Coalescer` lets *identical* requests share one execution.  The
workload fingerprint from :mod:`repro.core.cache` (kind + canonical
parameters + code version) keys every in-flight primary job; a new
submission with the same key joins the primary as a *follower* instead
of queueing, and receives a copy of the primary's result the moment it
lands (``serve.coalesced`` counts followers).  Combined with the result
store, N identical requests -- concurrent or sequential -- perform
exactly one kernel execution.  Only queued kernel-thread jobs register:
a bounded job runs to completion at submission, before anything could
join it, and its twins replay it from the store.
"""


class Coalescer:
    """In-flight primary jobs keyed by workload fingerprint."""

    def __init__(self):
        self._inflight = {}

    def primary_for(self, key):
        """The in-flight primary for ``key``, or None."""
        return self._inflight.get(key)

    def register(self, key, job):
        """Make ``job`` the in-flight primary for ``key``."""
        self._inflight[key] = job

    def join(self, primary, follower):
        """Attach ``follower`` to ``primary``'s in-flight execution.

        The follower records both which primary it joined and that
        primary's trace id, so a request that never executed still
        points at the trace that did the work.
        """
        follower.coalesced_with = primary.id
        follower.joined_trace = primary.trace_id
        primary.followers.append(follower)

    def resolve(self, key):
        """The computation for ``key`` finished; stop attracting joins."""
        self._inflight.pop(key, None)

    def __len__(self):
        return len(self._inflight)
