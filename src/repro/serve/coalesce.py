"""Request coalescing and small-request batching for ``repro serve``.

Two complementary mechanisms keep N callers from costing N kernel
executions:

* :class:`Coalescer` -- *identical* requests share one execution.  The
  workload fingerprint from :mod:`repro.core.cache` (kind + canonical
  parameters + code version) keys every in-flight primary job; a new
  submission with the same key joins the primary as a *follower*
  instead of queueing, and receives a copy of the primary's result the
  moment it lands (``serve.coalesced`` counts followers).  Combined
  with the result store, N identical requests -- concurrent or
  sequential -- perform exactly one kernel execution.

* :class:`DistanceBatcher` -- *compatible* (not identical) small
  behavioral-mode distance requests are merged at dispatch time.  When
  the dispatcher pops one it drains other queued behavioral distance
  jobs until :data:`MAX_BATCH_PAIRS` pairs are gathered, and the whole
  batch runs as one vectorized ``measure_batch`` call on the event
  loop.  The PR 7 equivalence tier guarantees the batched measures are
  bit-identical to scalar evaluation, so batching is invisible in the
  results (``serve.batched`` counts jobs that rode along; the
  ``serve.batch.pairs`` histogram records batch sizes).  There is no
  artificial delay: a lone distance job dispatches immediately, batches
  only form from work that is already queued.  Physical-mode jobs never
  merge: each pair is an ODE integration (~2 s), so a merge saves
  nothing, and alone each job keeps the service's timeout and retries.
"""


#: Pair budget of one merged distance batch.
MAX_BATCH_PAIRS = 4096


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


def _behavioral_distance(job):
    return job.kind == "distance" and job.params["mode"] == "behavioral"


class DistanceBatcher:
    """Dispatch-time merge of compatible queued distance jobs."""

    def __init__(self, max_pairs=MAX_BATCH_PAIRS):
        if int(max_pairs) < 1:
            raise ValueError("max_pairs must be >= 1, got %r" % max_pairs)
        self.max_pairs = int(max_pairs)

    def gather(self, lead, queue):
        """``[lead, ...compatible queued distance jobs]`` within budget.

        Compatibility: kind ``distance`` in ``behavioral`` mode, for
        the lead and every job merged into its call (the unit
        calibration decides the response curve, and a physical job
        dispatches alone).  The combined batch never exceeds
        ``max_pairs`` pairs (jobs are taken in priority order until the
        budget is spent).
        """
        if not _behavioral_distance(lead):
            return [lead]
        budget = self.max_pairs - len(lead.params["pairs"])
        if budget <= 0:
            return [lead]
        state = {"budget": budget}

        def fits(job):
            if not _behavioral_distance(job):
                return False
            cost = len(job.params["pairs"])
            if cost > state["budget"]:
                return False
            state["budget"] -= cost
            return True

        return [lead] + queue.take_matching(fits, limit=queue.depth)
