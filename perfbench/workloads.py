"""The four workloads: set-up, a closed-loop window, checks, counters.

All load comes from this one process.  The serve workloads drive a
``repro serve`` child over loopback in a closed loop: each keep-alive
connection sends its next request only when the previous one has
answered.  serve-unique uses two connections (at most ``nproc``), so
the server always has a request queued while it stores a result;
serve-repeat uses one, so its latency is the hit path's own cost and
not time spent queued behind the other connection's hit (with two, the
same runs' medians spread twice as wide).  The library workloads call
the public entry points in process from a single thread.

serve-repeat's server keeps its results on disk, so hits come from both
tiers.  serve-unique's keeps them in the server's default memory store:
a disk-backed serve-unique run writes ~17k small files, and on an ext4
disk mounted with ``discard`` on a shared VM, deleting them slowed the
next runs' small-file stores for one to two minutes, moving the p50 of
consecutive runs by up to half.  The disk store's write cost stays
measured, as ``cache.store_us`` in the traced ledger and in
serve-repeat's pre-warm, which is part of its ``setup_s``.
"""

import asyncio
import collections
import itertools
import json
import math
import os
import tempfile
import time

from . import gen, hostspeed, kinds, serveproc, stats

SETUP_REPEATS = 3
UNIQUE_CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))
REPEAT_CONNECTIONS = 1

#: Ops replayed by the traced run, per kind, and replays per layer.
SERVE_SAMPLE = {"distance": 4, "detect": 3, "solve": 2, "factor": 2}
LIBRARY_SMALL_SAMPLE = 2
SERVE_REPS = 5
LIBRARY_SMALL_REPS = 5
LIBRARY_BATCH_REPS = 3

PARADIGMS = ("dmm", "quantum", "oscillator", "inmemory")

#: One timed operation.  ``group`` is the operation a call belongs to
#: (a library-batch round holds several calls); ``result`` is the serve
#: ``(status, raw body)`` or, in process, whether the answer checked out.
Record = collections.namedtuple("Record",
                                "index start end group result")


def _first_of_each(ops, per_kind):
    """Indices of the first ``per_kind[kind]`` ops of each kind."""
    taken = collections.Counter()
    chosen = []
    for index, op in enumerate(ops):
        kind = op["kind"]
        if taken[kind] < per_kind.get(kind, 0):
            taken[kind] += 1
            chosen.append(index)
    return chosen


def drive_http(port, bodies, order, seconds, connections, spans=None):
    """Closed loop over ``connections`` keep-alive connections.

    Sends ``bodies[order[k]]`` for k = 0, 1, ... until ``seconds`` pass
    or ``order`` runs out; returns ``(records, exhausted)``.  One thread
    drives every connection: with a thread per connection the two
    threads' turns on the interpreter lock added up to half a
    millisecond to a 1-ms request, by an amount that changed from
    second to second.  A record's result is ``(status, raw body)``;
    bodies are parsed after the window, by the checks.
    """
    return asyncio.run(_drive(port, bodies, order, seconds, connections,
                              spans))


async def _drive(port, bodies, order, seconds, connections, spans):
    positions = itertools.count()
    records = []
    exhausted = []
    deadline = time.perf_counter() + seconds

    async def connection():
        client = await serveproc.AsyncClient.open(port)
        try:
            while time.perf_counter() < deadline:
                position = next(positions)
                if position >= len(order):
                    exhausted.append(position)
                    return
                index = int(order[position])
                start = time.perf_counter()
                try:
                    result = await client.post_job(bodies[index])
                except (OSError, EOFError, ValueError,
                        asyncio.TimeoutError):
                    result = (None, None)
                    client.close()
                    client = await serveproc.AsyncClient.open(port)
                end = time.perf_counter()
                records.append(Record(index, start, end, position, result))
                if spans is not None:
                    spans.record("http.request", index, start, end)
        finally:
            client.close()

    await asyncio.gather(*(connection() for _ in range(connections)))
    records.sort(key=lambda record: record.start)
    return records, bool(exhausted)


class ServeWorkload:
    """serve-unique (every request new) or serve-repeat (Zipf hits)."""

    reps = SERVE_REPS
    #: Requests run in the server child, on whichever CPU it has, while
    #: the host's speed is sampled in this process: every request is
    #: scaled by the window's median sample, as the nearby samples track
    #: the child's CPU only on average.
    speed_neighbourhood_s = math.inf

    def __init__(self, ctx, repeat):
        self.ctx = ctx
        self.repeat = repeat
        self.hit_path = repeat
        self.connections = REPEAT_CONNECTIONS if repeat \
            else UNIQUE_CONNECTIONS
        self.store = "disk" if repeat else "memory"
        self.children = []
        self.adapters = {}
        self.server = None
        self.cursor = 0

    def _spawn(self, store):
        """A server child; ``store`` is ``"disk"`` (a fresh directory),
        ``"memory"``, or ``None`` (``--no-cache``)."""
        if store == "disk":
            store = tempfile.mkdtemp(dir=self.ctx.workdir)
        log = os.path.join(self.ctx.workdir,
                           "serve-%d.log" % len(self.children))
        child = serveproc.ServeChild(self.ctx.src_dir, log, store)
        self.children.append(child)
        return child

    def setup(self):
        seed = self.ctx.seed
        if self.repeat:
            self.ops = gen.serve_ops(seed, gen.REPEAT_WORKING_SET, stream=1)
            self.order = gen.zipf_draws(seed, len(self.ops),
                                        gen.REPEAT_DRAWS).tolist()
        else:
            self.ops = gen.serve_ops(seed, gen.UNIQUE_POOL)
            self.order = list(range(len(self.ops)))
        self.bodies = [serveproc.job_body(op["kind"], op["params"])
                       for op in self.ops]
        self.digest = gen.input_digest(self.ops)
        starts = []
        for attempt in range(SETUP_REPEATS):
            child = self._spawn(self.store)
            starts.append(child.start())
            if attempt < SETUP_REPEATS - 1:
                child.stop()
        self.server = child
        start = time.perf_counter()
        if self.repeat:
            # Pre-warm: every working-set request once, so the window
            # below is all store hits.
            records, _ = drive_http(self.server.port, self.bodies,
                                    range(len(self.ops)), float("inf"),
                                    self.connections)
            if self.failures(records):
                raise RuntimeError("pre-warming the result store failed")
        else:
            # One block of throwaway requests, so lazy imports in each
            # runner happen before the window.
            warm = gen.serve_ops(seed, len(gen.SERVE_BLOCK), stream=2)
            client = serveproc.Client(self.server.port)
            try:
                for op in warm:
                    client.post_job(serveproc.job_body(op["kind"],
                                                       op["params"]))
            finally:
                client.close()
        return stats.median(starts) + time.perf_counter() - start

    def window(self, seconds, speed, spans=None):
        """The next ``seconds`` of the request stream, with the host's
        speed sampled from a thread alongside."""
        with speed.sampling():
            records, exhausted = drive_http(self.server.port, self.bodies,
                                            self.order[self.cursor:],
                                            seconds, self.connections, spans)
        self.cursor += len(records)
        return records, exhausted

    def adapter(self, index):
        if index not in self.adapters:
            self.adapters[index] = kinds.prepare(self.ops[index])
        return self.adapters[index]

    def failures(self, records):
        """Refused, failed, or wrong-answer requests."""
        failed = 0
        for record in records:
            status, body = record.result
            doc = json.loads(body) if status == 200 else None
            if not doc or doc.get("state") != "done" \
                    or not self.adapter(record.index).check(doc["result"]):
                failed += 1
        return failed

    def kind_of(self, record):
        return self.ops[record.index]["kind"]

    @staticmethod
    def ops_per_s(records, speed=None):
        """Requests over the wall time both connections spanned (at the
        reference host speed when ``speed`` is given)."""
        start = min(r.start for r in records)
        end = max(r.end for r in records)
        wall = speed.scaled_span(start, end) if speed else end - start
        return len(records) / wall

    def read_counters(self):
        client = serveproc.Client(self.server.port)
        try:
            _, service = client.get("/v1/stats")
            _, metrics = client.get("/v1/metrics")
        finally:
            client.close()
        return service, metrics

    def count_metrics(self, before, after):
        """Counter deltas over the windows, read from outside."""
        (service_0, metrics_0), (service_1, metrics_1) = before, after

        def moved(name):
            return service_1[name] - service_0[name]

        def counted(snapshot, name):
            entry = snapshot.get(name)
            return entry["value"] if entry else 0

        def grew(name):
            return counted(metrics_1, name) - counted(metrics_0, name)

        requests = moved("requests")
        hits, misses = grew("cache.hits"), grew("cache.misses")
        # A memory hit only reorders the store's memory front; a disk hit
        # copies the entry into the full front, which evicts exactly one
        # entry.  With nothing stored in the window (flagged otherwise),
        # each eviction is one disk hit.
        memory_hits = hits - grew("cache.evictions")
        attempts = counted(metrics_1, "quantum.shor.order_finding_attempts")
        factorizations = counted(metrics_1, "quantum.shor.factorizations")
        return {
            "service.executions": moved("executions"),
            "service.coalesced": moved("coalesced"),
            "service.cache_hits": moved("cache_hits"),
            "service.batched": moved("batched"),
            "service.reuse_ratio": (moved("coalesced") + moved("cache_hits")
                                    + moved("batched")) / max(1, requests),
            "cache.hit_ratio": hits / max(1, hits + misses),
            "cache.mem_hit_share": memory_hits / hits if hits else 0.0,
            "cache.stores": grew("cache.stores"),
            "cache.evictions": grew("cache.evictions"),
            "cache.disk_evictions": grew("cache.disk_evictions"),
            "parallel.chunks": grew("parallel.tasks"),
            "parallel.retries": grew("parallel.retries"),
            "parallel.failures": grew("parallel.failures"),
            "serve.failures": grew("serve.failures"),
            "shor.order_attempts": attempts / factorizations
            if factorizations else 0.0,
        }

    def sample(self):
        return [(index, self.adapter(index))
                for index in _first_of_each(self.ops, SERVE_SAMPLE)]

    def replay_servers(self):
        """(--no-cache server for executing replays, warm server or None)."""
        miss = self._spawn(None)
        miss.start()
        return miss.port, self.server.port if self.repeat else None

    def close(self):
        for child in self.children:
            child.stop()


class LibraryWorkload:
    """library-small (wrapped entries, default options) or library-batch
    (one large call per paradigm, repeated in rounds)."""

    hit_path = False
    speed_neighbourhood_s = hostspeed.NEIGHBOURHOOD_S

    def __init__(self, ctx, batch):
        self.ctx = ctx
        self.batch = batch
        self.children = []
        self.cursor = 0
        self.reps = LIBRARY_BATCH_REPS if batch else LIBRARY_SMALL_REPS

    def _generate(self):
        if self.batch:
            ops = gen.library_batch_round(self.ctx.seed)
        else:
            ops = gen.library_small_pool(self.ctx.seed)
        return ops, [kinds.prepare(op) for op in ops]

    def setup(self):
        """Imports (timed once, at start-up) plus the median of repeated
        input generation and kernel-object construction (VMM
        programming, circuits, formulas), plus one warm-up call per
        library-small input."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.ops, self.adapters = self._generate()
            times.append(time.perf_counter() - start)
        self.digest = gen.input_digest(self.ops)
        self.order = None if self.batch \
            else gen.library_small_schedule(self.ctx.seed, self.ops)
        start = time.perf_counter()
        if not self.batch:
            for adapter in self.adapters:
                adapter.call()
        warm = time.perf_counter() - start
        return self.ctx.import_s + stats.median(times) + warm

    def _call(self, index, group, spans):
        adapter = self.adapters[index]
        start = time.perf_counter()
        output = adapter.call()
        end = time.perf_counter()
        if spans is not None:
            spans.record("call", index, start, end)
        ok = adapter.check(adapter.result_doc(output))
        return Record(index, start, end, group, ok)

    def window(self, seconds, speed, spans=None):
        """Calls until ``seconds`` pass; whole rounds for library-batch.

        Answers are checked, and the host's speed sampled, between calls,
        outside the timed spans.
        """
        records = []
        deadline = time.perf_counter() + seconds
        if self.batch:
            group = 0
            while not records or time.perf_counter() < deadline:
                for index in range(len(self.adapters)):
                    speed.maybe_sample()
                    records.append(self._call(index, group, spans))
                group += 1
            speed.sample()
            return records, False
        while self.cursor < len(self.order):
            speed.maybe_sample()
            if time.perf_counter() >= deadline:
                return records, False
            records.append(self._call(self.order[self.cursor], self.cursor,
                                      spans))
            self.cursor += 1
        return records, True

    @staticmethod
    def failures(records):
        return sum(1 for record in records if not record.result)

    def kind_of(self, record):
        return self.ops[record.index]["kind"]

    @staticmethod
    def ops_per_s(records, speed=None):
        """Operations per busy second of calls."""
        groups = group_durations(records, speed)
        return len(groups) / sum(groups.values())

    def sample(self):
        per_kind = collections.Counter(op["kind"] for op in self.ops)
        limit = 1 if self.batch else LIBRARY_SMALL_SAMPLE
        return [(index, self.adapters[index])
                for index in _first_of_each(
                    self.ops, {kind: limit for kind in per_kind})]

    def replay_servers(self):
        miss = serveproc.ServeChild(
            self.ctx.src_dir, os.path.join(self.ctx.workdir, "serve.log"))
        self.children.append(miss)
        miss.start()
        return miss.port, None

    def close(self):
        for child in self.children:
            child.stop()


def duration(record, speed=None):
    """A record's wall time, at the reference host speed when ``speed``
    (a :class:`~perfbench.hostspeed.HostSpeed`) is given."""
    return speed.scaled(record) if speed else record.end - record.start


def group_durations(records, speed=None):
    """Busy time per operation: the summed calls of each group."""
    groups = collections.OrderedDict()
    for record in records:
        groups[record.group] = groups.get(record.group, 0.0) \
            + duration(record, speed)
    return groups


def paradigm_seconds(workload, records, speed):
    """Median per operation of each paradigm's summed call time (0 when
    the workload has no call of that paradigm)."""
    per_group = {paradigm: collections.defaultdict(float)
                 for paradigm in PARADIGMS}
    for record in records:
        paradigm = kinds.ADAPTERS[workload.kind_of(record)].paradigm
        per_group[paradigm][record.group] += duration(record, speed)
    return {paradigm: stats.median(list(groups.values())) if groups else 0.0
            for paradigm, groups in per_group.items()}


WORKLOADS = {
    "serve-unique": lambda ctx: ServeWorkload(ctx, repeat=False),
    "serve-repeat": lambda ctx: ServeWorkload(ctx, repeat=True),
    "library-small": lambda ctx: LibraryWorkload(ctx, batch=False),
    "library-batch": lambda ctx: LibraryWorkload(ctx, batch=True),
}
