"""The traced replay: one input timed at every layer boundary, inside out.

For each sampled op the replay times, ``reps`` times each and
interleaved so drift hits every layer alike:

1. ``kernel``  -- the bare kernel;
2. ``entry``   -- the public entry with ``cache=False``;
3. ``parallel`` -- the entry with the service's options (``retry=2``);
4. ``cache.*`` -- ``fingerprint``+``cache_key``, ``ResultCache.store``,
   and lookups served from memory and from disk;
5. ``service`` -- in-process ``JobService.submit`` to settle;
6. ``http``    -- ``POST /v1/jobs?wait`` to a ``repro serve`` child.

Layers 5-6 run without a result store (``cache=False`` /
``--no-cache``), so each replay executes; the store's own cost is layer
4.  Where a workload's requests are store hits, ``service.hit`` and
``http.hit`` replay the hit path against a warm store instead.  Every
call gets a span in the :class:`~perfbench.ledger.SpanLog`.
"""

import asyncio
import os
import time

import numpy as np

from repro.core import telemetry
from repro.core.cache import ResultCache
from repro.serve.service import JobService, ServeConfig

from . import ledger, serveproc, stats

#: The retry budget ``repro serve`` hands every kernel (its default).
SERVICE_RETRY = 2

#: Entry-layer metric name per kind.
ENTRY_NAMES = {"distance": "measure_pairs", "detect": "detect",
               "solve": "solve_portfolio", "factor": "shor_factor",
               "runtime": "runtime_run", "ensemble": "solve_ensemble"}

#: Kernel work unit and the kinds that do it, per rate metric.
RATE_UNITS = {"pairs": ("distance",), "gates": ("runtime", "factor"),
              "traj_steps": ("ensemble", "solve"), "macs": ("vmm",)}
UNIT_KEYS = {"pairs": "pairs", "gates": "gate_shots",
             "traj_steps": "traj_steps", "macs": "macs"}

#: The layer that wraps each replayed layer: a span's logical parent.
PARENT = {"kernel": "entry", "entry": "parallel", "parallel": "service",
          "service": "http", "cache.fingerprint": "service",
          "cache.store": "service", "cache.lookup_mem": "service.hit",
          "cache.lookup_disk": "service.hit", "service.hit": "http.hit"}

COUNTED = ("parallel.tasks", "parallel.retries", "parallel.failures",
           "quantum.shor.order_finding_attempts",
           "quantum.shor.factorizations")


def _counter(snapshot, name):
    entry = snapshot.get(name)
    return entry.get("value", 0) if entry else 0


class Replay:
    """Times sampled ops at each layer; ``run()`` returns per-op samples.

    ``sample`` is a list of ``(op_id, adapter)``.  ``miss_port`` is a
    ``--no-cache`` server for the executing HTTP path; ``hit_port`` a
    warm server whose store already holds every sampled op.
    """

    def __init__(self, sample, reps, spans, workdir, miss_port=None,
                 hit_port=None):
        self.sample = sample
        self.reps = reps
        self.spans = spans
        self.workdir = workdir
        self.miss_port = miss_port
        self.hit_port = hit_port
        self.layers = {op_id: {} for op_id, _ in sample}
        self.units = {}
        self.counts = {name: 0 for name in COUNTED}
        self.queue_wait = []
        self.run_time = []
        self.submit_miss = []
        self.submit_hit = []
        self.mismatches = 0

    def _time(self, op_id, layer, fn, *args, **kwargs):
        start = time.perf_counter()
        output = fn(*args, **kwargs)
        end = time.perf_counter()
        self._keep(op_id, layer, start, end)
        return output

    def _keep(self, op_id, layer, start, end):
        self.spans.record(layer, op_id, start, end, PARENT.get(layer))
        self.layers[op_id].setdefault(layer, []).append(end - start)

    def run(self):
        self._count()
        self._library_layers()
        if any(adapter.serve_params for _, adapter in self.sample):
            loop = asyncio.new_event_loop()
            try:
                loop.run_until_complete(self._service_layer())
            finally:
                loop.close()
            self._http_layer()
        return self

    def _count(self):
        """One default call per op under a registry: exact work counts."""
        for op_id, adapter in self.sample:
            registry = telemetry.MetricsRegistry()
            with telemetry.use_registry(registry):
                output = adapter.call()
            snapshot = registry.snapshot()
            for name in COUNTED:
                self.counts[name] += _counter(snapshot, name)
            if adapter.kind == "factor":
                adapter.order_attempts = int(_counter(
                    snapshot, "quantum.shor.order_finding_attempts"))
            self.units[op_id] = adapter.units(output)

    def _library_layers(self):
        for op_id, adapter in self.sample:
            store = ResultCache(cache_dir=os.path.join(self.workdir,
                                                       "replay-%d" % op_id))
            value = None
            for _ in range(self.reps):
                # Outputs are dropped before the next timed call: holding
                # a large one would make that call fault in fresh pages.
                kernel_out = self._time(op_id, "kernel", adapter.kernel)
                if adapter.entry is None:
                    kernel_out = None
                    continue
                entry_out = self._time(op_id, "entry", adapter.entry)
                if adapter.kind == "ensemble" and not np.array_equal(
                        kernel_out, entry_out.solve_steps):
                    self.mismatches += 1
                if value is None:
                    value = adapter.result_doc(entry_out)
                kernel_out = entry_out = None
                if adapter.serve_params is not None:
                    self._time(op_id, "parallel", adapter.entry,
                               retry=SERVICE_RETRY)
                key, doc = self._time(op_id, "cache.fingerprint",
                                      adapter.fingerprint)
                self._time(op_id, "cache.store", store.store, key, doc, value)
                self._time(op_id, "cache.lookup_mem", store.lookup, key, doc)
                store.clear_memory()
                self._time(op_id, "cache.lookup_disk", store.lookup, key, doc)

    async def _submit(self, service, op_id, adapter, layer):
        start = time.perf_counter()
        job = service.submit(adapter.kind, adapter.serve_params)
        submitted = time.perf_counter()
        await job.future
        end = time.perf_counter()
        self._keep(op_id, layer, start, end)
        if job.state != "done":
            raise RuntimeError("in-process job failed: %s" % job.error)
        return job, submitted - start

    async def _service_layer(self):
        serving = [(op_id, adapter) for op_id, adapter in self.sample
                   if adapter.serve_params is not None]
        service = JobService(ServeConfig(cache=False, retries=SERVICE_RETRY))
        await service.start()
        try:
            for _ in range(self.reps):
                for op_id, adapter in serving:
                    job, submit_s = await self._submit(service, op_id,
                                                       adapter, "service")
                    self.submit_miss.append(submit_s)
                    self.queue_wait.append(job.started_at - job.submitted_at)
                    self.run_time.append(job.finished_at - job.started_at)
        finally:
            await service.close()
        if self.hit_port is None:
            return
        store = ResultCache(cache_dir=os.path.join(self.workdir, "hits"))
        service = JobService(ServeConfig(cache=store, retries=SERVICE_RETRY))
        await service.start()
        try:
            for op_id, adapter in serving:
                await service.submit(adapter.kind, adapter.serve_params).future
            for _ in range(self.reps):
                for op_id, adapter in serving:
                    _job, submit_s = await self._submit(
                        service, op_id, adapter, "service.hit")
                    self.submit_hit.append(submit_s)
        finally:
            await service.close()

    def _http_layer(self):
        serving = [(op_id, adapter,
                    serveproc.job_body(adapter.kind, adapter.serve_params))
                   for op_id, adapter in self.sample
                   if adapter.serve_params is not None]
        for port, layer in ((self.miss_port, "http"),
                            (self.hit_port, "http.hit")):
            if port is None:
                continue
            client = serveproc.Client(port)
            try:
                for _ in range(self.reps):
                    for op_id, adapter, body in serving:
                        status, doc = self._time(op_id, layer,
                                                 client.post_job, body)
                        if status != 200 or doc.get("state") != "done":
                            raise RuntimeError("replayed request failed: %s"
                                               % doc)
            finally:
                client.close()

    # -- aggregation -------------------------------------------------------

    def chains(self, hit_path):
        """Per-op ledger rows: ``(op_id, kind, rows)`` per replay chain."""
        out = []
        for op_id, adapter in self.sample:
            layers = self.layers[op_id]
            if hit_path and "service.hit" in layers:
                names = ["cache.lookup_mem", "service.hit", "http.hit"]
                out.append((op_id, adapter.kind, self._rows(layers, names)))
            names = [name for name in ("kernel", "entry") if name in layers]
            outer = [name for name in ("parallel", "service", "http")
                     if name in layers]
            if adapter.same_work_across_retry:
                names += outer
            elif outer:
                out.append((op_id, adapter.kind, self._rows(layers, outer)))
            out.append((op_id, adapter.kind, self._rows(layers, names)))
        return out

    @staticmethod
    def _rows(layers, names):
        return ledger.self_times([(name, layers[name]) for name in names])

    def metrics(self, hit_path):
        """The replay's per-layer metrics (see ``perfbench/README.md``)."""
        chains = self.chains(hit_path)
        own = {}
        negative = 0
        for op_id, kind, rows in chains:
            negative += sum(row["negative"] for row in rows)
            # A chain's base row is its whole median, not a difference.
            for row in rows[1:]:
                own.setdefault((row["layer"], kind), []).append(row["self"])

        def pooled(layer, kinds=None):
            values = [value for (name, kind), found in own.items()
                      if name == layer and (kinds is None or kind in kinds)
                      for value in found]
            return stats.median(values) if values else 0.0

        def layer_median(layer):
            values = [stats.median(samples)
                      for layers in self.layers.values()
                      for name, samples in layers.items() if name == layer]
            return stats.median(values) if values else 0.0

        http_layer = "http.hit" if hit_path else "http"
        submits = self.submit_hit if hit_path and self.submit_hit \
            else self.submit_miss
        out = {
            "app.http_ms": 1e3 * pooled(http_layer),
            "service.submit_us": 1e6 * stats.median(submits) if submits
            else 0.0,
            "service.queue_wait_ms": 1e3 * stats.median(self.queue_wait)
            if self.queue_wait else 0.0,
            "service.run_ms": 1e3 * stats.median(self.run_time)
            if self.run_time else 0.0,
            "cache.fingerprint_us": 1e6 * layer_median("cache.fingerprint"),
            "cache.lookup_mem_us": 1e6 * layer_median("cache.lookup_mem"),
            "cache.lookup_disk_us": 1e6 * layer_median("cache.lookup_disk"),
            "cache.store_us": 1e6 * layer_median("cache.store"),
            "parallel.map_us": 1e6 * pooled("parallel"),
            "trace.sanity_violations": negative + self.mismatches,
        }
        for kind, name in ENTRY_NAMES.items():
            out["entry.%s_us" % name] = 1e6 * pooled("entry", (kind,))
        kernel_s = {op_id: stats.median(layers["kernel"])
                    for op_id, layers in self.layers.items()
                    if "kernel" in layers}
        for rate, unit_kinds in RATE_UNITS.items():
            key = UNIT_KEYS[rate]
            ops = [op_id for op_id, adapter in self.sample
                   if adapter.kind in unit_kinds]
            work = sum(self.units[op_id].get(key, 0) for op_id in ops)
            busy = sum(kernel_s[op_id] for op_id in ops
                       if self.units[op_id].get(key, 0))
            out["kernel.%s_per_s" % rate] = work / busy if busy else 0.0
        totals = {}
        for op_id, units in self.units.items():
            for key, value in units.items():
                if not isinstance(value, list):
                    totals[key] = totals.get(key, 0) + value
        out["kernel.pairs"] = totals.get("pairs", 0)
        out["kernel.gate_shots"] = totals.get("gate_shots", 0)
        out["kernel.traj_steps"] = totals.get("traj_steps", 0)
        out["kernel.macs"] = totals.get("macs", 0)
        out["kernel.fast_comparisons"] = totals.get("fast_comparisons", 0)
        solve_steps = [step for units in self.units.values()
                       for step in units.get("solve_steps", [])]
        out["ensemble.steps_to_solve"] = stats.median(solve_steps) \
            if solve_steps else 0.0
        trajectories = totals.get("trajectories", 0)
        out["ensemble.solved_fraction"] = totals.get("solved", 0) \
            / trajectories if trajectories else 0.0
        return out
