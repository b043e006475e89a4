"""Every metric the benchmark prints, and what each layer metric should move.

Names, units, directions and bounds are read from ``BENCHMARK.json`` at
the repository root.  ``MOVES`` is what that file cannot hold: for each
per-layer metric, the end-to-end metric and workload a change to that
layer should move -- the prediction a later change is judged by.  Every
other workload is predicted to stay put.
"""

import json
import os

with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
UNITS = {metric["name"]: metric["unit"]
         for metric in SPEC["end_to_end"] + SPEC["per_layer"]}

MOVES = {
    "app.http_ms": "latency_p50_ms on serve-unique and serve-repeat",
    "service.submit_us": "latency_p50_ms on serve-repeat",
    "service.queue_wait_ms": "latency_p90_ms on serve-unique",
    "service.run_ms": "latency_p50_ms on serve-unique",
    "service.executions": "ops_per_s on serve-repeat",
    "service.coalesced": "ops_per_s on serve-repeat",
    "service.cache_hits": "ops_per_s on serve-repeat",
    "service.batched": "ops_per_s on serve-repeat",
    "service.reuse_ratio": "ops_per_s on serve-repeat",
    "cache.fingerprint_us":
        "latency_p50_ms on library-small and serve-repeat, oscillator_s on "
        "library-batch; not dmm_s or quantum_s",
    "cache.lookup_mem_us": "latency_p50_ms on serve-repeat",
    "cache.lookup_disk_us": "latency_p50_ms on serve-repeat",
    "cache.store_us": "latency_p50_ms on serve-unique",
    "cache.hit_ratio": "ops_per_s on serve-repeat",
    "cache.mem_hit_share": "latency_p50_ms on serve-repeat",
    "cache.stores": "latency_p50_ms on serve-unique",
    "cache.evictions": "latency_p50_ms on serve-repeat",
    "cache.disk_evictions": "latency_p50_ms on serve-repeat",
    "parallel.map_us":
        "latency_p50_ms on serve-unique; nothing on library-small",
    "parallel.chunks": "latency_p50_ms on serve-unique",
    "parallel.retries": "stays 0",
    "parallel.failures": "stays 0",
    "serve.failures": "stays 0",
    "entry.measure_pairs_us": "latency_p50_ms and ops_per_s on library-small",
    "entry.detect_us": "ops_per_s on library-small",
    "entry.solve_portfolio_us": "latency_p50_ms on serve-unique",
    "entry.shor_factor_us": "quantum_s on library-batch",
    "entry.runtime_run_us": "ops_per_s on library-small",
    "entry.solve_ensemble_us": "ops_per_s on library-small",
    "kernel.pairs_per_s": "oscillator_s on library-batch",
    "kernel.gates_per_s": "quantum_s on library-batch",
    "kernel.traj_steps_per_s": "dmm_s on library-batch",
    "kernel.macs_per_s": "inmemory_s on library-batch",
    "kernel.pairs": "oscillator_s on library-batch",
    "kernel.gate_shots": "quantum_s on library-batch",
    "kernel.traj_steps": "dmm_s on library-batch",
    "kernel.macs": "inmemory_s on library-batch",
    "kernel.fast_comparisons": "oscillator_s on library-batch",
    "ensemble.steps_to_solve": "dmm_s on library-batch",
    "ensemble.solved_fraction": "dmm_s on library-batch",
    "shor.order_attempts": "quantum_s on library-batch",
    "trace.overhead": "none: tracing cost itself",
    "trace.sanity_violations": "stays 0",
    "window_setup_s": "diagnostic: setup_s before host-speed scaling",
    "window_ops_per_s": "diagnostic: ops_per_s before host-speed scaling",
    "window_p50_ms": "diagnostic: latency_p50_ms before host-speed scaling",
    "host.reference_ms":
        "diagnostic: the host-speed reference loop's median time",
    "latency_p90_ms": "diagnostic: tail of each workload",
    "latency_p99_ms": "diagnostic: tail of each workload",
    "latency_samples": "diagnostic: samples behind the percentiles",
    "error_rate": "stays 0",
    "dmm_s": "library-batch time-to-solution, DMM",
    "quantum_s": "library-batch time-to-solution, quantum",
    "oscillator_s": "library-batch time-to-solution, oscillators",
    "inmemory_s": "library-batch time-to-solution, VMM",
}
