"""Per-kernel throughput: the paradigm hot paths, one rate each.

ROADMAP item 1 asks for throughput benchmarks on the paradigm kernels
"so wins are pinned to numbers".  The profiler
(``repro.core.profiling``) wires a throughput instrument into each
paradigm's innermost batch:

* ``quantum.runtime.gates``        -- gate applications / s in the
  statevector shot loop (:meth:`QuantumRuntime.run`);
* ``dmm.solver.steps``             -- forward-Euler steps / s in
  :meth:`DmmSolver.solve`;
* ``dmm.ensemble.traj_steps``      -- vectorized trajectory-steps / s in
  :func:`solve_ensemble` (the batched RHS across the whole ensemble);
* ``oscillator.distance.pairs``    -- pixel-pair comparisons / s in
  :meth:`OscillatorDistanceUnit.measure_pairs`;
* ``oscillator.fast.pixels``       -- segment-tested pixels / s in
  :meth:`OscillatorFastDetector.detect`;
* ``inmemory.vmm.ops``             -- multiply-accumulates / s in
  :meth:`AnalogVmm.multiply_batch`.

This benchmark drives each kernel on a fixed workload under a live
registry and reports the rates the instruments observed (the
``<name>_per_s`` histogram mean across batch calls).  The same numbers
flow to ``results/history.jsonl`` as ``kernel_throughput.*`` metrics,
giving ``tools/check_perf.py`` a direct per-kernel regression signal
-- a slowdown in any paradigm's hot loop moves exactly one row here.

Absolute rates are host-dependent; no assertions beyond the instruments
having fired.  The committed baseline carries the tolerance.
"""

import numpy as np
from conftest import emit_table

from repro.core import telemetry
from repro.core.rngs import make_rng
from repro.core.sat_instances import planted_ksat
from repro.inmemory.vmm import AnalogVmm
from repro.memcomputing.ensemble import solve_ensemble
from repro.memcomputing.solver import DmmSolver
from repro.oscillators.distance import OscillatorDistanceUnit
from repro.oscillators.fast import OscillatorFastDetector, rectangle_image
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.runtime import QuantumRuntime

GHZ_QUBITS = 10
SHOTS = 200
SAT_VARIABLES = 50
SAT_CLAUSES = 210
ENSEMBLE_BATCH = 32
ENSEMBLE_MAX_STEPS = 60_000
PAIR_COUNT = 20_000
FAST_SIZE = 48
FAST_THRESHOLD = 30.0
FAST_N = 9
FAST_CALLS = 10
VMM_SIZE = 48
VMM_BATCH = 50


def _rate(registry, name):
    """Mean observed rate of one throughput instrument (units / s)."""
    histogram = registry.histogram(name + "_per_s")
    assert histogram.count > 0, "%s never fired" % name
    return float(histogram.mean), int(registry.counter(name + "_units").value)


def _run_quantum(registry):
    circuit = QuantumCircuit(GHZ_QUBITS)
    circuit.h(0)
    for q in range(GHZ_QUBITS - 1):
        circuit.cnot(q, q + 1)
    circuit.measure_all()
    QuantumRuntime().run(circuit, shots=SHOTS, rng=7)
    return _rate(registry, "quantum.runtime.gates")


def _run_dmm(registry):
    formula = planted_ksat(SAT_VARIABLES, SAT_CLAUSES, rng=5)
    result = DmmSolver(max_steps=120_000).solve(
        formula, rng=np.random.default_rng(9))
    assert result.satisfied
    return _rate(registry, "dmm.solver.steps")


def _run_dmm_ensemble(registry):
    formula = planted_ksat(SAT_VARIABLES, SAT_CLAUSES, rng=5)
    result = solve_ensemble(formula, batch=ENSEMBLE_BATCH,
                            max_steps=ENSEMBLE_MAX_STEPS, rng=9)
    assert result.solved_fraction == 1.0
    return _rate(registry, "dmm.ensemble.traj_steps")


def _run_oscillator(registry):
    rng = make_rng(3)
    pairs = rng.uniform(0.0, 255.0, size=(PAIR_COUNT, 2))
    unit = OscillatorDistanceUnit()
    measures = unit.measure_pairs(pairs)
    assert len(measures) == PAIR_COUNT
    return _rate(registry, "oscillator.distance.pairs")


def _run_fast(registry):
    image, _corners = rectangle_image(FAST_SIZE, FAST_SIZE)
    detector = OscillatorFastDetector(threshold=FAST_THRESHOLD, n=FAST_N)
    for _ in range(FAST_CALLS):
        assert detector.detect(image)
    return _rate(registry, "oscillator.fast.pixels")


def _run_vmm(registry):
    rng = make_rng(1)
    vmm = AnalogVmm(rng.standard_normal((VMM_SIZE, VMM_SIZE)), rng=rng)
    vectors = rng.standard_normal((VMM_BATCH, VMM_SIZE))
    vmm.multiply_batch(vectors)
    return _rate(registry, "inmemory.vmm.ops")


KERNELS = [
    ("quantum", "gates/s", "GHZ-%d, %d shots" % (GHZ_QUBITS, SHOTS),
     _run_quantum),
    ("dmm", "steps/s", "3-SAT N=%d" % SAT_VARIABLES, _run_dmm),
    ("dmm_ensemble", "traj steps/s", "3-SAT N=%d, batch=%d"
     % (SAT_VARIABLES, ENSEMBLE_BATCH), _run_dmm_ensemble),
    ("oscillator", "pairs/s", "%d pixel pairs" % PAIR_COUNT,
     _run_oscillator),
    ("fast", "pixels/s", "%dx%d rectangle, t=%g, n=%d, %d calls"
     % (FAST_SIZE, FAST_SIZE, FAST_THRESHOLD, FAST_N, FAST_CALLS),
     _run_fast),
    ("inmemory", "MACs/s", "%dx%d crossbar, batch of %d"
     % (VMM_SIZE, VMM_SIZE, VMM_BATCH), _run_vmm),
]


def run_throughputs():
    """Drive each kernel under a fresh registry; returns per-kernel rows."""
    results = []
    for paradigm, unit_label, workload, runner in KERNELS:
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            rate, units = runner(registry)
        results.append((paradigm, unit_label, workload, rate, units))
    return results


def test_kernel_throughput(benchmark):
    results = benchmark.pedantic(run_throughputs, rounds=1, iterations=1)
    rows = [(paradigm, workload, units, rate, unit_label)
            for paradigm, unit_label, workload, rate, units in results]
    emit_table(
        "kernel_throughput",
        "Per-kernel throughput of the paradigm hot paths",
        ["paradigm", "workload", "units", "rate", "unit"],
        rows,
        notes=["Rates are the mean of the kernel's *_per_s throughput "
               "histogram (repro.core.profiling.record_throughput), "
               "measured over whole batch calls -- the same instruments "
               "`repro profile` reports.",
               "Host-dependent; regressions are judged by "
               "tools/check_perf.py against benchmarks/baseline.json, "
               "not asserted here."],
        metrics={"%s_rate" % paradigm: rate
                 for paradigm, _u, _w, rate, _n in results},
    )
    for _paradigm, _unit, _workload, rate, units in results:
        assert rate > 0.0 and units > 0
