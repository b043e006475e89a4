"""One adapter per operation kind: each layer's call, and the answer check.

An adapter is built at set-up from an op's params and then offers the
calls the benchmark makes into the program, innermost first:

* ``kernel()`` -- the bare kernel on prepared inputs;
* ``entry(retry=None)`` -- the public entry point with ``cache=False``
  (``retry=2`` adds the service's options: the chunked, retrying path);
* ``call()`` -- the entry with the library defaults, as a user calls it;
* ``fingerprint()`` -- payload digest + ``fingerprint`` + ``cache_key``;

and ``result_doc(output)`` turns an entry's output into the JSON result
``repro serve`` returns for it, which ``check(doc)`` verifies.
``units(output)`` gives the exact work the kernel did.
"""

import math

import numpy as np

from repro.core import cache as result_cache
from repro.core.cnf import parse_dimacs
from repro.core.integrators import euler_clip_advance
from repro.core.rngs import make_rng, spawn_rngs
from repro.inmemory.vmm import AnalogVmm
from repro.memcomputing.ensemble import BatchedDmm, solve_ensemble
from repro.memcomputing.solver import DmmSolver, solve_portfolio
from repro.oscillators.distance import OscillatorDistanceUnit
from repro.oscillators.fast.bresenham import interior_pixels
from repro.oscillators.fast.oscillator_fast import OscillatorFastDetector
from repro.quantum.algorithms.shor import order_finding_circuit, shor_factor
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.microarch import MicroArchitecture, assemble
from repro.quantum.runtime import QuantumRuntime, circuit_fingerprint
from repro.serve.service import MAX_IMAGE_PIXELS, MAX_PAIRS_PER_REQUEST

#: Largest relative Frobenius error accepted from the analog VMM
#: against the exact matmul; the programmed devices carry 2% variability
#: and measure ~2% error.
VMM_TOLERANCE = 0.05

#: The solver settings ``solve_ensemble`` uses by default; the kernel
#: replay integrates with the same ones.
ENSEMBLE_DT = 0.08
ENSEMBLE_CHECK_EVERY = 25
ENSEMBLE_MAX_STEPS = 100_000


class Distance:
    kind = "distance"
    paradigm = "oscillator"
    same_work_across_retry = True

    def __init__(self, params):
        self.pairs = np.asarray(params["pairs"], dtype=float).reshape(-1, 2)
        self.a = np.ascontiguousarray(self.pairs[:, 0])
        self.b = np.ascontiguousarray(self.pairs[:, 1])
        self.mode = params.get("mode", "behavioral")
        self.unit = OscillatorDistanceUnit(mode=self.mode)
        self.serve_params = None
        if len(self.pairs) <= MAX_PAIRS_PER_REQUEST:
            self.serve_params = {"pairs": self.pairs.tolist(),
                                 "mode": self.mode}
        self._expected = None

    def kernel(self):
        return self.unit.measure_batch(self.a, self.b)

    def entry(self, retry=None):
        return self.unit.measure_pairs(self.pairs, cache=False, retry=retry)

    def call(self):
        return self.unit.measure_pairs(self.pairs)

    def fingerprint(self):
        meta = {"pairs": result_cache.digest(self.pairs.tolist()),
                "count": len(self.pairs), "mode": self.mode}
        doc = result_cache.fingerprint("serve.distance", meta)
        return result_cache.cache_key(doc), doc

    def result_doc(self, output):
        return {"measures": [float(value) for value in output],
                "count": len(output), "mode": self.mode}

    def check(self, doc):
        """Bit-for-bit equal to a client-side ``measure_batch``."""
        if self._expected is None:
            self._expected = [float(value) for value in self.kernel()]
        return doc["measures"] == self._expected

    def units(self, output):
        return {"pairs": len(self.pairs)}


class Detect:
    kind = "detect"
    paradigm = "oscillator"
    same_work_across_retry = True

    def __init__(self, params):
        self.image = np.asarray(params["image"], dtype=float)
        self.threshold = float(params.get("threshold", 30.0))
        self.n = int(params.get("n", 9))
        self.detector = OscillatorFastDetector(threshold=self.threshold,
                                               n=self.n)
        self.serve_params = None
        if self.image.size <= MAX_IMAGE_PIXELS:
            self.serve_params = {"image": self.image.tolist(),
                                 "threshold": self.threshold, "n": self.n}
        self._expected = None

    def kernel(self):
        """The segment test on every interior pixel, with no wrapper."""
        detector = OscillatorFastDetector(threshold=self.threshold, n=self.n)
        return [(row, col) for row, col in interior_pixels(self.image)
                if detector.is_corner(self.image, row, col)]

    def entry(self, retry=None):
        return self.detector.detect(self.image, cache=False, retry=retry)

    def call(self):
        return self.detector.detect(self.image)

    def fingerprint(self):
        meta = {"image": result_cache.digest(self.image.tolist()),
                "shape": list(self.image.shape),
                "threshold": self.threshold, "n": self.n}
        doc = result_cache.fingerprint("serve.detect", meta)
        return result_cache.cache_key(doc), doc

    def result_doc(self, output):
        return {"corners": [[int(row), int(col)] for row, col in output],
                "count": len(output)}

    def check(self, doc):
        """Equal to the bare segment test on the same image (computed on
        the first check, outside any timed span).  It shares no code with
        ``detect``'s wrapper, so it can fail on the library workloads,
        where ``detect`` itself is what runs."""
        if self._expected is None:
            self._expected = self.result_doc(self.kernel())["corners"]
        return doc["corners"] == self._expected

    def units(self, output):
        return {"fast_comparisons":
                self.detector.last_stats["oscillator_comparisons"]}


class Solve:
    kind = "solve"
    paradigm = "dmm"
    same_work_across_retry = True

    def __init__(self, params):
        self.serve_params = dict(params)
        self.formula = parse_dimacs(params["dimacs"])
        self.dimacs = params["dimacs"]
        self.attempts = int(params["attempts"])
        self.max_steps = int(params["max_steps"])
        self.seed = int(params["seed"])

    def kernel(self):
        """Each portfolio member's solver on its own spawned stream."""
        solver = DmmSolver(max_steps=self.max_steps)
        return [solver.solve(self.formula, rng=member)
                for member in spawn_rngs(self.seed, self.attempts)]

    def entry(self, retry=None):
        return solve_portfolio(self.formula, attempts=self.attempts,
                               rng=self.seed, max_steps=self.max_steps,
                               cache=False, retry=retry)

    def call(self):
        return solve_portfolio(self.formula, attempts=self.attempts,
                               rng=self.seed, max_steps=self.max_steps)

    def fingerprint(self):
        meta = {"dimacs": result_cache.digest(self.dimacs),
                "attempts": self.attempts, "max_steps": self.max_steps,
                "seed": self.seed}
        doc = result_cache.fingerprint("serve.solve", meta)
        return result_cache.cache_key(doc), doc

    def result_doc(self, output):
        best = output.best
        assignment = None
        if best.satisfied:
            assignment = {str(var): bool(val)
                          for var, val in sorted(best.assignment.items())}
        return {"satisfied": bool(best.satisfied), "assignment": assignment,
                "steps": int(best.steps), "attempts": int(output.attempts)}

    def check(self, doc):
        """Satisfied, with an assignment that satisfies the formula."""
        if not doc["satisfied"] or doc["assignment"] is None:
            return False
        assignment = {int(var): val for var, val in doc["assignment"].items()}
        return self.formula.is_satisfied_by(assignment)

    def units(self, output):
        members = output.results
        return {"traj_steps": sum(member.steps for member in members),
                "solve_steps": [member.steps for member in members
                                if member.satisfied],
                "trajectories": len(members),
                "solved": sum(1 for member in members if member.satisfied)}


class Factor:
    kind = "factor"
    paradigm = "quantum"
    #: shor_factor's serial and retrying paths draw different random
    #: streams, so they can take different numbers of order-finding
    #: attempts: the two are not the same work.
    same_work_across_retry = False

    def __init__(self, params):
        self.serve_params = dict(params)
        self.n = int(params["n"])
        self.seed = int(params["seed"])
        self.circuit, _t, _bits = order_finding_circuit(2, self.n)
        self.gates = sum(self.circuit.gate_counts().values())
        #: Order-finding attempts of the serial entry; set by the
        #: replay's counting pass before the kernel is timed.
        self.order_attempts = 0

    def kernel(self):
        """As many order-finding circuit runs as the entry made."""
        rng = make_rng(self.seed)
        for _ in range(self.order_attempts):
            circuit, _t, _bits = order_finding_circuit(2, self.n)
            circuit.run(rng=rng)

    def entry(self, retry=None):
        return shor_factor(self.n, rng=self.seed, cache=False, retry=retry)

    def call(self):
        return shor_factor(self.n, rng=self.seed)

    def fingerprint(self):
        doc = result_cache.fingerprint("serve.factor",
                                       {"n": self.n, "seed": self.seed})
        return result_cache.cache_key(doc), doc

    def result_doc(self, output):
        factors = None
        if output.succeeded:
            factors = sorted(int(factor) for factor in output.factors)
        return {"n": self.n, "succeeded": bool(output.succeeded),
                "factors": factors, "method": str(output.method)}

    def check(self, doc):
        """Two non-trivial factors whose product is n."""
        factors = doc["factors"]
        return (doc["succeeded"] and factors is not None
                and len(factors) == 2 and all(1 < f < self.n for f in factors)
                and factors[0] * factors[1] == self.n)

    def units(self, output):
        return {"gate_shots": self.order_attempts * self.gates}


class Runtime:
    kind = "runtime"
    paradigm = "quantum"
    same_work_across_retry = False
    serve_params = None

    def __init__(self, params):
        qubits = int(params["qubits"])
        circuit = QuantumCircuit(qubits)
        for angles in np.asarray(params["angles"]):
            for qubit, angle in enumerate(angles):
                circuit.ry(qubit, float(angle))
            for qubit in range(qubits - 1):
                circuit.cnot(qubit, qubit + 1)
        self.circuit = circuit.measure_all()
        self.shots = int(params["shots"])
        self.seed = int(params["seed"])
        self.runtime = QuantumRuntime()
        self.microarch = MicroArchitecture(qubits)
        self.program = assemble(self.circuit)
        self.cbits = [op.cbit for op in self.circuit.measure_ops]
        self.gates = sum(self.circuit.gate_counts().values())
        self._expected = None

    def kernel(self):
        return self.microarch.execute_shots(self.program, self.shots,
                                            rng=self.seed)

    def entry(self, retry=None):
        return self.runtime.run(self.circuit, shots=self.shots, rng=self.seed,
                                cache=False, retry=retry)

    def call(self):
        return self.runtime.run(self.circuit, shots=self.shots, rng=self.seed)

    def fingerprint(self):
        meta = {"circuit": circuit_fingerprint(self.circuit),
                "shots": self.shots, "rng": self.seed}
        doc = result_cache.fingerprint("quantum-shots", meta)
        return result_cache.cache_key(doc), doc

    def result_doc(self, output):
        return {"counts": sorted([int(value), int(count)]
                                 for value, count in output.counts.items())}

    def check(self, doc):
        """The same histogram as the bare kernel on the same seed."""
        if self._expected is None:
            counts = {}
            for result in self.kernel():
                value = result.bits_as_int(self.cbits)
                counts[value] = counts.get(value, 0) + 1
            self._expected = sorted([value, count]
                                    for value, count in counts.items())
        return doc["counts"] == self._expected

    def units(self, output):
        return {"gate_shots": self.gates * self.shots}


class Ensemble:
    kind = "ensemble"
    paradigm = "dmm"
    same_work_across_retry = False
    serve_params = None

    def __init__(self, params):
        self.formula = parse_dimacs(params["dimacs"])
        self.batch = int(params["batch"])
        self.seed = int(params["seed"])

    def kernel(self):
        """The batched Euler-clip integration, driven from outside.

        Built from the public pieces ``solve_ensemble`` runs on its
        serial path (``BatchedDmm.rhs_batch`` under
        ``euler_clip_advance``, solve checks every
        ``ENSEMBLE_CHECK_EVERY`` steps on the shrinking active stack);
        the replay checks that it returns the entry's exact solve steps.
        """
        batched = BatchedDmm(self.formula)
        lower = batched.system.lower_bounds()[None, :]
        upper = batched.system.upper_bounds()[None, :]
        states = batched.initial_states(self.batch, make_rng(self.seed))
        solve_steps = np.full(self.batch, np.inf)
        unsat = batched.unsatisfied_counts(states)
        solve_steps[unsat == 0] = 0
        active = unsat > 0
        step = 0
        while step < ENSEMBLE_MAX_STEPS and active.any():
            run = min(ENSEMBLE_CHECK_EVERY, ENSEMBLE_MAX_STEPS - step)
            live = euler_clip_advance(batched.rhs_batch, states[active],
                                      ENSEMBLE_DT, run, lower, upper)
            states[active] = live
            step += run
            solved = batched.unsatisfied_counts(live) == 0
            if solved.any():
                finished = np.flatnonzero(active)[solved]
                solve_steps[finished] = step
                active[finished] = False
        return solve_steps

    def entry(self, retry=None):
        return solve_ensemble(self.formula, batch=self.batch, rng=self.seed,
                              cache=False, retry=retry)

    def call(self):
        return solve_ensemble(self.formula, batch=self.batch, rng=self.seed)

    def fingerprint(self):
        meta = {"formula": result_cache.formula_fingerprint(self.formula),
                "batch": self.batch, "rng": self.seed}
        doc = result_cache.fingerprint("dmm-ensemble", meta)
        return result_cache.cache_key(doc), doc

    def result_doc(self, output):
        return {"solve_steps": [None if math.isinf(step) else float(step)
                                for step in output.solve_steps]}

    def check(self, doc):
        """Every trajectory solved."""
        return None not in doc["solve_steps"]

    def units(self, output):
        solved = output.solved_steps
        return {"traj_steps": float(output.total_trajectory_steps),
                "solve_steps": [float(step) for step in solved],
                "trajectories": len(output.solve_steps),
                "solved": len(solved)}


class Vmm:
    """``multiply_batch`` has no wrapper: no entry layer, no cache key."""

    kind = "vmm"
    paradigm = "inmemory"
    same_work_across_retry = False
    serve_params = None

    def __init__(self, params):
        self.weights = np.asarray(params["weights"], dtype=float)
        self.vectors = np.asarray(params["vectors"], dtype=float)
        self.vmm = AnalogVmm(self.weights, variability=params["variability"],
                             rng=int(params["seed"]))
        self._exact = None

    def kernel(self):
        return self.vmm.multiply_batch(self.vectors)

    entry = None
    fingerprint = None

    def call(self):
        return self.vmm.multiply_batch(self.vectors)

    def result_doc(self, output):
        if self._exact is None:
            self._exact = self.vectors @ self.weights
        error = np.linalg.norm(output - self._exact) \
            / np.linalg.norm(self._exact)
        return {"relative_error": float(error)}

    def check(self, doc):
        """Within ``VMM_TOLERANCE`` of the exact matmul."""
        return doc["relative_error"] <= VMM_TOLERANCE

    def units(self, output):
        batch, n_in = self.vectors.shape
        return {"macs": batch * n_in * self.weights.shape[1]}


ADAPTERS = {cls.kind: cls for cls in
            (Distance, Detect, Solve, Factor, Runtime, Ensemble, Vmm)}


def prepare(op):
    """The adapter for one generated op."""
    return ADAPTERS[op["kind"]](op["params"])
