"""Noise channels for the simulated qubit chip.

Section II.B's central challenge is decoherence: "Qubits with
sufficiently long coherence times ... are crucial requirements that have
not yet been met."  The ideal statevector backend is exact; this module
adds the standard stochastic error channels so that the stack can study
how results degrade as the chip gets worse:

* :class:`DepolarizingNoise` -- after every gate, each touched qubit
  suffers a uniformly random Pauli error with probability ``p``,
* readout error -- measured bits flip with probability ``p_readout``,

implemented as Monte-Carlo trajectories (exact for these channels when
averaged over shots).  :class:`NoisyMicroArchitecture` drops into the
stack wherever :class:`~repro.quantum.microarch.MicroArchitecture` fits,
including under :class:`~repro.quantum.runtime.QuantumRuntime`, where it
runs shot by shot.
"""


from ..core.exceptions import QuantumError
from ..core.rngs import make_rng
from . import gates
from .microarch import MicroArchitecture

_PAULIS = (gates.X, gates.Y, gates.Z)


class DepolarizingNoise:
    """Per-gate single-qubit depolarizing channel (trajectory sampling).

    Parameters
    ----------
    gate_error : float
        Probability that each qubit touched by a gate suffers a random
        Pauli afterwards.
    readout_error : float
        Probability that a measurement result is reported flipped.
    """

    def __init__(self, gate_error=0.0, readout_error=0.0):
        if not 0.0 <= gate_error <= 1.0:
            raise QuantumError("gate_error must be a probability")
        if not 0.0 <= readout_error <= 1.0:
            raise QuantumError("readout_error must be a probability")
        self.gate_error = float(gate_error)
        self.readout_error = float(readout_error)

    def apply_after_gate(self, state, qubits, rng):
        """Sample and apply Pauli errors on the gate's operand qubits."""
        if self.gate_error == 0.0:
            return
        for qubit in qubits:
            if rng.random() < self.gate_error:
                pauli = _PAULIS[rng.integers(0, 3)]
                state.apply_gate(pauli, [qubit])

    def corrupt_readout(self, bit, rng):
        """Possibly flip a measured classical bit."""
        if self.readout_error and rng.random() < self.readout_error:
            return 1 - bit
        return bit


class NoisyMicroArchitecture(MicroArchitecture):
    """A micro-architecture whose chip suffers gate and readout errors."""

    def __init__(self, num_qubits, noise, **kwargs):
        super().__init__(num_qubits, **kwargs)
        if not isinstance(noise, DepolarizingNoise):
            raise QuantumError("noise must be a DepolarizingNoise")
        self.noise = noise

    def execute(self, program, rng=None, max_instructions=1_000_000):
        """Execute with noise injected after gates and at readout."""
        rng = make_rng(rng)
        # Re-implement the dispatch loop with noise hooks; the parent's
        # loop is small enough that sharing via callbacks would obscure it.
        from .state import StateVector
        from ..core.exceptions import MicroArchError

        state = StateVector(self.num_qubits)
        cbits = {}
        pc = 0
        executed = 0
        elapsed = 0.0
        while True:
            if pc < 0 or pc >= len(program):
                raise MicroArchError("program counter %d out of range" % pc)
            if executed > max_instructions:
                raise MicroArchError(
                    "program exceeded %d instructions" % max_instructions)
            instruction = program[pc]
            executed += 1
            elapsed += self._duration(instruction)
            if instruction.kind == "halt":
                break
            if instruction.kind == "gate":
                op = instruction.op
                if op.permutation is not None:
                    state.apply_permutation(op.permutation, op.qubits)
                else:
                    state.apply_gate(op.resolved_matrix(), op.qubits)
                self.noise.apply_after_gate(state, op.qubits, rng)
                pc += 1
            elif instruction.kind == "measure":
                op = instruction.op
                raw = state.measure(op.qubit, rng=rng)
                cbits[op.cbit] = self.noise.corrupt_readout(raw, rng)
                pc += 1
            elif instruction.kind == "branch":
                cbit, expected = instruction.condition
                pc = instruction.target \
                    if cbits.get(cbit, 0) == expected else pc + 1
            else:
                raise MicroArchError("unknown instruction kind %r"
                                     % instruction.kind)
        from .microarch import ExecutionResult

        return ExecutionResult(cbits, state, executed, elapsed,
                               elapsed > self.coherence_ns)

    def execute_shots(self, program, shots, rng=None,
                      max_instructions=1_000_000, fuse=True):
        """Run ``program`` for ``shots`` repetitions, one :meth:`execute`
        per shot on one stream.

        Noise draws interleave with each shot's measurement draws, so
        shots share no gate work: this is the scalar loop the base class
        runs for programs with branches.  ``fuse`` has nothing to fuse
        here and is ignored.
        """
        rng = make_rng(rng)
        shots = int(shots)
        if shots < 0:
            raise ValueError("shots must be non-negative")
        return [self.execute(program, rng=rng,
                             max_instructions=max_instructions)
                for _ in range(shots)]


def bell_fidelity_vs_noise(gate_errors, shots=400, rng=None):
    """Bell-pair correlation versus gate error rate.

    Returns ``[(gate_error, correlated_fraction)]``: the fraction of
    shots where both measured bits agree (1.0 for an ideal chip, 0.5 for
    a fully depolarized one).  A compact quantitative handle on the
    paper's coherence-challenge discussion.
    """
    from .circuit import QuantumCircuit
    from .microarch import assemble

    rng = make_rng(rng)
    kernel = QuantumCircuit(2, name="bell")
    kernel.h(0).cnot(0, 1)
    kernel.measure(0, "a").measure(1, "b")
    program = assemble(kernel)
    rows = []
    for gate_error in gate_errors:
        noisy = NoisyMicroArchitecture(
            2, DepolarizingNoise(gate_error=gate_error))
        agree = 0
        for _ in range(shots):
            result = noisy.execute(program, rng=rng)
            if result.bit("a") == result.bit("b"):
                agree += 1
        rows.append((float(gate_error), agree / shots))
    return rows
