"""Micro-architecture layer: executes a well-defined quantum instruction set.

Section II.B: "The requirements of such a device include: a compiler,
runtime support, and most importantly a micro-architecture that executes a
well-defined set of quantum instructions."  This module is that
micro-architecture, modelled after QuMA-style control processors:

* an instruction memory holding :class:`Instruction` objects (quantum ops,
  measurements, and classical control: branch / halt),
* a classical register file written by measurement results,
* a timing model with per-gate durations, so each kernel execution reports
  wall-clock on-chip time alongside instruction counts,
* a decoherence budget check: if the issued schedule exceeds the chip's
  coherence time the execution is flagged (results still computed by the
  ideal backend, mirroring how architectural simulators separate timing
  from function).
"""

import functools

import numpy as np

from ..core.exceptions import MicroArchError
from .circuit import GateOp, MeasureOp
from .state import BatchedStateVector, StateVector

#: Default gate durations in nanoseconds, loosely following published
#: superconducting-qubit numbers (single-qubit ~20 ns, two-qubit ~40 ns,
#: measurement ~300 ns).
DEFAULT_DURATIONS_NS = {
    "single_qubit": 20.0,
    "two_qubit": 40.0,
    "macro": 200.0,
    "measure": 300.0,
}

#: Default T2-style coherence budget per qubit, nanoseconds.
DEFAULT_COHERENCE_NS = 50_000.0


class Instruction:
    """One decoded micro-architecture instruction.

    ``kind`` is one of ``"gate"``, ``"measure"``, ``"branch"``, ``"halt"``.
    Gate instructions carry the originating :class:`GateOp`; measure
    instructions carry a :class:`MeasureOp`; branches carry a classical
    condition ``(cbit, value)`` and a target program counter.
    """

    __slots__ = ("kind", "op", "condition", "target")

    def __init__(self, kind, op=None, condition=None, target=None):
        self.kind = kind
        self.op = op
        self.condition = condition
        self.target = target

    def __repr__(self):
        if self.kind == "branch":
            return "Instruction(branch if %s==%d to %d)" % (
                self.condition[0], self.condition[1], self.target)
        return "Instruction(%s, %r)" % (self.kind, self.op)


class ExecutionResult:
    """Outcome of one kernel execution on the micro-architecture.

    Attributes
    ----------
    classical_bits : dict
        Final classical register file (cbit name -> 0/1).
    state : StateVector
        Final quantum state (exposed by the simulator backend only).
        The prefix tree of :meth:`MicroArchitecture.execute_shots`
        copies it out of the run's final batched stack on first read, so
        a caller that reads only classical bits pays for no state
        copies.  Each result still owns an independent state, even when
        shots share a measurement history.
    instructions_executed : int
        Dynamic instruction count.
    elapsed_ns : float
        Modelled on-chip execution time.
    coherence_exceeded : bool
        True when ``elapsed_ns`` exceeded the coherence budget.
    """

    def __init__(self, classical_bits, state, instructions_executed,
                 elapsed_ns, coherence_exceeded):
        """``state`` is a :class:`StateVector`, or a zero-argument
        callable that builds one on the first read of :attr:`state`."""
        self.classical_bits = classical_bits
        self._state = state
        self.instructions_executed = instructions_executed
        self.elapsed_ns = elapsed_ns
        self.coherence_exceeded = coherence_exceeded

    @property
    def state(self):
        """Final quantum state (see the class docstring)."""
        if not isinstance(self._state, StateVector):
            self._state = self._state()
        return self._state

    def bit(self, name):
        """Read one classical bit by name."""
        return self.classical_bits[name]

    def bits_as_int(self, names):
        """Pack named classical bits (first name = LSB) into an integer."""
        value = 0
        for pos, name in enumerate(names):
            value |= int(self.classical_bits[name]) << pos
        return value


def assemble(circuit):
    """Lower a circuit into a straight-line instruction stream + halt."""
    program = []
    for op in circuit.ops:
        if isinstance(op, MeasureOp):
            program.append(Instruction("measure", op=op))
        elif isinstance(op, GateOp):
            program.append(Instruction("gate", op=op))
        else:
            raise MicroArchError("cannot assemble op %r" % (op,))
    program.append(Instruction("halt"))
    return program


class MicroArchitecture:
    """Executes instruction streams against a statevector backend.

    Parameters
    ----------
    num_qubits : int
        Physical qubit count of the attached chip.
    durations_ns : dict, optional
        Overrides for :data:`DEFAULT_DURATIONS_NS`.
    coherence_ns : float, optional
        Coherence budget used for the timing flag.
    """

    def __init__(self, num_qubits, durations_ns=None,
                 coherence_ns=DEFAULT_COHERENCE_NS):
        self.num_qubits = int(num_qubits)
        self.durations_ns = dict(DEFAULT_DURATIONS_NS)
        if durations_ns:
            self.durations_ns.update(durations_ns)
        self.coherence_ns = float(coherence_ns)

    def _duration(self, instruction):
        if instruction.kind == "measure":
            return self.durations_ns["measure"]
        if instruction.kind == "gate":
            width = len(instruction.op.qubits)
            if width == 1:
                return self.durations_ns["single_qubit"]
            if width == 2:
                return self.durations_ns["two_qubit"]
            return self.durations_ns["macro"]
        return 0.0

    def execute(self, program, rng=None, max_instructions=1_000_000):
        """Run an assembled ``program``; returns :class:`ExecutionResult`.

        Branch instructions jump when the named classical bit equals the
        expected value.  A runaway program (no halt within
        ``max_instructions``) raises :class:`MicroArchError`.
        """
        from ..core.rngs import make_rng

        # coerce once so successive measurements draw from one stream
        # (an integer seed re-coerced per measurement would correlate
        # every measurement outcome)
        rng = make_rng(rng)
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
                pc += 1
            elif instruction.kind == "measure":
                op = instruction.op
                cbits[op.cbit] = state.measure(op.qubit, rng=rng)
                pc += 1
            elif instruction.kind == "branch":
                cbit, expected = instruction.condition
                if cbits.get(cbit, 0) == expected:
                    pc = instruction.target
                else:
                    pc += 1
            else:
                raise MicroArchError("unknown instruction kind %r"
                                     % instruction.kind)
        return ExecutionResult(
            classical_bits=cbits,
            state=state,
            instructions_executed=executed,
            elapsed_ns=elapsed,
            coherence_exceeded=elapsed > self.coherence_ns,
        )

    # -- batched shot execution ---------------------------------------------

    #: Upper bound on live prefix-tree amplitudes (complex numbers) before
    #: execute_shots abandons memoization for the plain per-shot sweep.
    PREFIX_TREE_BUDGET = 2 ** 22

    def _decompose_straight_line(self, program):
        """Split a straight-line program into measure-delimited segments.

        Returns ``(segments, measures, executed, elapsed)`` where
        ``segments[i]`` is the list of :class:`GateOp` between measure
        ``i-1`` and measure ``i`` (``segments[0]`` is the prologue, the
        last segment the tail before halt), and ``executed`` / ``elapsed``
        are the dynamic instruction count and modelled time -- identical
        for every shot of a straight-line program.  Returns ``None`` when
        the program branches (or never halts), in which case callers fall
        back to the scalar interpreter.
        """
        segments = [[]]
        measures = []
        executed = 0
        elapsed = 0.0
        for instruction in program:
            executed += 1
            elapsed += self._duration(instruction)
            if instruction.kind == "halt":
                return segments, measures, executed, elapsed
            if instruction.kind == "gate":
                segments[-1].append(instruction.op)
            elif instruction.kind == "measure":
                measures.append(instruction.op)
                segments.append([])
            else:
                return None
        return None

    @staticmethod
    def _segment_plan(ops, fuse):
        """Lower a gate segment to ``(kind, payload, qubits)`` steps.

        With ``fuse`` set, runs of consecutive single-qubit matrix gates
        on the same qubit collapse into one product matrix, so the
        statevector sweep pays one 2x2 application per run instead of one
        per gate.
        """
        plan = []
        for op in ops:
            if op.permutation is not None:
                plan.append(("perm", op.permutation, op.qubits))
                continue
            matrix = op.resolved_matrix()
            if fuse and plan and plan[-1][0] == "gate" \
                    and len(op.qubits) == 1 and plan[-1][2] == op.qubits:
                plan[-1] = ("gate", matrix @ plan[-1][1], op.qubits)
            else:
                plan.append(("gate", matrix, op.qubits))
        return plan

    @staticmethod
    def _apply_plan(state, plan):
        """Run one segment plan against a (batched or scalar) statevector."""
        for kind, payload, qubits in plan:
            if kind == "perm":
                state.apply_permutation(payload, qubits)
            else:
                state.apply_gate(payload, qubits)
        return state

    def _run_plans_per_shot(self, plans, measures, uniforms, executed,
                            elapsed):
        """Reference sweep: one scalar statevector per shot, no memoization.

        Consumes the pre-drawn ``uniforms`` exactly like the prefix tree,
        so switching between the two paths cannot change any outcome.
        """
        results = []
        for draws in uniforms:
            state = self._apply_plan(StateVector(self.num_qubits), plans[0])
            cbits = {}
            for index, measure in enumerate(measures):
                p1 = state.probability_of(measure.qubit, 1)
                outcome = 1 if draws[index] < p1 else 0
                state.collapse(measure.qubit, outcome)
                cbits[measure.cbit] = outcome
                self._apply_plan(state, plans[index + 1])
            results.append(ExecutionResult(
                classical_bits=cbits,
                state=state,
                instructions_executed=executed,
                elapsed_ns=elapsed,
                coherence_exceeded=elapsed > self.coherence_ns,
            ))
        return results

    def execute_shots(self, program, shots, rng=None,
                      max_instructions=1_000_000, fuse=True):
        """Run ``program`` for ``shots`` repetitions, sharing gate work.

        Bit-identical to ``[self.execute(program, rng=rng) for _ in
        range(shots)]`` up to single-qubit fusion (disable with
        ``fuse=False`` for exact parity): the uniform deviates are drawn
        in the same shot-major order the scalar loop consumes them, and
        every amplitude update is either the scalar operation itself or a
        batched GEMM whose per-member columns match it bitwise.

        The win comes from memoizing on measurement prefixes: shots that
        have produced the same outcomes so far share one statevector, so
        each gate segment is applied once per *distinct* history (batched
        across histories) instead of once per shot.  Each measurement
        builds the next level's stack in one
        :meth:`~repro.quantum.state.BatchedStateVector.collapsed` call,
        and a result copies its shot's state out of the final stack only
        when :attr:`ExecutionResult.state` is read.  Programs with
        branches fall back to the scalar interpreter; prefix trees wider
        than :data:`PREFIX_TREE_BUDGET` amplitudes fall back to an
        unmemoized per-shot sweep that consumes the identical random
        stream.
        """
        from ..core.rngs import make_rng

        rng = make_rng(rng)
        shots = int(shots)
        if shots < 0:
            raise ValueError("shots must be non-negative")
        decomposition = self._decompose_straight_line(program)
        if decomposition is None or len(program) - 1 > max_instructions:
            return [self.execute(program, rng=rng,
                                 max_instructions=max_instructions)
                    for _ in range(shots)]
        segments, measures, executed, elapsed = decomposition
        plans = [self._segment_plan(ops, fuse) for ops in segments]
        # One uniform per (shot, measure), drawn shot-major: exactly the
        # values (and final generator state) of the scalar loop's
        # per-measure rng.random() calls.
        uniforms = rng.random((shots, len(measures)))
        if shots == 0:
            return []

        dim = 2 ** self.num_qubits
        states = self._apply_plan(
            BatchedStateVector(self.num_qubits, batch=1), plans[0])
        node_of_shot = np.zeros(shots, dtype=np.int64)
        outcomes = np.zeros((shots, len(measures)), dtype=np.int64)
        for index, measure in enumerate(measures):
            p1 = states.probability_of(measure.qubit, 1)
            shot_outcomes = (uniforms[:, index]
                             < p1[node_of_shot]).astype(np.int64)
            outcomes[:, index] = shot_outcomes
            # Children = distinct (parent node, outcome) pairs still
            # reachable by some shot; dead branches are dropped, which is
            # what keeps the tree narrow for concentrated distributions.
            child_keys = node_of_shot * 2 + shot_outcomes
            unique_keys, node_of_shot = np.unique(child_keys,
                                                  return_inverse=True)
            if len(unique_keys) * dim > self.PREFIX_TREE_BUDGET:
                return self._run_plans_per_shot(plans, measures, uniforms,
                                                executed, elapsed)
            states = states.collapsed(unique_keys // 2, measure.qubit,
                                      unique_keys % 2)
            self._apply_plan(states, plans[index + 1])

        cbit_names = [measure.cbit for measure in measures]
        coherence_exceeded = elapsed > self.coherence_ns
        return [ExecutionResult(
                    classical_bits=dict(zip(cbit_names, bits)),
                    state=functools.partial(states.member, node),
                    instructions_executed=executed,
                    elapsed_ns=elapsed,
                    coherence_exceeded=coherence_exceeded)
                for bits, node in zip(outcomes.tolist(),
                                      node_of_shot.tolist())]

    def execute_circuit(self, circuit, rng=None):
        """Assemble and execute a circuit in one call."""
        if circuit.num_qubits > self.num_qubits:
            raise MicroArchError(
                "circuit needs %d qubits, chip has %d"
                % (circuit.num_qubits, self.num_qubits)
            )
        return self.execute(assemble(circuit), rng=rng)
