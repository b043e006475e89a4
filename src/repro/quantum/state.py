"""Dense statevector backend: the simulated qubit chip.

This is the bottom layer of the Fig. 2 stack.  The paper's quantum chip is
a cryogenic superconducting device; per DESIGN.md we substitute a dense
statevector simulator that executes the identical instruction stream the
micro-architecture issues.

Qubit convention: qubit ``k`` is the k-th least-significant bit of the
basis-state index, so basis state ``|q_{n-1} ... q_1 q_0>`` has index
``sum_k q_k 2^k``.
"""

import math

import numpy as np

from ..core.exceptions import QubitIndexError, QuantumError
from ..core.rngs import make_rng


class StateVector:
    """An n-qubit pure state with gate application and measurement.

    Parameters
    ----------
    num_qubits : int
        Number of qubits (state dimension ``2**num_qubits``).
    amplitudes : array-like, optional
        Initial amplitudes; defaults to ``|0...0>``.
    """

    def __init__(self, num_qubits, amplitudes=None):
        if num_qubits < 1:
            raise QuantumError("need at least one qubit")
        if num_qubits > 26:
            raise QuantumError(
                "refusing to allocate a %d-qubit dense state" % num_qubits
            )
        self.num_qubits = int(num_qubits)
        dim = 2 ** self.num_qubits
        if amplitudes is None:
            self.amplitudes = np.zeros(dim, dtype=complex)
            self.amplitudes[0] = 1.0
        else:
            self.amplitudes = np.asarray(amplitudes, dtype=complex).reshape(dim)
            norm = np.linalg.norm(self.amplitudes)
            if not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-8):
                raise QuantumError("amplitudes are not normalized (|a|=%g)" % norm)

    def copy(self):
        """Deep copy of the state."""
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def _check_qubits(self, qubits):
        seen = set()
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise QubitIndexError(
                    "qubit %d out of range for %d-qubit state"
                    % (q, self.num_qubits)
                )
            if q in seen:
                raise QubitIndexError("duplicate qubit %d in gate operands" % q)
            seen.add(q)

    def apply_gate(self, matrix, qubits):
        """Apply a ``2^k x 2^k`` unitary to the listed ``k`` qubits in place.

        ``qubits[0]`` is the least-significant bit of the gate's local
        index; e.g. for CNOT, ``qubits = [control, target]`` matches the
        matrix in :mod:`repro.quantum.gates` (control is the low bit).
        """
        qubits = list(qubits)
        self._check_qubits(qubits)
        k = len(qubits)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2 ** k, 2 ** k):
            raise QuantumError(
                "matrix shape %s does not act on %d qubits"
                % (matrix.shape, k)
            )
        n = self.num_qubits
        # View the state as an n-dimensional tensor with axis j indexing
        # qubit n-1-j (C order: the last axis is qubit 0).
        tensor = self.amplitudes.reshape([2] * n)
        axes = [n - 1 - q for q in qubits]
        # Move the gate's qubits to the front, with qubits[0] as the
        # *last* of the moved axes so it stays least significant.
        order = list(reversed(axes))
        tensor = np.moveaxis(tensor, order, range(k))
        tensor = tensor.reshape(2 ** k, -1)
        tensor = matrix @ tensor
        tensor = tensor.reshape([2] * n)
        tensor = np.moveaxis(tensor, range(k), order)
        self.amplitudes = np.ascontiguousarray(tensor).reshape(-1)
        return self

    def apply_permutation(self, mapping, qubits):
        """Apply a classical permutation on the subspace of ``qubits``.

        ``mapping`` is a length ``2^k`` integer array: local basis state
        ``b`` maps to ``mapping[b]``.  Used for the modular-arithmetic
        blocks of Shor's algorithm, where the unitary is a permutation and
        a dense matrix would be wastefully large.
        """
        qubits = list(qubits)
        self._check_qubits(qubits)
        k = len(qubits)
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (2 ** k,):
            raise QuantumError("mapping must have length 2^%d" % k)
        if sorted(mapping.tolist()) != list(range(2 ** k)):
            raise QuantumError("mapping is not a permutation")
        n = self.num_qubits
        indices = np.arange(2 ** n)
        local = np.zeros_like(indices)
        for pos, q in enumerate(qubits):
            local |= ((indices >> q) & 1) << pos
        permuted_local = mapping[local]
        new_indices = indices.copy()
        for pos, q in enumerate(qubits):
            bit = (permuted_local >> pos) & 1
            new_indices = (new_indices & ~(1 << q)) | (bit << q)
        new_amplitudes = np.zeros_like(self.amplitudes)
        new_amplitudes[new_indices] = self.amplitudes
        self.amplitudes = new_amplitudes
        return self

    def probabilities(self):
        """Probability of each computational basis state."""
        return np.abs(self.amplitudes) ** 2

    def probability_of(self, qubit, value):
        """Marginal probability that ``qubit`` reads ``value`` (0 or 1)."""
        self._check_qubits([qubit])
        probs = self.probabilities()
        indices = np.arange(len(probs))
        mask = ((indices >> qubit) & 1) == int(value)
        return float(np.sum(probs[mask]))

    def collapse(self, qubit, outcome):
        """Project ``qubit`` onto ``outcome`` and renormalize, in place.

        The deterministic half of :meth:`measure` (no randomness): used
        directly by the per-shot sweep of
        :meth:`repro.quantum.microarch.MicroArchitecture.execute_shots`,
        which draws outcomes itself and must collapse with the exact
        operation sequence :meth:`measure` uses, and the reference that
        :meth:`BatchedStateVector.collapsed` reproduces bit for bit.
        """
        self._check_qubits([qubit])
        outcome = int(outcome)
        indices = np.arange(len(self.amplitudes))
        keep = ((indices >> qubit) & 1) == outcome
        self.amplitudes[~keep] = 0.0
        norm = np.linalg.norm(self.amplitudes)
        if norm == 0.0:
            raise QuantumError("measurement collapsed to the zero vector")
        self.amplitudes /= norm
        return self

    def measure(self, qubit, rng=None):
        """Projectively measure one qubit; collapses the state in place.

        Returns the observed bit (0 or 1).
        """
        rng = make_rng(rng)
        p1 = self.probability_of(qubit, 1)
        outcome = 1 if rng.random() < p1 else 0
        self.collapse(qubit, outcome)
        return outcome

    def measure_all(self, rng=None):
        """Measure every qubit; returns a tuple of bits (qubit 0 first)."""
        rng = make_rng(rng)
        probs = self.probabilities()
        index = int(rng.choice(len(probs), p=probs / probs.sum()))
        self.amplitudes[:] = 0.0
        self.amplitudes[index] = 1.0
        return tuple((index >> q) & 1 for q in range(self.num_qubits))

    def sample_counts(self, shots, rng=None):
        """Sample measurement outcomes without collapsing the state.

        Returns a dict mapping basis-state index to count.
        """
        if shots < 1:
            raise ValueError("shots must be positive")
        rng = make_rng(rng)
        probs = self.probabilities()
        outcomes = rng.choice(len(probs), size=shots, p=probs / probs.sum())
        counts = {}
        for outcome in outcomes:
            counts[int(outcome)] = counts.get(int(outcome), 0) + 1
        return counts

    def fidelity(self, other):
        """``|<self|other>|^2`` against another state of the same size."""
        if not isinstance(other, StateVector):
            raise TypeError("fidelity expects another StateVector")
        if other.num_qubits != self.num_qubits:
            raise QuantumError("qubit-count mismatch in fidelity")
        overlap = np.vdot(self.amplitudes, other.amplitudes)
        return float(abs(overlap) ** 2)

    def norm(self):
        """Euclidean norm of the amplitude vector (1.0 for a valid state)."""
        return float(np.linalg.norm(self.amplitudes))

    def reduced_probabilities(self, qubits):
        """Marginal distribution over the listed qubits (low bit first)."""
        qubits = list(qubits)
        self._check_qubits(qubits)
        probs = self.probabilities()
        indices = np.arange(len(probs))
        local = np.zeros_like(indices)
        for pos, q in enumerate(qubits):
            local |= ((indices >> q) & 1) << pos
        marginal = np.zeros(2 ** len(qubits))
        np.add.at(marginal, local, probs)
        return marginal

    def __repr__(self):
        return "StateVector(num_qubits=%d)" % self.num_qubits


class BatchedStateVector:
    """A stack of ``B`` independent n-qubit states with batched gates.

    Amplitudes live in a ``(B, 2**n)`` array; gate application reshapes
    the stack so one matrix product covers every member.  The per-member
    results are bit-identical to :class:`StateVector` -- a GEMM computes
    each output column independently of how many columns sit beside it,
    so batching members as extra columns cannot perturb any of them (the
    equivalence tier asserts this with ``np.array_equal``).  Measurement
    statistics keep the scalar reductions member by member:
    :meth:`probability_of` sums each member's masked half on its own
    (``np.sum`` along the rows of a stack does not add in the per-row
    order, so its last bits differ), and :meth:`collapsed` normalizes
    with the same per-row BLAS dots :func:`np.linalg.norm` runs.  Only
    the elementwise work around them spans the whole stack.

    Parameters
    ----------
    num_qubits : int
    batch : int
        Number of members; every member starts in ``|0...0>`` unless
        ``amplitudes`` (shape ``(batch, 2**num_qubits)``) is given.
    """

    def __init__(self, num_qubits, batch=None, amplitudes=None):
        if num_qubits < 1:
            raise QuantumError("need at least one qubit")
        if num_qubits > 26:
            raise QuantumError(
                "refusing to allocate a %d-qubit dense state" % num_qubits
            )
        self.num_qubits = int(num_qubits)
        dim = 2 ** self.num_qubits
        if amplitudes is None:
            if batch is None or batch < 1:
                raise QuantumError("batch must be a positive int")
            self.amplitudes = np.zeros((int(batch), dim), dtype=complex)
            self.amplitudes[:, 0] = 1.0
        else:
            self.amplitudes = np.asarray(amplitudes, dtype=complex)
            if self.amplitudes.ndim != 2 \
                    or self.amplitudes.shape[1] != dim:
                raise QuantumError(
                    "amplitudes must have shape (batch, 2**%d)"
                    % self.num_qubits)
            if batch is not None \
                    and self.amplitudes.shape[0] != int(batch):
                raise QuantumError("batch/amplitudes shape mismatch")

    @property
    def batch(self):
        """Number of stacked member states."""
        return self.amplitudes.shape[0]

    def member(self, index):
        """Member ``index`` as an independent scalar :class:`StateVector`."""
        return StateVector(self.num_qubits,
                           self.amplitudes[index].copy())

    def _check_qubits(self, qubits):
        seen = set()
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise QubitIndexError(
                    "qubit %d out of range for %d-qubit state"
                    % (q, self.num_qubits)
                )
            if q in seen:
                raise QubitIndexError("duplicate qubit %d in gate operands" % q)
            seen.add(q)

    def apply_gate(self, matrix, qubits):
        """Apply one ``2^k x 2^k`` unitary to every member in place.

        Same tensor manipulation as :meth:`StateVector.apply_gate`, with
        the batch axis folded into the GEMM's column dimension: member
        ``b`` occupies its own column block, so its product is the same
        matrix-times-columns computation the scalar path runs.
        """
        qubits = list(qubits)
        self._check_qubits(qubits)
        k = len(qubits)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2 ** k, 2 ** k):
            raise QuantumError(
                "matrix shape %s does not act on %d qubits"
                % (matrix.shape, k)
            )
        n = self.num_qubits
        batch = self.amplitudes.shape[0]
        # Axis 0 is the batch; per-member tensor axis 1+j indexes qubit
        # n-1-j, mirroring the scalar layout.
        tensor = self.amplitudes.reshape([batch] + [2] * n)
        axes = [n - q for q in qubits]
        order = list(reversed(axes))
        # Gate axes to the front (ahead of the batch axis) so the fold
        # is (2**k, batch * rest): each member contributes a contiguous
        # block of columns.
        tensor = np.moveaxis(tensor, order, range(k))
        tensor = tensor.reshape(2 ** k, -1)
        tensor = matrix @ tensor
        tensor = tensor.reshape([2] * k + [batch] + [2] * (n - k))
        tensor = np.moveaxis(tensor, range(k), order)
        self.amplitudes = np.ascontiguousarray(tensor).reshape(batch, -1)
        return self

    def apply_permutation(self, mapping, qubits):
        """Apply a classical subspace permutation to every member."""
        qubits = list(qubits)
        self._check_qubits(qubits)
        k = len(qubits)
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (2 ** k,):
            raise QuantumError("mapping must have length 2^%d" % k)
        if sorted(mapping.tolist()) != list(range(2 ** k)):
            raise QuantumError("mapping is not a permutation")
        n = self.num_qubits
        indices = np.arange(2 ** n)
        local = np.zeros_like(indices)
        for pos, q in enumerate(qubits):
            local |= ((indices >> q) & 1) << pos
        permuted_local = mapping[local]
        new_indices = indices.copy()
        for pos, q in enumerate(qubits):
            bit = (permuted_local >> pos) & 1
            new_indices = (new_indices & ~(1 << q)) | (bit << q)
        new_amplitudes = np.zeros_like(self.amplitudes)
        new_amplitudes[:, new_indices] = self.amplitudes
        self.amplitudes = new_amplitudes
        return self

    def probability_of(self, qubit, value):
        """Per-member marginal probabilities, shape ``(B,)``.

        ``|a|^2`` is elementwise, so it is taken over the whole stack at
        once; each member's masked half is then summed with the scalar
        reduction (see the class docstring for why).
        """
        self._check_qubits([qubit])
        indices = np.arange(self.amplitudes.shape[1])
        mask = ((indices >> qubit) & 1) == int(value)
        halves = (np.abs(self.amplitudes) ** 2)[:, mask]
        return np.array([np.add.reduce(half) for half in halves])

    def collapsed(self, rows, qubit, outcomes):
        """New stack: member ``rows[i]`` with ``qubit`` projected onto
        ``outcomes[i]`` and renormalized.

        Member ``i`` is bit-identical to :meth:`StateVector.collapse` on
        a copy of member ``rows[i]``.  That method zeroes the other half
        and divides the whole vector by its :func:`np.linalg.norm`, which
        is one BLAS dot over the real parts plus one over the imaginary
        parts.  The stacked ``matmul`` here runs the same dot per row, on
        the same zero-filled row with the same stride.
        """
        self._check_qubits([qubit])
        rows = np.asarray(rows)
        outcomes = np.asarray(outcomes)
        if rows.ndim != 1 or outcomes.shape != rows.shape:
            raise QuantumError("need one outcome per collapsed member")
        dim = self.amplitudes.shape[1]
        # (member, higher qubits, this qubit, lower qubits) views
        shape = (-1, dim >> (qubit + 1), 2, 1 << qubit)
        children = np.zeros((len(rows), dim), dtype=complex)
        kept = (np.arange(len(rows)), slice(None), outcomes, slice(None))
        children.reshape(shape)[kept] = \
            self.amplitudes.reshape(shape)[rows, :, outcomes, :]
        real, imag = children.real, children.imag
        norms = np.sqrt(np.matmul(real[:, None, :], real[:, :, None])
                        + np.matmul(imag[:, None, :], imag[:, :, None]))
        norms = norms.reshape(-1, 1)
        if not norms.all():
            raise QuantumError("measurement collapsed to the zero vector")
        children /= norms
        return BatchedStateVector(self.num_qubits, amplitudes=children)

    def __repr__(self):
        return ("BatchedStateVector(num_qubits=%d, batch=%d)"
                % (self.num_qubits, self.batch))
