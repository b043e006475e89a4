"""Differential equivalence: batched shot execution vs the scalar path.

The contract under test is *bit identity* (``np.array_equal`` /
``==`` on ints and floats, never ``allclose``): the prefix-tree shot
batcher in :meth:`MicroArchitecture.execute_shots` must reproduce the
looped scalar interpreter outcome-for-outcome, amplitude-for-amplitude,
and the runtime built on it must return identical histograms for every
worker count.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import parallel, resilience, telemetry
from repro.core.cache import ResultCache
from repro.core.exceptions import ParallelError
from repro.core.rngs import spawn_rngs
from repro.quantum.algorithms.shor import (_first_order, _order_attempt,
                                           find_order)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.microarch import MicroArchitecture, assemble
from repro.quantum.runtime import QuantumRuntime
from repro.quantum.state import BatchedStateVector, StateVector

SHOT_COUNTS = [1, 2, 7, 33]


def random_circuit(num_qubits, depth, seed, mid_measure):
    """A random ISA circuit with optional mid-circuit measurement."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(depth):
        kind = int(rng.integers(0, 6))
        q = int(rng.integers(0, num_qubits))
        if kind == 0:
            circuit.h(q)
        elif kind == 1:
            circuit.rx(q, float(rng.uniform(0.0, 3.0)))
        elif kind == 2:
            circuit.t(q)
        elif kind == 3:
            circuit.rz(q, float(rng.uniform(0.0, 3.0)))
        elif kind == 4 and num_qubits > 1:
            other = int(rng.integers(0, num_qubits))
            if other != q:
                circuit.cnot(q, other)
        else:
            circuit.permutation([1, 0], [q])
    if mid_measure:
        circuit.measure(0, "mid")
        circuit.h(num_qubits - 1)
    circuit.measure_all()
    return circuit


def circuit_depth(num_qubits):
    """16 gates up to 4 qubits; enough at 8-12 qubits to put most
    qubits in superposition, so the prefix tree's levels grow wide."""
    return max(16, 4 * num_qubits)


def assert_wide_tree(results):
    """The wide examples must reach levels of 7 or more members, where
    each measurement collapses many rows of the stack at once."""
    histories = {tuple(result.classical_bits.values()) for result in results}
    assert len(histories) >= 7


def assert_results_identical(reference, batched):
    assert len(reference) == len(batched)
    for ref, bat in zip(reference, batched):
        assert ref.classical_bits == bat.classical_bits
        # insertion order matters: it breaks most_common ties downstream
        assert list(ref.classical_bits) == list(bat.classical_bits)
        assert np.array_equal(ref.state.amplitudes, bat.state.amplitudes)
        assert ref.instructions_executed == bat.instructions_executed
        assert ref.elapsed_ns == bat.elapsed_ns
        assert ref.coherence_exceeded == bat.coherence_exceeded


class TestExecuteShotsBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(num_qubits=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
           shots=st.sampled_from(SHOT_COUNTS),
           mid_measure=st.booleans())
    @example(num_qubits=8, seed=1, shots=256, mid_measure=True)
    @example(num_qubits=10, seed=3, shots=300, mid_measure=False)
    @example(num_qubits=12, seed=1, shots=256, mid_measure=True)
    def test_unfused_matches_looped_execute(self, num_qubits, seed, shots,
                                            mid_measure):
        circuit = random_circuit(num_qubits, circuit_depth(num_qubits), seed,
                                 mid_measure)
        program = assemble(circuit)
        microarch = MicroArchitecture(num_qubits)
        loop_rng = np.random.default_rng(seed + 1)
        reference = [microarch.execute(program, rng=loop_rng)
                     for _ in range(shots)]
        batch_rng = np.random.default_rng(seed + 1)
        batched = microarch.execute_shots(program, shots, rng=batch_rng,
                                          fuse=False)
        assert_results_identical(reference, batched)
        # both paths must leave the generator in the same state
        assert loop_rng.bit_generator.state == batch_rng.bit_generator.state
        if num_qubits >= 8:
            assert_wide_tree(batched)

    @settings(max_examples=10, deadline=None)
    @given(num_qubits=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
           shots=st.sampled_from(SHOT_COUNTS))
    @example(num_qubits=8, seed=3, shots=256)
    @example(num_qubits=12, seed=0, shots=300)
    def test_fused_tree_matches_fused_per_shot_sweep(self, num_qubits,
                                                     seed, shots):
        circuit = random_circuit(num_qubits, circuit_depth(num_qubits), seed,
                                 True)
        program = assemble(circuit)
        microarch = MicroArchitecture(num_qubits)
        tree = microarch.execute_shots(program, shots,
                                       rng=np.random.default_rng(3))
        # forcing the budget to zero exercises the unmemoized fallback,
        # which must consume the identical pre-drawn uniform stream
        # (plain try/finally instead of monkeypatch: hypothesis forbids
        # function-scoped fixtures inside @given)
        microarch.PREFIX_TREE_BUDGET = 0
        try:
            flat = microarch.execute_shots(program, shots,
                                           rng=np.random.default_rng(3))
        finally:
            del microarch.PREFIX_TREE_BUDGET
        assert_results_identical(tree, flat)
        if num_qubits >= 8:
            assert_wide_tree(tree)

    def test_shots_sharing_a_history_own_independent_states(self):
        circuit = random_circuit(3, 16, 4, True)
        results = MicroArchitecture(3).execute_shots(assemble(circuit), 64,
                                                     rng=2)
        by_history = {}
        for result in results:
            by_history.setdefault(tuple(result.classical_bits.values()),
                                  []).append(result)
        first, second = next(group for group in by_history.values()
                             if len(group) > 1)[:2]
        assert first.state is not second.state
        assert first.state is first.state   # copied once, on first read
        before = second.state.amplitudes.copy()
        first.state.amplitudes[:] = 0.0
        assert np.array_equal(second.state.amplitudes, before)

    def test_zero_shots(self):
        circuit = random_circuit(2, 6, 0, False)
        microarch = MicroArchitecture(2)
        assert microarch.execute_shots(assemble(circuit), 0, rng=1) == []

    def test_branchy_program_falls_back_to_scalar(self):
        from repro.quantum.microarch import Instruction

        # a branch makes the program non-straight-line, so execute_shots
        # must refuse to batch and loop the scalar interpreter instead
        base = assemble(QuantumCircuit(1).h(0).measure(0).h(0).measure(0))
        branchy = base[:-1] + [
            Instruction("branch", condition=("c0", 2), target=0),
            base[-1]]
        microarch = MicroArchitecture(1)
        loop_rng = np.random.default_rng(5)
        reference = [microarch.execute(branchy, rng=loop_rng)
                     for _ in range(3)]
        batched = microarch.execute_shots(branchy, 3,
                                          rng=np.random.default_rng(5))
        assert_results_identical(reference, batched)


class TestBatchedMeasurementBitIdentity:
    """The stack's measurement steps against the scalar ones, member by
    member.  A probability off by one ulp almost never flips an outcome,
    so only a direct comparison sees a changed summation order."""

    @settings(max_examples=15, deadline=None)
    @given(num_qubits=st.integers(1, 10), seed=st.integers(0, 2 ** 16),
           rows=st.sampled_from([1, 7, 40]))
    def test_probability_and_collapse_match_scalar_members(self, num_qubits,
                                                           seed, rows):
        rng = np.random.default_rng(seed)
        dim = 2 ** num_qubits
        amplitudes = rng.normal(size=(rows, dim)) \
            + 1j * rng.normal(size=(rows, dim))
        amplitudes /= np.linalg.norm(amplitudes, axis=1)[:, None]
        stack = BatchedStateVector(num_qubits, amplitudes=amplitudes)
        qubit = int(rng.integers(0, num_qubits))
        members = [StateVector(num_qubits, row) for row in amplitudes]
        assert list(stack.probability_of(qubit, 1)) == [
            member.probability_of(qubit, 1) for member in members]
        parents = rng.integers(0, rows, size=rows + 3)
        outcomes = rng.integers(0, 2, size=rows + 3)
        children = stack.collapsed(parents, qubit, outcomes)
        for child, parent, outcome in zip(children.amplitudes, parents,
                                          outcomes):
            reference = members[parent].copy().collapse(qubit, outcome)
            assert np.array_equal(child, reference.amplitudes)


class TestRuntimeWorkerStability:
    def test_counts_identical_across_workers_1_2_auto(self):
        circuit = random_circuit(3, 12, 11, True)
        results = {}
        for workers in (1, 2, "auto"):
            runtime = QuantumRuntime(MicroArchitecture(3))
            results[workers] = runtime.run(circuit, shots=64, rng=42,
                                           workers=workers, chunk_size=16)
        for workers in (2, "auto"):
            assert results[workers].counts == results[1].counts
            # dict order feeds most_common tie-breaks: pin it too
            assert list(results[workers].counts) == list(results[1].counts)
            assert (results[workers].total_chip_time_ns
                    == results[1].total_chip_time_ns)

    def test_serial_fast_path_unchanged_by_batching(self):
        # the workers=1 / chunk_size=None fast path draws one stream;
        # the batcher must reproduce it exactly
        circuit = random_circuit(2, 10, 7, False)
        runtime = QuantumRuntime(MicroArchitecture(2))
        first = runtime.run(circuit, shots=48, rng=9)
        second = runtime.run(circuit, shots=48, rng=9)
        assert first.counts == second.counts
        assert list(first.counts) == list(second.counts)

    def test_cache_meta_stable_across_worker_counts(self):
        from repro.core import cache as result_cache

        circuit = random_circuit(2, 8, 3, False)
        runtime = QuantumRuntime(MicroArchitecture(2))
        cbits = [op.cbit for op in circuit.measure_ops]
        sizes = parallel.chunk_sizes(64, 16)
        meta = result_cache.seeded_meta(
            lambda: runtime._cache_meta(circuit, 64, cbits), 42,
            sizes=sizes)
        again = result_cache.seeded_meta(
            lambda: runtime._cache_meta(circuit, 64, cbits), 42,
            sizes=sizes)
        # the fingerprint has no worker-count input at all
        assert result_cache.digest(meta) == result_cache.digest(again)

    def test_checkpoint_resumes_across_worker_counts(self, tmp_path):
        """A serial run killed at block 2 leaves the other three blocks
        in its cache directory; a 2-worker re-run executes only block
        2."""
        circuit = random_circuit(2, 10, 5, False)
        run_args = dict(shots=48, rng=4, chunk_size=12)
        full = QuantumRuntime(MicroArchitecture(2)).run(
            circuit, workers=1, **run_args)
        with resilience.use_faults("2:1:raise"):
            with pytest.raises(ParallelError):
                QuantumRuntime(MicroArchitecture(2)).run(
                    circuit, workers=1, cache=ResultCache(str(tmp_path)),
                    **run_args)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            resumed = QuantumRuntime(MicroArchitecture(2)).run(
                circuit, workers=2, cache=ResultCache(str(tmp_path)),
                **run_args)
        assert resumed.counts == full.counts
        assert registry.counter("cache.hits").value == 3
        assert registry.counter("cache.stores").value == 1
        assert registry.counter("parallel.tasks").value == 1


def all_attempts_order(a, modulus, rng, max_attempts=10):
    """Reference for chunked :func:`find_order`: every one of the
    ``max_attempts`` phase readings, each on its spawned stream, then
    the first usable order in attempt order."""
    readings = [_order_attempt((a, modulus, stream))
                for stream in spawn_rngs(rng, max_attempts)]
    return _first_order(a, modulus, readings)


class TestFindOrderEarlyStop:
    """Chunked order finding stops dispatching at its first usable
    reading; the answer, and the state the caller's generator is left
    in, are those of running all ``max_attempts`` readings."""

    @settings(max_examples=16, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           case=st.sampled_from([(2, 15), (7, 15), (4, 15), (2, 21)]),
           workers=st.sampled_from([1, 2, "auto"]))
    def test_matches_all_attempts_reference(self, seed, case, workers):
        a, modulus = case
        reference_rng = np.random.default_rng(seed)
        expected = all_attempts_order(a, modulus, reference_rng)
        rng = np.random.default_rng(seed)
        assert find_order(a, modulus, rng=rng, workers=workers, retry=2,
                          cache=False) == expected
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert rng.bit_generator.seed_seq.n_children_spawned \
            == reference_rng.bit_generator.seed_seq.n_children_spawned
        # the next base shor_factor would draw is the same
        assert rng.integers(2, modulus - 1) \
            == reference_rng.integers(2, modulus - 1)
