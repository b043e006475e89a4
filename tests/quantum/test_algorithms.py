"""Unit tests for the quantum application algorithms (Section II.C)."""

import fractions

import numpy as np
import pytest

from repro.core.exceptions import QuantumError
from repro.quantum.algorithms.dna import (
    edit_distance,
    encode_sequence,
    kmer_similarity,
    kmer_spectrum,
    mutate,
    quantum_similarity,
    random_dna,
    swap_test_circuit,
)
from repro.quantum.algorithms.grover import (
    grover_circuit,
    grover_iterations,
    grover_search,
)
from repro.quantum.algorithms.qft import inverse_qft_circuit, qft_circuit
from repro.quantum.algorithms.shor import (
    ShorResult,
    continued_fraction_convergents,
    find_order,
    order_finding_circuit,
    shor_factor,
)
from repro.quantum.state import StateVector


class TestQft:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dft_matrix(self, n):
        circuit = qft_circuit(n)
        dim = 2 ** n
        columns = []
        for x in range(dim):
            amplitudes = np.zeros(dim, dtype=complex)
            amplitudes[x] = 1.0
            state, _ = circuit.run(initial_state=StateVector(n, amplitudes))
            columns.append(state.amplitudes)
        actual = np.array(columns).T
        expected = np.array([[np.exp(2j * np.pi * x * y / dim)
                              for x in range(dim)]
                             for y in range(dim)]) / np.sqrt(dim)
        assert np.allclose(actual, expected, atol=1e-9)

    def test_inverse_cancels(self):
        combined = qft_circuit(4).extended(inverse_qft_circuit(4))
        probability = abs(combined.statevector().amplitudes[0]) ** 2
        assert probability == pytest.approx(1.0)

    def test_without_swaps_is_bit_reversed(self):
        n = 3
        x = 5
        amplitudes = np.zeros(8, dtype=complex)
        amplitudes[x] = 1.0
        with_swaps, _ = qft_circuit(n).run(
            initial_state=StateVector(n, amplitudes.copy()))
        without, _ = qft_circuit(n, with_swaps=False).run(
            initial_state=StateVector(n, amplitudes.copy()))
        reversed_amplitudes = np.zeros(8, dtype=complex)
        for index in range(8):
            rev = int("".join(reversed(format(index, "03b"))), 2)
            reversed_amplitudes[rev] = without.amplitudes[index]
        assert np.allclose(with_swaps.amplitudes, reversed_amplitudes)


class TestContinuedFractions:
    def test_convergents_of_known_fraction(self):
        convergents = continued_fraction_convergents(5, 8)
        assert fractions.Fraction(5, 8) in convergents

    def test_phase_recovery(self):
        # measured 192 out of 256 -> phase 3/4 -> denominator 4
        convergents = continued_fraction_convergents(192, 256)
        assert any(c.denominator == 4 for c in convergents)


class TestShor:
    def test_order_finding_7_mod_15(self):
        assert find_order(7, 15, rng=1) == 4

    def test_order_finding_2_mod_15(self):
        assert find_order(2, 15, rng=2) == 4

    def test_order_finding_rejects_non_coprime(self):
        with pytest.raises(QuantumError):
            find_order(5, 15)

    @pytest.mark.parametrize("options", [{"retry": 2}, {"workers": 2}],
                             ids=["retry", "workers"])
    def test_chunked_order_finding_rejects_non_coprime(self, options):
        # the chunked branch raises the sequential branch's error, before
        # any attempt is dispatched
        with pytest.raises(QuantumError):
            find_order(5, 15, **options)

    def test_chunked_order_finding_replays_its_attempts(self, tmp_path):
        """Only the attempts up to the first usable reading run and are
        stored; a re-run replays them and stops at the same reading,
        serially and in waves on a two-worker pool."""
        from repro.core import telemetry
        from repro.core.cache import ResultCache

        for workers in (None, 2):
            cache_dir = str(tmp_path / str(workers))
            counts = []
            for _ in range(2):
                registry = telemetry.MetricsRegistry()
                with telemetry.use_registry(registry):
                    order = find_order(11, 15, rng=3, retry=2,
                                       workers=workers,
                                       cache=ResultCache(cache_dir))
                counts.append((order,
                               registry.counter("cache.stores").value,
                               registry.counter("cache.hits").value,
                               registry.counter("parallel.tasks").value))
            cold, warm = counts
            assert cold[0] == warm[0] == 2
            attempts = cold[1]
            assert 0 < attempts < 10
            assert cold[3] == attempts
            assert warm[1:] == (0, attempts, 0)

    def test_order_circuit_dimensions(self):
        circuit, t, n = order_finding_circuit(7, 15)
        assert n == 4
        assert t == 8
        assert circuit.num_qubits == 12

    def test_factor_15(self):
        result = shor_factor(15, rng=0)
        assert result.succeeded
        assert sorted(result.factors) == [3, 5]

    def test_factor_21(self):
        # workers=2: chunked order finding on a two-worker pool
        for workers in (None, 2):
            result = shor_factor(21, rng=1, workers=workers)
            assert result.succeeded
            assert sorted(result.factors) == [3, 7]

    def test_even_shortcut(self):
        result = shor_factor(14, rng=0)
        assert result.method == "classical-shortcut"
        assert result.factors == (2, 7)

    def test_perfect_power_shortcut(self):
        result = shor_factor(27, rng=0)
        assert result.method == "classical-shortcut"
        assert result.factors[0] * result.factors[1] == 27

    def test_small_n_rejected(self):
        with pytest.raises(QuantumError):
            shor_factor(3)

    def test_result_repr(self):
        result = ShorResult(15, (3, 5), "quantum-order-finding", 1, [])
        assert "15" in repr(result)


class TestGrover:
    def test_iteration_count(self):
        assert grover_iterations(4, 1) == 3
        assert grover_iterations(8, 1) == 12

    def test_single_marked_state_amplified(self):
        circuit = grover_circuit(4, [11])
        probabilities = circuit.statevector().probabilities()
        assert probabilities[11] > 0.9

    def test_multiple_marked_states(self):
        circuit = grover_circuit(4, [3, 12])
        probabilities = circuit.statevector().probabilities()
        assert probabilities[3] + probabilities[12] > 0.9

    def test_search_finds_target(self):
        found, success, iterations = grover_search(
            5, lambda s: s == 19, rng=0)
        assert success and found == 19
        assert iterations == grover_iterations(5, 1)

    def test_search_no_solutions(self):
        found, success, _ = grover_search(3, lambda s: False, rng=0)
        assert found is None and not success

    def test_search_all_marked(self):
        found, success, iterations = grover_search(3, lambda s: True,
                                                   rng=0)
        assert success and iterations == 0

    def test_empty_marked_rejected(self):
        with pytest.raises(QuantumError):
            grover_circuit(3, [])

    def test_out_of_range_marked_rejected(self):
        with pytest.raises(QuantumError):
            grover_circuit(2, [9])


class TestDnaEncoding:
    def test_two_bits_per_base(self):
        value, bits = encode_sequence("ACGT")
        assert bits == 8
        assert value == 0b11_10_01_00

    def test_invalid_base_rejected(self):
        with pytest.raises(QuantumError):
            encode_sequence("ACGX")

    def test_kmer_spectrum_normalized(self):
        spectrum = kmer_spectrum("ACGTACGT", k=3)
        assert np.linalg.norm(spectrum) == pytest.approx(1.0)

    def test_kmer_spectrum_too_short(self):
        with pytest.raises(QuantumError):
            kmer_spectrum("AC", k=3)


class TestClassicalBaselines:
    def test_edit_distance_basics(self):
        assert edit_distance("ACGT", "ACGT") == 0
        assert edit_distance("ACGT", "ACGA") == 1
        assert edit_distance("", "ACG") == 3
        assert edit_distance("AC", "CA") == 2

    def test_edit_distance_symmetry(self):
        assert edit_distance("ACGTT", "AGT") == edit_distance("AGT",
                                                              "ACGTT")

    def test_kmer_similarity_range(self):
        a = random_dna(30, rng=0)
        assert kmer_similarity(a, a) == pytest.approx(1.0)
        b = random_dna(30, rng=1)
        assert 0.0 <= kmer_similarity(a, b) <= 1.0


class TestQuantumSimilarity:
    def test_identical_sequences_high(self):
        sequence = random_dna(20, rng=2)
        result = quantum_similarity(sequence, sequence, shots=4096, rng=3)
        assert result.similarity > 0.95

    def test_tracks_kmer_similarity(self):
        base = random_dna(24, rng=4)
        close = mutate(base, 2, rng=5)
        far = random_dna(24, rng=6)
        sim_close = quantum_similarity(base, close, shots=4096, rng=7)
        sim_far = quantum_similarity(base, far, shots=4096, rng=8)
        assert sim_close.similarity > sim_far.similarity
        assert sim_close.similarity == pytest.approx(
            kmer_similarity(base, close), abs=0.1)

    def test_swap_test_circuit_width(self):
        circuit = swap_test_circuit(np.ones(4) / 2.0, np.ones(4) / 2.0)
        assert circuit.num_qubits == 1 + 2 * 2

    def test_mutate_changes_expected_positions(self):
        sequence = random_dna(20, rng=9)
        mutated = mutate(sequence, 5, rng=10)
        differences = sum(a != b for a, b in zip(sequence, mutated))
        assert differences == 5

    def test_mutate_too_many_rejected(self):
        with pytest.raises(QuantumError):
            mutate("ACGT", 10)
