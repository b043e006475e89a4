"""Tests for the quantum noise channels (Section II.B's coherence challenge)."""

import numpy as np
import pytest

from repro.core.cache import ResultCache
from repro.core.exceptions import QuantumError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.microarch import MicroArchitecture, assemble
from repro.quantum.noise import (
    DepolarizingNoise,
    NoisyMicroArchitecture,
    bell_fidelity_vs_noise,
)
from repro.quantum.runtime import QuantumRuntime


class TestDepolarizingNoise:
    def test_probability_validation(self):
        with pytest.raises(QuantumError):
            DepolarizingNoise(gate_error=1.5)
        with pytest.raises(QuantumError):
            DepolarizingNoise(readout_error=-0.1)

    def test_zero_noise_is_identity(self):
        from repro.core.rngs import make_rng
        from repro.quantum.state import StateVector

        noise = DepolarizingNoise()
        state = StateVector(1)
        before = state.amplitudes.copy()
        noise.apply_after_gate(state, [0], make_rng(0))
        assert (state.amplitudes == before).all()
        assert noise.corrupt_readout(1, make_rng(0)) == 1

    def test_full_readout_error_always_flips(self):
        from repro.core.rngs import make_rng

        noise = DepolarizingNoise(readout_error=1.0)
        rng = make_rng(0)
        assert noise.corrupt_readout(0, rng) == 1
        assert noise.corrupt_readout(1, rng) == 0


class TestNoisyMicroArchitecture:
    def _bell_program(self):
        kernel = QuantumCircuit(2).h(0).cnot(0, 1)
        kernel.measure(0, "a").measure(1, "b")
        return assemble(kernel)

    def test_noiseless_matches_ideal(self):
        noisy = NoisyMicroArchitecture(2, DepolarizingNoise())
        program = self._bell_program()
        for seed in range(10):
            result = noisy.execute(program, rng=seed)
            assert result.bit("a") == result.bit("b")

    def test_noise_breaks_correlations(self):
        noisy = NoisyMicroArchitecture(
            2, DepolarizingNoise(gate_error=0.5))
        program = self._bell_program()
        disagreements = sum(
            1 for seed in range(120)
            if noisy.execute(program, rng=seed).bit("a")
            != noisy.execute(program, rng=seed + 1000).bit("b"))
        assert disagreements > 10

    def test_requires_noise_object(self):
        with pytest.raises(QuantumError):
            NoisyMicroArchitecture(2, noise=0.1)

    def test_timing_model_inherited(self):
        noisy = NoisyMicroArchitecture(2, DepolarizingNoise())
        result = noisy.execute(self._bell_program(), rng=0)
        assert result.elapsed_ns > 0.0

    def test_runtime_runs_the_noise_under_its_own_cache_key(self, tmp_path):
        kernel = QuantumCircuit(2).h(0).cnot(0, 1)
        kernel.measure(0, "a").measure(1, "b")
        noisy = NoisyMicroArchitecture(2, DepolarizingNoise(0.3, 0.2))
        program = assemble(kernel)
        rng = np.random.default_rng(1)
        expected = {}
        for _ in range(400):
            value = noisy.execute(program, rng=rng).bits_as_int(["a", "b"])
            expected[value] = expected.get(value, 0) + 1
        assert len(expected) == 4          # the ideal chip gives only 0, 3
        assert QuantumRuntime(noisy).run(kernel, shots=400, rng=1,
                                         cache=False).counts == expected
        # an ideal run stored first must not answer for the noisy chip,
        # nor one noisy chip for another with other error rates
        cache = ResultCache(str(tmp_path))
        QuantumRuntime(MicroArchitecture(2)).run(kernel, shots=400, rng=1,
                                                 cache=cache)
        QuantumRuntime(NoisyMicroArchitecture(
            2, DepolarizingNoise(0.3, 0.0))).run(kernel, shots=400, rng=1,
                                                 cache=cache)
        assert QuantumRuntime(noisy).run(kernel, shots=400, rng=1,
                                         cache=cache).counts == expected


class TestBellFidelityCurve:
    def test_monotone_degradation(self):
        rows = bell_fidelity_vs_noise([0.0, 0.2, 0.6], shots=250, rng=1)
        agreements = [agreement for _error, agreement in rows]
        assert agreements[0] == 1.0
        assert agreements[0] > agreements[1] > agreements[2]
        # fully scrambled limit approaches 0.5
        assert agreements[2] > 0.35
