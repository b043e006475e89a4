"""Lazy, array-native fingerprints change no answer and hash only on demand.

``measure_pairs`` converts its input once into an ``(n, 2)`` float64
array: every accepted spelling of the same pairs -- C- or
Fortran-order arrays, integer arrays, lists of tuples, lists of lists
-- must return exactly ``measure_batch(a, b).tolist()`` at every worker
count and share one cache key.  And with no cache active, no entry
point may hash anything: each of the six cached entries must still run
with every fingerprint helper patched to raise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cache as result_cache
from repro.core.exceptions import OscillatorError
from repro.core.sat_instances import planted_ksat
from repro.memcomputing.ensemble import solve_ensemble
from repro.memcomputing.solver import solve_portfolio
from repro.oscillators.distance import OscillatorDistanceUnit
from repro.oscillators.fast.oscillator_fast import OscillatorFastDetector
from repro.quantum import runtime as runtime_module
from repro.quantum.algorithms.shor import find_order, shor_factor
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.runtime import QuantumRuntime

intensity_rows = st.lists(
    st.tuples(st.integers(0, 255), st.integers(0, 255)),
    min_size=1, max_size=40)


def pair_forms(rows):
    """The five spellings of one pair list ``measure_pairs`` accepts."""
    ints = np.array(rows, dtype=np.int64).reshape(-1, 2)
    floats = ints.astype(float)
    return {
        "c-order": np.ascontiguousarray(floats),
        "fortran-order": np.asfortranarray(floats),
        "int-array": ints,
        "list-of-tuples": [(float(a), float(b)) for a, b in rows],
        "list-of-lists": [[a, b] for a, b in rows],
    }


class TestMeasurePairsForms:
    @settings(max_examples=15, deadline=None)
    @given(rows=intensity_rows)
    def test_every_form_matches_bare_kernel_and_shares_one_key(self, rows):
        unit = OscillatorDistanceUnit()
        floats = np.array(rows, dtype=float).reshape(-1, 2)
        expected = unit.measure_batch(floats[:, 0], floats[:, 1]).tolist()
        for workers in (1, 2):
            cache = result_cache.ResultCache()
            for name, form in pair_forms(rows).items():
                uncached = unit.measure_pairs(form, workers=workers,
                                              cache=False)
                assert uncached == expected, (name, workers)
                assert unit.measure_pairs(form, workers=workers,
                                          cache=cache) == expected
            # The first form stored its entries; the other four hit them.
            assert cache.hits == 4 * cache.stores, workers
            assert cache.misses == cache.stores

    def test_wrong_shapes_raise(self):
        unit = OscillatorDistanceUnit()
        with pytest.raises(OscillatorError, match=r"shape \(n, 2\)"):
            unit.measure_pairs(np.zeros((4, 3)))
        with pytest.raises(OscillatorError, match=r"shape \(n, 2\)"):
            unit.measure_pairs(np.zeros(4))
        with pytest.raises(OscillatorError):
            unit.measure_pairs([[1.0, 2.0], [3.0]])

    def test_empty_input_scores_nothing(self):
        unit = OscillatorDistanceUnit()
        assert unit.measure_pairs([]) == []
        assert unit.measure_pairs(np.zeros((0, 2)), retry=1) == []


def _refuse(*_args, **_kwargs):
    raise AssertionError("fingerprinted a call with no cache active")


@pytest.fixture
def hashing_forbidden(monkeypatch):
    """No active cache, and every fingerprint helper raises."""
    monkeypatch.delenv(result_cache.CACHE_DIR_ENV, raising=False)
    monkeypatch.setattr(result_cache, "_active_cache", None)
    for name in ("digest", "array_fingerprint", "formula_fingerprint"):
        monkeypatch.setattr(result_cache, name, _refuse)
    monkeypatch.setattr(runtime_module, "circuit_fingerprint", _refuse)


def _bell():
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cnot(0, 1)
    circuit.measure_all()
    return circuit


# Each entry once on its serial path and once on its chunked path
# (``retry=1`` keeps the chunks in process).
@pytest.mark.parametrize("chunked", [False, True], ids=["serial", "chunked"])
class TestUncachedCallsHashNothing:
    def test_measure_pairs(self, hashing_forbidden, chunked):
        pairs = [(1.0, 2.0), (30.0, 80.0)]
        kwargs = {"retry": 1} if chunked else {}
        assert len(OscillatorDistanceUnit().measure_pairs(
            pairs, **kwargs)) == 2

    def test_fast_detect(self, hashing_forbidden, chunked):
        image = np.arange(100.0).reshape(10, 10) % 37 * 7
        kwargs = {"retry": 1} if chunked else {}
        OscillatorFastDetector().detect(image, **kwargs)

    def test_runtime_run(self, hashing_forbidden, chunked):
        kwargs = {"retry": 1} if chunked else {}
        result = QuantumRuntime().run(_bell(), shots=16, rng=3, **kwargs)
        assert sum(result.counts.values()) == 16

    def test_solve_ensemble(self, hashing_forbidden, chunked):
        formula = planted_ksat(8, 30, rng=2)
        kwargs = {"retry": 1} if chunked else {}
        result = solve_ensemble(formula, batch=4, rng=5, max_steps=2000,
                                **kwargs)
        assert len(result.solve_steps) == 4

    def test_solve_portfolio(self, hashing_forbidden, chunked):
        formula = planted_ksat(8, 30, rng=2)
        kwargs = {"retry": 1} if chunked else {}
        result = solve_portfolio(formula, attempts=2, rng=5,
                                 max_steps=2000, **kwargs)
        assert result.attempts == 2

    def test_find_order_and_shor_factor(self, hashing_forbidden, chunked):
        kwargs = {"retry": 1} if chunked else {}
        assert find_order(2, 15, rng=1, **kwargs) == 4
        result = shor_factor(15, rng=1, **kwargs)   # seed 1: quantum path
        assert result.method == "quantum-order-finding"
        assert sorted(result.factors) == [3, 5]
