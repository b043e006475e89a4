"""The environment changes no library answer.

Worker count, result cache and fault plan are arguments only.  The three
variables that once set them process-wide -- ``REPRO_WORKERS``,
``REPRO_CACHE_DIR`` and ``REPRO_FAULTS`` -- are named here on purpose:
exported together, they must leave every default call's answer exactly
as it is without them, and write nothing into the named directory.
"""

import os

import numpy as np

from repro.core.parallel import TaskFailure
from repro.core.sat_instances import planted_ksat
from repro.memcomputing.ensemble import solve_ensemble
from repro.memcomputing.solver import solve_portfolio
from repro.oscillators.distance import OscillatorDistanceUnit
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.runtime import QuantumRuntime

REMOVED_VARIABLES = ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_FAULTS")


def _member(result):
    """A portfolio member as plain data (a failure by its reason)."""
    if isinstance(result, TaskFailure):
        return ("failed", result.reason)
    return (bool(result.satisfied), int(result.steps),
            sorted(result.assignment.items()))


def _default_answers():
    """The answers of four default library calls with fixed seeds."""
    ghz = QuantumCircuit(3)
    ghz.h(0)
    ghz.cnot(0, 1)
    ghz.cnot(1, 2)
    ghz.measure_all()
    formula = planted_ksat(20, 50, rng=0)
    pairs = np.random.default_rng(0).integers(0, 256, size=(64, 2))
    portfolio = solve_portfolio(formula, attempts=3, rng=1)
    return {
        "runtime": dict(QuantumRuntime().run(ghz, shots=32, rng=1).counts),
        "ensemble": solve_ensemble(formula, batch=4,
                                   rng=1).solve_steps.tolist(),
        "portfolio": [_member(result) for result in portfolio.results],
        "distance": OscillatorDistanceUnit().measure_pairs(pairs),
    }


def test_removed_variables_change_no_default_call(tmp_path, monkeypatch):
    for name in REMOVED_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    expected = _default_answers()
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.setenv("REPRO_FAULTS", "0:1:raise")
    assert _default_answers() == expected
    assert os.listdir(cache_dir) == []
