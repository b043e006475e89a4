"""Unit and property tests for the DMM equations of motion (Eqs. 1-2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cnf import Clause, CnfFormula
from repro.core.exceptions import MemcomputingError
from repro.core.rngs import make_rng
from repro.core.sat_instances import planted_ksat
from repro.memcomputing.dynamics import DEFAULT_PARAMS, DmmSystem
from repro.memcomputing.ensemble import BatchedDmm


def single_clause_system(literals):
    return DmmSystem(CnfFormula([Clause(literals)]))


class TestConstruction:
    def test_state_layout(self):
        formula = planted_ksat(10, 30, rng=0)
        system = DmmSystem(formula)
        assert system.state_size == 10 + 2 * 30
        state = system.initial_state(make_rng(0))
        v, x_s, x_l = system.unpack(state)
        assert len(v) == 10 and len(x_s) == 30 and len(x_l) == 30

    def test_initial_state_in_bounds(self):
        system = DmmSystem(planted_ksat(8, 20, rng=1))
        state = system.initial_state(make_rng(2))
        assert np.all(state >= system.lower_bounds())
        assert np.all(state <= system.upper_bounds())

    def test_narrow_clauses_padded(self):
        formula = CnfFormula([Clause([1]), Clause([1, -2]),
                              Clause([1, 2, 3])])
        system = DmmSystem(formula)
        assert system.clause_width == 3

    def test_unknown_params_rejected(self):
        with pytest.raises(MemcomputingError):
            DmmSystem(planted_ksat(5, 10, rng=0), params={"omega": 1.0})

    def test_empty_formula_rejected(self):
        with pytest.raises(MemcomputingError):
            DmmSystem(CnfFormula([], num_variables=3))

    def test_requires_formula_type(self):
        with pytest.raises(MemcomputingError):
            DmmSystem([[1, 2]])

    def test_default_params_copied(self):
        system = DmmSystem(planted_ksat(5, 10, rng=0),
                           params={"alpha": 9.0})
        assert system.params["alpha"] == 9.0
        assert DEFAULT_PARAMS["alpha"] == 5.0  # untouched


class TestClauseFunctions:
    def test_satisfied_literal_gives_zero_c(self):
        system = single_clause_system([1, 2, 3])
        state = system.initial_state(make_rng(0))
        v, _x_s, _x_l = system.unpack(state)
        v[:] = [1.0, -1.0, -1.0]
        _q, big_c = system.clause_functions(v)
        assert big_c[0] == pytest.approx(0.0)

    def test_fully_violated_clause(self):
        system = single_clause_system([1, 2, 3])
        v = np.array([-1.0, -1.0, -1.0])
        _q, big_c = system.clause_functions(v)
        assert big_c[0] == pytest.approx(1.0)

    def test_midpoint(self):
        system = single_clause_system([1, 2, 3])
        v = np.zeros(3)
        _q, big_c = system.clause_functions(v)
        assert big_c[0] == pytest.approx(0.5)


class TestVectorField:
    def test_gradient_pushes_toward_satisfaction(self):
        system = single_clause_system([1, 2, 3])
        state = np.concatenate([[-0.5, -0.5, -0.5], [1.0], [1.0]])
        derivative = system.rhs(0.0, state)
        dv = derivative[:3]
        # an unsatisfied all-positive clause drives voltages upward
        assert np.all(dv > 0.0)

    def test_negated_literals_pushed_down(self):
        system = single_clause_system([-1, -2, -3])
        state = np.concatenate([[0.5, 0.5, 0.5], [1.0], [1.0]])
        dv = system.rhs(0.0, state)[:3]
        assert np.all(dv < 0.0)

    def test_satisfied_clause_relaxes_memory(self):
        system = single_clause_system([1, 2, 3])
        state = np.concatenate([[1.0, 1.0, 1.0], [0.5], [5.0]])
        derivative = system.rhs(0.0, state)
        _dv, dx_s, dx_l = system.unpack(derivative)
        assert dx_s[0] < 0.0  # short memory decays when C < gamma
        assert dx_l[0] < 0.0  # long memory decays when C < delta

    def test_frustrated_clause_grows_memory(self):
        system = single_clause_system([1, 2, 3])
        state = np.concatenate([[-1.0, -1.0, -1.0], [0.5], [1.0]])
        derivative = system.rhs(0.0, state)
        _dv, dx_s, dx_l = system.unpack(derivative)
        assert dx_s[0] > 0.0
        assert dx_l[0] > 0.0

    def test_weights_scale_voltage_drive(self):
        base = DmmSystem(CnfFormula([Clause([1, 2, 3])]))
        heavy = DmmSystem(CnfFormula([Clause([1, 2, 3], weight=4.0)]))
        state = np.concatenate([[-0.3, -0.2, -0.1], [0.7], [2.0]])
        dv_base = base.rhs(0.0, state)[:3]
        dv_heavy = heavy.rhs(0.0, state)[:3]
        assert np.allclose(dv_heavy, 4.0 * dv_base)

    @pytest.mark.parametrize("field", ["rhs", "rhs_batch"])
    def test_tie_with_padding_drives_the_real_literal(self, field):
        # (1 2 3) is padded to (1 2 3 3) next to a 4-literal clause.  Its
        # literal 3 ties with the padded copy as the clause minimum
        # (q = 0.05); the rigidity drive must go to the real slot, not
        # to the masked copy, whatever the host's sort does on ties.
        formula = CnfFormula([Clause([1, 2, 3, 4]), Clause([1, 2, 3])])
        state = np.concatenate([[-0.5, -0.4, 0.9, -0.2], [0.5, 0.5],
                                [1.0, 1.0]])
        if field == "rhs":
            dv = DmmSystem(formula).rhs(0.0, state)[:4]
        else:
            dv = BatchedDmm(formula).rhs_batch(state[None, :])[0, :4]
        # variable 3 is each clause's best slot: G = 0.5 x_l x_s min_others
        # (0.15 and 0.0125) plus R = (1 + zeta x_l)(1 - x_s)(1 - v_3) / 2
        # = 0.55 * 0.05 from each clause
        assert dv[2] == pytest.approx(0.15 + 0.0125 + 2 * 0.55 * 0.05)

    def test_solution_is_fixed_point_of_voltages(self):
        formula, plant = planted_ksat(12, 40, rng=3,
                                      return_assignment=True)
        system = DmmSystem(formula)
        voltages = np.array([1.0 if plant[i + 1] else -1.0
                             for i in range(12)])
        state = np.concatenate([voltages, np.zeros(40), np.ones(40)])
        dv = system.rhs(0.0, state)[:12]
        assert np.max(np.abs(dv)) == pytest.approx(0.0)


class TestDigitalReadout:
    def test_assignment_thresholding(self):
        system = single_clause_system([1, -2])
        state = np.concatenate([[0.3, -0.7], [0.5], [1.0]])
        assert system.assignment_from_state(state) == {1: True, 2: False}

    def test_unsatisfied_count(self):
        formula = CnfFormula([Clause([1]), Clause([-1])])
        system = DmmSystem(formula)
        state = np.concatenate([[1.0], [0.5, 0.5], [1.0, 1.0]])
        assert system.unsatisfied_count(state) == 1
        assert not system.is_solution(state)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_memory_bounds_hold_under_integration(seed):
    """Eq. 2's box constraints hold along any clipped trajectory."""
    formula = planted_ksat(8, 30, rng=seed)
    system = DmmSystem(formula)
    rng = make_rng(seed)
    state = system.initial_state(rng)
    lower, upper = system.lower_bounds(), system.upper_bounds()
    for step in range(200):
        state = np.clip(state + 0.08 * system.rhs(step * 0.08, state),
                        lower, upper)
        assert np.all(state >= lower) and np.all(state <= upper)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_rhs_is_finite_everywhere_in_box(seed):
    """The vector field never produces NaN/inf inside the state box."""
    formula = planted_ksat(6, 20, rng=seed)
    system = DmmSystem(formula)
    rng = make_rng(seed + 1)
    for _ in range(10):
        v = rng.uniform(-1, 1, 6)
        x_s = rng.uniform(0, 1, 20)
        x_l = rng.uniform(1, system.x_l_max, 20)
        derivative = system.rhs(0.0, np.concatenate([v, x_s, x_l]))
        assert np.all(np.isfinite(derivative))
