"""The DMM equations of motion (the paper's Eqs. 1-2, instantiated for SAT).

Section IV gives the generic form

    dv_i/dt = dg_M x dV_M + g_R dV_R           (Eq. 1)
    dx/dt   = h(dV_M, x),  x in [0, 1]          (Eq. 2)

"The first and second terms on the RHS of Eq. 1 represent the
contributions from resistors with memory and standard resistors" -- i.e. a
memory-weighted *gradient-like* drive and a memoryless *rigidity* drive.
The concrete, published instantiation of these equations for k-SAT (the
form used by the studies the paper cites: Traversa & Di Ventra 2017,
Bearden et al. 2018, Traversa et al., Complexity 2018) is implemented
here:

for every clause ``m`` over literals ``l_{m,i}`` on variables ``n(m, i)``
with continuous variable voltages ``v in [-1, 1]``:

    q_{m,i} = (1 - l_{m,i} v_{n}) / 2           in [0, 1]
    C_m     = min_i q_{m,i}                     clause constraint function

    G_{m,i} = (1/2) l_{m,i} min_{j != i} q_{m,j}     (gradient term)
    R_{m,i} = (1/2) (l_{m,i} - v_n)   if q_{m,i} == C_m else 0  (rigidity)

    dv_n/dt  = sum_m w_m [ x^l_m x^s_m G_{m,i} +
                           (1 + zeta x^l_m)(1 - x^s_m) R_{m,i} ]
    dx^s_m/dt = beta (x^s_m + eps)(C_m - gamma)      short-term memory
    dx^l_m/dt = alpha (C_m - delta)                  long-term memory

with ``x^s in [0, 1]`` (the bounded memristive state of Eq. 2), ``x^l in
[1, x^l_max]``, and optional per-clause weights ``w_m`` (used by the
MaxSAT solver).  A clause is digitally satisfied when ``C_m < 1/2``.

The memory variables are exactly the paper's "active elements ...
provide the necessary feedback": the short-term memory switches a clause
between gradient-driven and rigidity-driven behaviour; the long-term
memory accumulates how persistently a clause has been frustrated,
implementing the time non-locality that gives memcomputing its name.
"""

import numpy as np

from ..core import telemetry
from ..core.cnf import CnfFormula
from ..core.exceptions import MemcomputingError

#: Default dynamics parameters from the published DMM-SAT studies.
DEFAULT_PARAMS = {
    "alpha": 5.0,
    "beta": 20.0,
    "gamma": 0.25,
    "delta": 0.05,
    "epsilon": 1e-3,
    "zeta": 0.1,
}


class DmmSystem:
    """Vectorized DMM vector field for a (possibly weighted) CNF formula.

    State layout: ``[v (N), x_s (M), x_l (M)]``.

    Parameters
    ----------
    formula : CnfFormula
        Clauses over variables 1..N.  Clauses of width 1 and 2 are padded
        by literal repetition (a repeated literal leaves the min-structure
        of the dynamics unchanged).
    params : dict, optional
        Overrides for :data:`DEFAULT_PARAMS`.
    x_l_max : float, optional
        Upper clip for the long-term memory (default ``1e4 * M``).
    """

    def __init__(self, formula, params=None, x_l_max=None):
        if not isinstance(formula, CnfFormula):
            raise MemcomputingError("DmmSystem needs a CnfFormula")
        if formula.num_clauses == 0:
            raise MemcomputingError("formula has no clauses")
        self.formula = formula
        self.params = dict(DEFAULT_PARAMS)
        if params:
            unknown = set(params) - set(DEFAULT_PARAMS)
            if unknown:
                raise MemcomputingError("unknown parameters %r" % sorted(unknown))
            self.params.update(params)
        self.num_variables = formula.num_variables
        self.num_clauses = formula.num_clauses
        width = max(len(clause) for clause in formula.clauses)
        self.clause_width = max(2, width)
        var_index = np.zeros((self.num_clauses, self.clause_width), dtype=np.int64)
        sign = np.zeros((self.num_clauses, self.clause_width), dtype=float)
        weights = np.ones(self.num_clauses)
        for row, clause in enumerate(formula.clauses):
            literals = list(clause.literals)
            while len(literals) < self.clause_width:
                literals.append(literals[-1])  # pad by repetition
            for col, literal in enumerate(literals):
                var_index[row, col] = abs(literal) - 1
                sign[row, col] = 1.0 if literal > 0 else -1.0
            if clause.weight is not None:
                weights[row] = clause.weight
        self.var_index = var_index
        self.sign = sign
        self.weights = weights
        self.x_l_max = float(x_l_max) if x_l_max is not None \
            else 1e4 * self.num_clauses
        # mask marking padded duplicate slots so G/R sums do not double-count
        self._slot_mask = np.ones_like(sign)
        for row, clause in enumerate(formula.clauses):
            self._slot_mask[row, len(clause.literals):] = 0.0
        # Instruments are bound once against the registry active at
        # construction; when telemetry is disabled they are shared no-ops,
        # keeping the rhs hot path at a single extra method call.
        registry = telemetry.get_registry()
        registry.counter("dmm.dynamics.systems").inc()
        if registry.enabled:
            registry.histogram("dmm.dynamics.variables").observe(
                self.num_variables)
            registry.histogram("dmm.dynamics.clauses").observe(
                self.num_clauses)
        self._rhs_counter = registry.counter("dmm.dynamics.rhs_evals")

    # -- state helpers ---------------------------------------------------------

    @property
    def state_size(self):
        """Length of the packed state vector."""
        return self.num_variables + 2 * self.num_clauses

    def initial_state(self, rng):
        """Random initial state: v ~ U(-1,1), x_s = 0.5, x_l = 1."""
        v = rng.uniform(-1.0, 1.0, size=self.num_variables)
        x_s = np.full(self.num_clauses, 0.5)
        x_l = np.ones(self.num_clauses)
        return np.concatenate([v, x_s, x_l])

    def unpack(self, state):
        """Split a packed state into ``(v, x_s, x_l)`` views."""
        n, m = self.num_variables, self.num_clauses
        return state[:n], state[n:n + m], state[n + m:]

    def lower_bounds(self):
        """Per-component clipping floor (Eq. 2's bounded memory)."""
        return np.concatenate([
            np.full(self.num_variables, -1.0),
            np.zeros(self.num_clauses),
            np.ones(self.num_clauses),
        ])

    def upper_bounds(self):
        """Per-component clipping ceiling."""
        return np.concatenate([
            np.ones(self.num_variables),
            np.ones(self.num_clauses),
            np.full(self.num_clauses, self.x_l_max),
        ])

    # -- the vector field -----------------------------------------------------

    def clause_functions(self, v):
        """``(q, C)``: per-literal q values and per-clause constraint C."""
        q = 0.5 * (1.0 - self.sign * v[self.var_index])
        # padded duplicate slots repeat a real literal, so the min is safe
        return q, q.min(axis=1)

    def rhs(self, _t, state):
        """The full DMM vector field ``d(state)/dt``."""
        self._rhs_counter.inc()
        p = self.params
        v, x_s, x_l = self.unpack(state)
        q, big_c = self.clause_functions(v)
        m_rows, width = q.shape

        # gradient term: for slot i, min over the *other* slots.  The
        # sort is stable so a tie picks the first slot, a real literal:
        # padding repeats the last one after it, and is masked out
        order = np.argsort(q, axis=1, kind="stable")
        smallest = q[np.arange(m_rows), order[:, 0]]
        second = q[np.arange(m_rows), order[:, 1]]
        min_others = np.where(
            np.arange(width)[None, :] == order[:, 0:1],
            second[:, None], smallest[:, None])
        grad = 0.5 * self.sign * min_others

        # rigidity term: only the best-satisfying slot is driven
        best_slot = order[:, 0]
        rigid = np.zeros_like(q)
        rows = np.arange(m_rows)
        rigid[rows, best_slot] = 0.5 * (
            self.sign[rows, best_slot]
            - v[self.var_index[rows, best_slot]])

        clause_gain_g = (self.weights * x_l * x_s)[:, None]
        clause_gain_r = (self.weights
                         * (1.0 + p["zeta"] * x_l) * (1.0 - x_s))[:, None]
        contribution = (clause_gain_g * grad + clause_gain_r * rigid) \
            * self._slot_mask

        # np.bincount accumulates its weights in input order, exactly
        # like the np.add.at scatter it replaces (bit-identical sums),
        # but runs as a single C loop instead of a buffered ufunc --
        # this scatter was the RHS hot spot.
        dv = np.bincount(self.var_index.ravel(),
                         weights=contribution.ravel(),
                         minlength=self.num_variables)

        dx_s = p["beta"] * (x_s + p["epsilon"]) * (big_c - p["gamma"])
        dx_l = p["alpha"] * (big_c - p["delta"])
        return np.concatenate([dv, dx_s, dx_l])

    # -- digital readout --------------------------------------------------------

    def assignment_from_state(self, state):
        """Threshold the voltages into a DIMACS-style dict assignment."""
        v, _x_s, _x_l = self.unpack(state)
        return {n + 1: bool(v[n] > 0.0) for n in range(self.num_variables)}

    def unsatisfied_count(self, state):
        """Number of digitally unsatisfied clauses at this state."""
        v, _x_s, _x_l = self.unpack(state)
        _q, big_c = self.clause_functions(v)
        return int(np.sum(big_c >= 0.5))

    def is_solution(self, state):
        """True when the thresholded assignment satisfies every clause."""
        return self.unsatisfied_count(state) == 0
