"""Vectorized DMM ensembles: time-to-solution distributions ([54]).

The paper's [54] ("Evidence of exponential speed-up ...") does not report
single runs: its claims live in *time-to-solution quantiles* over many
random initial conditions per instance.  This module provides that
methodology: a batched integrator advances ``B`` independent DMM
trajectories of the same formula simultaneously (one numpy tensor, no
Python-level per-trajectory loop), records when each trajectory first
satisfies the formula, and summarizes the TTS distribution.

The batched right-hand side evaluates the same Eqs. 1-2 vector field as
:class:`~repro.memcomputing.dynamics.DmmSystem` -- verified equal
trajectory-for-trajectory by the test suite.
"""

import time

import numpy as np

from ..core import cache as result_cache
from ..core import integrators, parallel, profiling
from ..core.exceptions import MemcomputingError
from ..core.rngs import make_rng
from .dynamics import DmmSystem


class EnsembleResult:
    """Outcome of a batched DMM run.

    Attributes
    ----------
    solve_steps : numpy.ndarray, shape (batch,)
        Integration step at which each trajectory first satisfied the
        formula (``inf`` for trajectories that never did).
    solved_fraction : float
        Share of trajectories that solved within the budget.
    max_steps : int
        The step budget.
    """

    def __init__(self, solve_steps, max_steps):
        self.solve_steps = np.asarray(solve_steps, dtype=float)
        self.max_steps = int(max_steps)

    @property
    def unsolved_mask(self):
        """Boolean array: True where a trajectory never solved.

        The ``inf`` entries of ``solve_steps`` are a sentinel, not data;
        quantile summaries must slice them away through this mask rather
        than rank the sentinel itself.
        """
        return ~np.isfinite(self.solve_steps)

    @property
    def solved_steps(self):
        """Solve steps of the solved trajectories only (sentinel-free)."""
        return self.solve_steps[~self.unsolved_mask]

    @property
    def solved_fraction(self):
        """Fraction of trajectories that reached a solution."""
        return float(np.mean(~self.unsolved_mask))

    @property
    def total_trajectory_steps(self):
        """Integration steps summed over the ensemble.

        Unsolved trajectories contribute the full ``max_steps`` budget
        (their sentinel is ``inf``, which is bookkeeping, not work).
        This is the unit count behind the ``dmm.ensemble.traj_steps``
        throughput instrument.
        """
        return float(np.where(np.isfinite(self.solve_steps),
                              self.solve_steps, self.max_steps).sum())

    def quantile(self, q):
        """TTS quantile in steps; ``inf`` when too few runs solved.

        This is [54]'s headline statistic (they report the median and
        higher quantiles of the TTS distribution).  The rank is taken
        over the *whole* ensemble (unsolved trajectories count as
        slower-than-everything), but the returned value is always read
        from the solved subset -- the ``inf`` sentinels are excluded via
        :attr:`unsolved_mask`.
        """
        if self.solved_fraction < q:
            return float("inf")
        finite = np.sort(self.solved_steps)
        index = int(np.ceil(q * len(self.solve_steps))) - 1
        return float(finite[max(0, min(index, len(finite) - 1))])

    def __repr__(self):
        return ("EnsembleResult(batch=%d, solved=%.0f%%, median=%s)"
                % (len(self.solve_steps), 100 * self.solved_fraction,
                   self.quantile(0.5)))


class BatchedDmm:
    """B simultaneous trajectories of one formula's DMM dynamics.

    The state is a ``(B, state_size)`` array; the vector field is the
    batched transliteration of :meth:`DmmSystem.rhs` (same parameters,
    same clipping).  Per-literal arrays are slot-major, ``(B, K, M)``
    for clause width ``K``: each literal slot is one contiguous
    ``(B, M)`` block, so the reductions over a clause's ``K`` literals
    are a few elementwise passes instead of a sort along a size-``K``
    axis.
    """

    def __init__(self, formula, params=None, x_l_max=None):
        self.system = DmmSystem(formula, params=params, x_l_max=x_l_max)
        system = self.system
        # (K, M) transposes of the system's (M, K) literal tables
        self._var_index = np.ascontiguousarray(system.var_index.T)
        self._sign = np.ascontiguousarray(system.sign.T)
        self._slot_mask = np.ascontiguousarray(system._slot_mask.T)
        self._slots = np.arange(system.clause_width)[:, None]
        self._scatter_cache = {}

    def _batched_scatter_index(self, batch):
        """Flat dv scatter indices for a ``batch``-trajectory stack.

        Trajectory ``b``'s literal slots map into bins ``[b*N, (b+1)*N)``
        so one :func:`np.bincount` covers the whole stack.  Cached per
        batch size: the freeze-solved integration loop shrinks the
        active stack as trajectories drain, so a handful of sizes recur
        thousands of times.
        """
        index = self._scatter_cache.get(batch)
        if index is None:
            n = self.system.num_variables
            flat = self.system.var_index.ravel()
            index = (flat[None, :]
                     + (np.arange(batch) * n)[:, None]).ravel()
            self._scatter_cache[batch] = index
        return index

    def initial_states(self, batch, rng):
        """Stack of ``batch`` independent random initial states."""
        if batch < 1:
            raise MemcomputingError("batch must be positive")
        return np.stack([self.system.initial_state(rng)
                         for _ in range(batch)])

    def rhs_batch(self, states):
        """Vector field for every trajectory at once.

        ``states`` has shape ``(B, N + 2M)``; returns the same shape.
        """
        system = self.system
        p = system.params
        n, m = system.num_variables, system.num_clauses
        v = states[:, :n]                       # (B, N)
        x_s = states[:, n:n + m]                # (B, M)
        x_l = states[:, n + m:]                 # (B, M)
        v_lit = v[:, self._var_index]           # (B, K, M)
        q = 0.5 * (1.0 - self._sign * v_lit)

        # Smallest value, second value and best slot in one scan over
        # the slot columns.  The strict < keeps the first of tied slots,
        # the slot DmmSystem.rhs's stable argsort puts first: a real
        # literal, since padding repeats the last one after it.
        best = (q[:, 1] < q[:, 0]).astype(np.intp)   # (B, M)
        smallest = np.minimum(q[:, 0], q[:, 1])
        second = np.maximum(q[:, 0], q[:, 1])
        for slot in range(2, q.shape[1]):
            column = q[:, slot]
            best[column < smallest] = slot
            np.minimum(second, np.maximum(smallest, column), out=second)
            np.minimum(smallest, column, out=smallest)

        is_best = best[:, None, :] == self._slots
        grad = 0.5 * self._sign * np.where(is_best, second[:, None, :],
                                           smallest[:, None, :])
        # rigidity term: only the best-satisfying slot is driven
        rigid = np.where(is_best, 0.5 * (self._sign - v_lit), 0.0)

        gain_g = (system.weights * x_l * x_s)[:, None, :]
        gain_r = (system.weights
                  * (1.0 + p["zeta"] * x_l) * (1.0 - x_s))[:, None, :]
        contribution = (gain_g * grad + gain_r * rigid) * self._slot_mask

        # One order-preserving bincount over all trajectories: indices
        # are offset by b*N so every trajectory scatters into its own
        # bin range, and the weights are laid out (B, M, K) so within a
        # bin they arrive in the order DmmSystem.rhs adds them -- the
        # sums are bit-identical to the per-trajectory field.
        batch = states.shape[0]
        dv = np.bincount(
            self._batched_scatter_index(batch),
            weights=contribution.transpose(0, 2, 1).ravel(),
            minlength=batch * n).reshape(batch, n)

        dx_s = p["beta"] * (x_s + p["epsilon"]) * (smallest - p["gamma"])
        dx_l = p["alpha"] * (smallest - p["delta"])
        return np.concatenate([dv, dx_s, dx_l], axis=1)

    def unsatisfied_counts(self, states):
        """Digital unsat count per trajectory."""
        v = states[:, :self.system.num_variables]
        q = 0.5 * (1.0 - self._sign * v[:, self._var_index])
        return (q.min(axis=1) >= 0.5).sum(axis=1)


def _integrate_batch(formula, batch, dt, max_steps, check_every, params,
                     x_l_max, rng):
    """Advance ``batch`` trajectories; returns the solve-step array.

    The chunkable integration core behind :func:`solve_ensemble`: one
    call integrates one contiguous block of trajectories with one RNG
    stream, so the parallel engine can run blocks on separate workers.
    """
    batched = BatchedDmm(formula, params=params, x_l_max=x_l_max)
    system = batched.system
    lower = system.lower_bounds()[None, :]
    upper = system.upper_bounds()[None, :]
    states = batched.initial_states(batch, rng)
    solve_steps = np.full(batch, np.inf)
    active = np.ones(batch, dtype=bool)

    # trajectories that start on a solution
    initial_unsat = batched.unsatisfied_counts(states)
    solve_steps[initial_unsat == 0] = 0
    active &= initial_unsat > 0

    # Advance the *compacted* active stack in runs between solve checks
    # (trajectories only retire at checks, so nothing is lost by not
    # re-testing ``active`` every step).  The Euler-clip update is
    # row-elementwise, so the compacted runs are bit-identical to the
    # old advance-everything-every-step loop -- without the per-step
    # gather/scatter.
    step = 0
    while step < max_steps and active.any():
        run = min(check_every, max_steps - step)
        live = integrators.euler_clip_advance(
            batched.rhs_batch, states[active], dt, run, lower, upper)
        states[active] = live
        step += run
        unsat = batched.unsatisfied_counts(live)
        freshly_solved = unsat == 0
        if freshly_solved.any():
            active_indices = np.flatnonzero(active)
            solved_indices = active_indices[freshly_solved]
            solve_steps[solved_indices] = step
            active[solved_indices] = False
    return solve_steps


def _integrate_chunk(payload):
    """Worker entry point: integrate one trajectory block.

    Module-level (picklable) so the parallel engine can ship it to
    worker processes.
    """
    (formula, batch, dt, max_steps, check_every, params, x_l_max,
     rng) = payload
    return _integrate_batch(formula, batch, dt, max_steps, check_every,
                            params, x_l_max, rng)


def _chunk_no_nan(solve_steps):
    """Validate hook: a solve-step block may hold ``inf`` (the unsolved
    sentinel) but never NaN -- NaN means a corrupted worker result."""
    return not np.isnan(solve_steps).any()


def _encode_steps(solve_steps):
    return [float(step) for step in solve_steps]


def _decode_steps(values):
    return np.asarray(values, dtype=float)


def solve_ensemble(formula, batch=32, dt=0.08, max_steps=100_000,
                   check_every=25, params=None, x_l_max=None, rng=None,
                   workers=None, chunk_size=None, timeout=None, retry=None,
                   cache=None):
    """Run ``batch`` trajectories; returns an :class:`EnsembleResult`.

    Solved trajectories are frozen (their state stops advancing) so the
    remaining work shrinks as the ensemble drains.

    Parameters (parallel execution)
    -------------------------------
    workers : int or None
        Worker processes for the trajectory blocks (None: 1 == serial).
    chunk_size : int or None
        Trajectories per block.  A call that sets none of ``workers``
        (> 1), ``chunk_size``, ``timeout`` and ``retry`` runs inline on
        a single stream (all ``batch`` trajectories drawn from one
        generator); any other call is chunked
        (:func:`repro.core.parallel.run_workload`), and its chunking and
        per-chunk RNG spawning depend only on ``(batch, chunk_size,
        rng)`` -- results are bit-identical for every worker count (the
        determinism suite checks serial vs. 2 vs. 4 workers).

    Parameters (resilience)
    -----------------------
    timeout : float or None
        Per-block wall-clock budget (enforced on the process path).
    retry : None or int
        Total attempts per block, the first included; retried blocks
        replay their original RNG stream, so results stay bit-identical
        to a fault-free run.
    cache : None, False, str, or ResultCache
        Content-addressed result reuse (:mod:`repro.core.cache`).
        ``None`` and ``False`` mean no cache.  The inline path caches
        the whole solve-step array (integer seeds only); the chunked
        path caches per trajectory block as blocks finish, so a killed
        chunked run re-run against the same cache directory integrates
        only its missing blocks.  Workloads with ``rng=None`` (fresh
        entropy) are never cached.
    """
    if batch < 1:
        raise MemcomputingError("batch must be positive")
    start = time.perf_counter()
    solve_steps = parallel.run_workload(
        "dmm-ensemble", _integrate_chunk,
        lambda low, high, stream: (formula, high - low, dt, max_steps,
                                   check_every, params, x_l_max, stream),
        batch, np.concatenate,
        lambda: {"batch": int(batch), "dt": dt, "max_steps": int(max_steps),
                 "check_every": int(check_every), "params": params,
                 "x_l_max": x_l_max,
                 "formula": result_cache.formula_fingerprint(formula)},
        inline=lambda: _integrate_batch(formula, batch, dt, max_steps,
                                        check_every, params, x_l_max,
                                        make_rng(rng)),
        rng=rng, encode=_encode_steps, decode=_decode_steps,
        validate=_chunk_no_nan, workers=workers, chunk_size=chunk_size,
        timeout=timeout, retry=retry, cache=cache)
    result = EnsembleResult(solve_steps, max_steps)
    profiling.record_throughput("dmm.ensemble.traj_steps",
                                result.total_trajectory_steps,
                                time.perf_counter() - start)
    return result
