"""DMMSolver: solve CNF-SAT by integrating the memcomputing dynamics.

"The original problem is then solved by applying the appropriate signals
at specific input terminals, and then letting the circuit reach a
steady-state.  The signals at the appropriate output terminals then
represent the solution to the original problem."

The solver integrates :class:`repro.memcomputing.dynamics.DmmSystem` with
forward Euler and per-component clipping (the box constraints of Eq. 2),
periodically thresholding the voltages into a digital assignment; it
stops as soon as that assignment satisfies the formula.  Integration
*steps* are the solver's work metric -- the quantity the scaling
benchmarks compare against WalkSAT flips and DPLL nodes.
"""

import time

import numpy as np

from ..core import cache as result_cache
from ..core import parallel, profiling, resilience, telemetry
from ..core.exceptions import DmmConvergenceError
from ..core.rngs import make_rng
from .dynamics import DmmSystem


class DmmResult:
    """Outcome of a DMM solve.

    Attributes
    ----------
    satisfied : bool
        True when a satisfying assignment was found.
    assignment : dict or None
        DIMACS-style variable -> bool mapping (best-effort when
        unsatisfied).
    steps : int
        Forward-Euler integration steps consumed.
    sim_time : float
        Dynamical (integrated) time reached.
    wall_time : float
        Wall-clock seconds spent.
    restarts : int
        Number of fresh random initial conditions used.
    unsat_trace : list of (sim_time, unsat_count)
        Coarse trace of the digital unsatisfied-clause count, used by the
        instanton diagnostics.
    """

    def __init__(self, satisfied, assignment, steps, sim_time, wall_time,
                 restarts, unsat_trace):
        self.satisfied = bool(satisfied)
        self.assignment = assignment
        self.steps = int(steps)
        self.sim_time = float(sim_time)
        self.wall_time = float(wall_time)
        self.restarts = int(restarts)
        self.unsat_trace = list(unsat_trace)

    def __repr__(self):
        return ("DmmResult(satisfied=%s, steps=%s, sim_time=%s, "
                "wall_time=%s, restarts=%d)"
                % (self.satisfied, telemetry.fmt_quantity(self.steps),
                   telemetry.fmt_quantity(self.sim_time),
                   telemetry.fmt_seconds(self.wall_time), self.restarts))


class DmmSolver:
    """Digital-memcomputing SAT solver.

    Parameters
    ----------
    dt : float
        Forward-Euler step.  The published DMM-SAT integrations use steps
        of this order; the dynamics' robustness to integration error is
        itself one of the paper's claims (topological critical points).
    max_steps : int
        Total step budget across restarts.
    check_every : int
        Steps between digital solution checks.
    restart_after : int or None
        Steps before drawing a fresh initial condition (None: never).
    params, x_l_max :
        Forwarded to :class:`DmmSystem`.
    noise_sigma : float
        Optional additive white noise amplitude on dv/dt (used by the
        robustness study DMM-NOISE; 0 disables).
    """

    def __init__(self, dt=0.08, max_steps=2_000_000, check_every=25,
                 restart_after=None, params=None, x_l_max=None,
                 noise_sigma=0.0):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = float(dt)
        self.max_steps = int(max_steps)
        self.check_every = int(check_every)
        self.restart_after = restart_after
        self.params = params
        self.x_l_max = x_l_max
        self.noise_sigma = float(noise_sigma)

    def solve(self, formula, rng=None, raise_on_failure=False):
        """Integrate until the formula is satisfied or the budget is spent.

        Returns a :class:`DmmResult`; raises
        :class:`DmmConvergenceError` instead when ``raise_on_failure``.

        Telemetry (when enabled): a ``dmm.solver.solve`` span, counters
        for steps / checkpoints / restarts / instanton events (checkpoint
        transitions where the digital unsat count jumped), and a
        ``dmm.solver.instanton`` trace event per jump.
        """
        rng = make_rng(rng)
        registry = telemetry.get_registry()
        with telemetry.span("dmm.solver.solve",
                            variables=formula.num_variables,
                            clauses=formula.num_clauses) as solve_span:
            result = self._integrate(formula, rng, registry)
            solve_span.set_attr("satisfied", result.satisfied)
            solve_span.set_attr("steps", result.steps)
            solve_span.set_attr("restarts", result.restarts)
        if raise_on_failure and not result.satisfied:
            raise DmmConvergenceError(
                "DMM did not satisfy the formula in %d steps" % self.max_steps)
        return result

    def _integrate(self, formula, rng, registry):
        """The forward-Euler loop; returns a :class:`DmmResult`."""
        system = DmmSystem(formula, params=self.params, x_l_max=self.x_l_max)
        lower = system.lower_bounds()
        upper = system.upper_bounds()
        num_variables = system.num_variables
        enabled = registry.enabled

        start = time.perf_counter()
        state = system.initial_state(rng)
        steps = 0
        restarts = 0
        steps_since_restart = 0
        sim_time = 0.0
        satisfied = None
        last_unsat = system.unsatisfied_count(state)
        instanton_events = 0
        unsat_trace = [(0.0, last_unsat)]

        while steps < self.max_steps:
            derivative = system.rhs(sim_time, state)
            if self.noise_sigma > 0.0:
                derivative[:num_variables] += rng.normal(
                    0.0, self.noise_sigma, size=num_variables)
            state = state + self.dt * derivative
            np.clip(state, lower, upper, out=state)
            steps += 1
            steps_since_restart += 1
            sim_time += self.dt
            if steps % self.check_every == 0:
                unsat = system.unsatisfied_count(state)
                unsat_trace.append((sim_time, unsat))
                if unsat != last_unsat:
                    instanton_events += 1
                    if enabled:
                        telemetry.event("dmm.solver.instanton",
                                        sim_time=sim_time,
                                        unsat_from=last_unsat,
                                        unsat_to=unsat)
                    last_unsat = unsat
                if unsat == 0:
                    satisfied = True
                    break
            if (self.restart_after is not None
                    and steps_since_restart >= self.restart_after):
                state = system.initial_state(rng)
                restarts += 1
                steps_since_restart = 0

        if satisfied is None:
            satisfied = system.is_solution(state)
        wall_time = time.perf_counter() - start
        if enabled:
            registry.counter("dmm.solver.solves").inc()
            registry.counter("dmm.solver.steps").inc(steps)
            registry.counter("dmm.solver.checkpoints").inc(
                len(unsat_trace) - 1)
            registry.counter("dmm.solver.restarts").inc(restarts)
            registry.counter("dmm.solver.instanton_events").inc(
                instanton_events)
            registry.gauge("dmm.solver.sim_time").set(sim_time)
            registry.histogram("dmm.solver.steps_per_solve").observe(steps)
            profiling.record_throughput("dmm.solver.steps", steps,
                                        wall_time)
        return DmmResult(satisfied, system.assignment_from_state(state),
                         steps, sim_time, wall_time, restarts, unsat_trace)


class PortfolioResult:
    """Outcome of a parallel-restart portfolio solve.

    Attributes
    ----------
    results : list
        One entry per portfolio member, in member order: a
        :class:`DmmResult`, or a
        :class:`~repro.core.parallel.TaskFailure` for a member whose
        worker failed.
    """

    def __init__(self, results):
        self.results = list(results)

    @property
    def attempts(self):
        """Number of portfolio members launched."""
        return len(self.results)

    @property
    def best(self):
        """The winning member, chosen by a worker-count-independent rule.

        Satisfied members win over unsatisfied; ties break on fewest
        integration steps, then lowest member index -- a deterministic
        function of the member results alone, so the winner does not
        depend on which worker finished first.  ``None`` when every
        member failed.
        """
        ranked = [
            (not result.satisfied, result.steps, index)
            for index, result in enumerate(self.results)
            if isinstance(result, DmmResult)
        ]
        if not ranked:
            return None
        return self.results[min(ranked)[2]]

    @property
    def satisfied(self):
        """True when any member satisfied the formula."""
        best = self.best
        return best is not None and best.satisfied

    def __repr__(self):
        return "PortfolioResult(attempts=%d, satisfied=%s, best=%r)" % (
            self.attempts, self.satisfied, self.best)


def _portfolio_attempt(payload):
    """Worker entry point: one independent restart of the DMM solver."""
    formula, solver_kwargs, rng = payload
    return DmmSolver(**solver_kwargs).solve(formula, rng=rng)


def _member_is_result(value):
    """Validate hook: anything but a :class:`DmmResult` is corrupted."""
    return isinstance(value, DmmResult)


def _encode_member(result):
    return {"satisfied": result.satisfied,
            "assignment": None if result.assignment is None
            else {str(var): bool(val)
                  for var, val in result.assignment.items()},
            "steps": result.steps, "sim_time": result.sim_time,
            "wall_time": result.wall_time, "restarts": result.restarts,
            "unsat_trace": [[float(t), int(u)]
                            for t, u in result.unsat_trace]}


def _decode_member(doc):
    assignment = doc["assignment"]
    if assignment is not None:
        assignment = {int(var): bool(val) for var, val in assignment.items()}
    return DmmResult(doc["satisfied"], assignment, doc["steps"],
                     doc["sim_time"], doc["wall_time"], doc["restarts"],
                     [tuple(entry) for entry in doc["unsat_trace"]])


def solve_portfolio(formula, attempts=4, rng=None, workers=None,
                    timeout=None, retry=None, cache=None, **solver_kwargs):
    """Race ``attempts`` independent restarts; returns a portfolio result.

    The parallel analogue of :class:`DmmSolver`'s ``restart_after``
    budget: instead of restarting *sequentially* inside one step budget,
    the portfolio draws ``attempts`` independent initial conditions
    (child generators spawned from ``rng``, one per member, so the
    streams do not depend on the worker count) and integrates them
    concurrently.  Member results are collected in member order and the
    winner picked by :attr:`PortfolioResult.best` -- deterministic given
    the seed, whatever ``workers`` is.

    Every call is chunked, one member per chunk
    (:func:`repro.core.parallel.run_workload`).  ``timeout`` (seconds
    per member) and worker crashes mark individual members failed
    without sinking the portfolio; ``retry`` (total attempts per
    member) re-runs a failed member with its original stream before
    giving up; ``cache`` (None / False / path /
    :class:`~repro.core.cache.ResultCache`) stores each finished
    member content-addressed by formula, settings, and RNG fingerprint
    (:mod:`repro.core.cache`; seeded runs only), so a killed portfolio
    re-run against the same cache directory integrates only its
    unfinished members; ``solver_kwargs`` are forwarded to every
    member's :class:`DmmSolver`.
    """
    if attempts < 1:
        raise ValueError("attempts must be positive, got %r" % attempts)
    with telemetry.span("dmm.portfolio.solve", attempts=attempts):
        portfolio = parallel.run_workload(
            "dmm-portfolio", _portfolio_attempt,
            lambda _low, _high, stream: (formula, solver_kwargs, stream),
            attempts, PortfolioResult,
            lambda: {"attempts": int(attempts),
                     "solver_kwargs": resilience.jsonable(solver_kwargs),
                     "formula": result_cache.formula_fingerprint(formula)},
            rng=rng, encode=_encode_member, decode=_decode_member,
            validate=_member_is_result, on_error="return", workers=workers,
            chunk_size=1, timeout=timeout, retry=retry, cache=cache)
    registry = telemetry.get_registry()
    if registry.enabled:
        registry.counter("dmm.portfolio.solves").inc()
        registry.counter("dmm.portfolio.attempts").inc(attempts)
    return portfolio
