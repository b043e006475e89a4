"""Shared substrate: integrators, event/signal analysis, CNF, instances.

The three computing models reproduced from the paper sit on this common
layer.  Nothing here knows about qubits, oscillators, or SOLGs.
"""

from . import (
    cache,
    parallel,
    profiling,
    provenance,
    resilience,
    telemetry,
    tracing,
)
from .cache import CacheSpec, ResultCache
from .cnf import Clause, CnfFormula, parse_dimacs
from .parallel import ParallelMap, TaskFailure, parallel_map
from .profiling import Profile, ProfileSink, record_throughput
from .provenance import host_provenance
from .resilience import FaultPlan, use_faults
from .integrators import (
    Trajectory,
    integrate_adaptive,
    integrate_clipped,
    integrate_fixed,
    rk4_step,
)
from .rngs import make_rng, spawn_rngs
from .sat_instances import (
    frustrated_loop_ising,
    ising_energy,
    planted_ksat,
    planted_maxsat,
    random_ksat,
)

__all__ = [
    "cache",
    "CacheSpec",
    "ResultCache",
    "parallel",
    "profiling",
    "provenance",
    "Profile",
    "ProfileSink",
    "record_throughput",
    "host_provenance",
    "resilience",
    "telemetry",
    "tracing",
    "ParallelMap",
    "TaskFailure",
    "parallel_map",
    "FaultPlan",
    "use_faults",
    "Clause",
    "CnfFormula",
    "parse_dimacs",
    "Trajectory",
    "integrate_adaptive",
    "integrate_clipped",
    "integrate_fixed",
    "rk4_step",
    "make_rng",
    "spawn_rngs",
    "frustrated_loop_ising",
    "ising_energy",
    "planted_ksat",
    "planted_maxsat",
    "random_ksat",
]
