"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one base class to guard any library call.  Sub-hierarchies
mirror the three computing models reproduced from the paper plus the shared
core substrate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class CoreError(ReproError):
    """Errors from the shared core substrate (integrators, CNF, signals)."""


class IntegrationError(CoreError):
    """An ODE integration failed (step-size underflow, non-finite state)."""


class FormulaError(CoreError):
    """A Boolean formula is malformed (bad literal, empty clause, parse)."""


class DimacsParseError(FormulaError):
    """DIMACS CNF text could not be parsed."""


class TelemetryError(CoreError):
    """Telemetry misuse (metric kind clash, negative counter increment)."""


class ParallelError(CoreError):
    """The parallel execution engine was misused or a task failed."""


class ResilienceError(CoreError):
    """Retry or fault-injection misuse (a retry budget that is not an
    int >= 1, malformed fault spec)."""


class CacheError(CoreError):
    """Result-cache misuse or a corrupted/mismatched cache entry."""


class InjectedFault(CoreError):
    """A deliberately injected failure from a resilience ``FaultPlan``.

    Only ever raised under a plan installed in process
    (:func:`~repro.core.resilience.use_faults`): tests and chaos drills.
    """


class QuantumError(ReproError):
    """Errors from the quantum accelerator model (Section II)."""


class QubitIndexError(QuantumError):
    """A gate or measurement referenced a qubit outside the register."""


class QasmError(QuantumError):
    """A quantum assembly program failed to parse or validate."""


class CompilationError(QuantumError):
    """A compiler pass could not lower the circuit to the target."""


class MicroArchError(QuantumError):
    """The micro-architecture model rejected an instruction stream."""


class OscillatorError(ReproError):
    """Errors from the coupled-oscillator model (Section III)."""


class DeviceModelError(OscillatorError):
    """A VO2/transistor device model was built with unphysical parameters."""


class LockingError(OscillatorError):
    """Frequency locking analysis was requested on an unlocked system."""


class ReadoutError(OscillatorError):
    """The XOR readout could not produce a stable averaged value."""


class MemcomputingError(ReproError):
    """Errors from the digital memcomputing machine model (Section IV)."""


class SolgError(MemcomputingError):
    """A self-organizing logic gate was configured inconsistently."""


class DmmConvergenceError(MemcomputingError):
    """The DMM dynamics failed to reach a solution within the budget."""


class ServeError(ReproError):
    """Errors from the ``repro serve`` job service."""


class JobValidationError(ServeError):
    """A submitted job's kind or parameters are malformed (HTTP 400)."""


class QueueFullError(ServeError):
    """Admission refused: the service queue is at capacity (HTTP 429)."""


class QuotaError(ServeError):
    """Admission refused: the tenant is at its concurrency quota (429)."""

