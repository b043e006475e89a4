"""Runtime-support layer: shot scheduling and result aggregation.

Sits between the compiler and the micro-architecture in the Fig. 2 stack.
The runtime owns the execution loop that real control software provides:
repeat the kernel for N shots, collect classical results, histogram them,
and account accumulated chip time.
"""

import math
import time

from ..core import cache as result_cache
from ..core import parallel, profiling, resilience, telemetry
from ..core.exceptions import QuantumError
from ..core.rngs import make_rng, spawn_rngs
from .microarch import MicroArchitecture, assemble


def circuit_fingerprint(circuit):
    """Content description of a circuit for cache keying.

    Stronger than ``gate_counts()`` (enough for a per-run checkpoint
    file, too weak for a shared cache directory): every op contributes
    its name, qubits, parameters, and -- for explicit-matrix or
    permutation ops -- a hash of the actual array contents.
    """
    ops = []
    for op in circuit.ops:
        if hasattr(op, "cbit"):                  # MeasureOp
            ops.append(["measure", int(op.qubit), str(op.cbit)])
        else:
            ops.append([
                str(op.name), list(op.qubits), list(op.params),
                None if op.matrix is None
                else result_cache.array_fingerprint(op.matrix),
                None if op.permutation is None
                else result_cache.array_fingerprint(op.permutation)])
    return result_cache.digest([int(circuit.num_qubits), ops])


def _microarch_meta(microarch):
    """The micro-architecture knobs that decide shot results/timing."""
    return {"num_qubits": int(microarch.num_qubits),
            "durations_ns": dict(microarch.durations_ns),
            "coherence_ns": float(microarch.coherence_ns)}


def _run_shot_chunk(payload):
    """Worker entry point: execute one block of shots.

    Module-level (picklable) for
    :class:`repro.core.parallel.ParallelMap`; re-assembles the kernel in
    the worker and returns ``(counts, chip_time_ns)`` for its block.
    """
    microarch, circuit, cbit_order, shots, rng = payload
    program = assemble(circuit)
    counts = {}
    chip_time = 0.0
    # Batched prefix-tree execution; the results come back in shot order,
    # so the histogram's insertion order (which breaks most_common ties)
    # and the iterated chip-time float sum match the old per-shot loop.
    for result in microarch.execute_shots(program, shots, rng=rng):
        value = result.bits_as_int(cbit_order)
        counts[value] = counts.get(value, 0) + 1
        chip_time += result.elapsed_ns
    return counts, chip_time


def _block_is_sane(value):
    """Validate hook: a shot block is ``(int counts, finite chip time)``."""
    counts, chip_time = value
    return (isinstance(chip_time, float) and math.isfinite(chip_time)
            and all(isinstance(count, int) for count in counts.values()))


def _encode_block(value):
    counts, chip_time = value
    # JSON objects cannot key on ints: store the histogram as pairs.
    return {"counts": [[int(outcome), int(count)]
                       for outcome, count in sorted(counts.items())],
            "chip_time_ns": float(chip_time)}


def _decode_block(doc):
    return ({int(outcome): int(count) for outcome, count in doc["counts"]},
            float(doc["chip_time_ns"]))


class ShotResult:
    """Aggregated results of a multi-shot kernel execution.

    Attributes
    ----------
    counts : dict
        Bitstring value (int, first-measured cbit is the LSB) -> count.
    cbit_order : list of str
        Classical bit names in LSB-first order.
    shots : int
        Number of shots executed.
    total_chip_time_ns : float
        Accumulated on-chip execution time over all shots.
    wall_time : float
        Host wall-clock seconds the runtime spent on the execution loop.
    """

    def __init__(self, counts, cbit_order, shots, total_chip_time_ns,
                 wall_time=0.0):
        self.counts = dict(counts)
        self.cbit_order = list(cbit_order)
        self.shots = int(shots)
        self.total_chip_time_ns = float(total_chip_time_ns)
        self.wall_time = float(wall_time)

    def probability(self, value):
        """Empirical probability of an integer outcome."""
        return self.counts.get(value, 0) / self.shots

    def most_common(self, n=1):
        """The ``n`` most frequent outcomes as (value, count) pairs."""
        ranked = sorted(self.counts.items(), key=lambda kv: -kv[1])
        return ranked[:n]

    def __repr__(self):
        return ("ShotResult(shots=%s, outcomes=%d, chip_time=%s, "
                "wall_time=%s)"
                % (telemetry.fmt_quantity(self.shots), len(self.counts),
                   telemetry.fmt_seconds(self.total_chip_time_ns * 1e-9),
                   telemetry.fmt_seconds(self.wall_time)))


class QuantumRuntime:
    """Schedules compiled kernels onto a micro-architecture.

    Parameters
    ----------
    microarch : MicroArchitecture, optional
        Attached control processor; a default is built to fit the first
        kernel when omitted.
    """

    def __init__(self, microarch=None):
        self.microarch = microarch

    def _cache_meta(self, circuit, shots, cbit_order, rng, sizes=None):
        """Cache fingerprint meta for one shot workload."""
        meta = {"shots": int(shots),
                "circuit": circuit_fingerprint(circuit),
                "cbits": list(cbit_order),
                "microarch": _microarch_meta(self.microarch),
                "rng": resilience.rng_fingerprint(rng)}
        if sizes is not None:
            meta["sizes"] = sizes
        return meta

    def _ensure_microarch(self, circuit):
        if self.microarch is None:
            self.microarch = MicroArchitecture(circuit.num_qubits)
        if circuit.num_qubits > self.microarch.num_qubits:
            raise QuantumError(
                "kernel needs %d qubits, attached chip has %d"
                % (circuit.num_qubits, self.microarch.num_qubits)
            )

    def run(self, circuit, shots=1024, rng=None, workers=None,
            chunk_size=None, timeout=None, retry=None, checkpoint=None,
            resume_from=None, checkpoint_every=1, cache=None):
        """Execute ``circuit`` for ``shots`` repetitions.

        The circuit must contain at least one measurement (otherwise shots
        are meaningless); returns a :class:`ShotResult`.

        ``workers``/``chunk_size`` fan the shot loop out over the
        parallel engine: shots are split into blocks (chunking depends
        only on ``shots`` and ``chunk_size``, never on the worker
        count), each block samples its own child generator spawned from
        ``rng``, and block histograms merge by exact integer addition --
        so the counts are bit-identical for every worker count.
        ``workers=1`` with ``chunk_size=None`` (and no resilience
        options) keeps the historical single-stream loop.

        ``timeout`` bounds each block (process path); ``retry`` re-runs
        failed blocks with their original streams;
        ``checkpoint``/``resume_from`` (paths) persist finished block
        histograms so an interrupted sweep resumes with its remaining
        blocks only (``checkpoint_every`` controls the flush cadence).

        ``cache`` (None / False / path /
        :class:`~repro.core.cache.ResultCache`) reuses shot histograms
        content-addressed by the full circuit (op list including matrix
        and permutation contents), micro-architecture knobs, shot count,
        and RNG fingerprint: the serial fast path caches the whole
        histogram (integer seeds only), the chunked path caches per shot
        block.  ``rng=None`` (fresh entropy) is never cached.
        """
        if shots < 1:
            raise QuantumError("shots must be positive")
        cbit_order = [op.cbit for op in circuit.measure_ops]
        if not cbit_order:
            raise QuantumError("kernel has no measurements; nothing to sample")
        self._ensure_microarch(circuit)
        workers = parallel.resolve_workers(workers)
        resilient = (timeout is not None or retry is not None
                     or checkpoint is not None or resume_from is not None)
        registry = telemetry.get_registry()
        with telemetry.span("quantum.runtime.run", shots=shots,
                            qubits=circuit.num_qubits) as run_span:
            start = time.perf_counter()
            if workers == 1 and chunk_size is None and not resilient:
                spec = None
                if result_cache.cacheable_seed(rng):
                    spec = result_cache.spec_for(
                        cache, "quantum-shots",
                        lambda: self._cache_meta(circuit, shots,
                                                 cbit_order, rng),
                        encode=_encode_block, decode=_decode_block)
                counts = chip_time = None
                if spec is not None:
                    hit, value = spec.lookup()
                    if hit:
                        counts, chip_time = value
                if counts is None:
                    rng = make_rng(rng)
                    program = assemble(circuit)
                    counts = {}
                    chip_time = 0.0
                    for result in self.microarch.execute_shots(
                            program, shots, rng=rng):
                        value = result.bits_as_int(cbit_order)
                        counts[value] = counts.get(value, 0) + 1
                        chip_time += result.elapsed_ns
                    if spec is not None:
                        spec.store((counts, chip_time))
            else:
                sizes = parallel.chunk_sizes(shots, chunk_size)
                ckpt = None
                if checkpoint is not None or resume_from is not None:
                    # Fingerprint the RNG before spawn_rngs advances it.
                    meta = {"shots": int(shots), "sizes": sizes,
                            "qubits": int(circuit.num_qubits),
                            "gates": circuit.gate_counts(),
                            "cbits": cbit_order,
                            "rng": resilience.rng_fingerprint(rng)}
                    ckpt = resilience.Checkpointer(
                        checkpoint if checkpoint is not None
                        else resume_from,
                        "quantum-shots", meta=meta, encode=_encode_block,
                        decode=_decode_block, every=checkpoint_every,
                        resume_from=resume_from)
                spec = result_cache.spec_for(
                    cache, "quantum-shots-chunk",
                    lambda: self._cache_meta(circuit, shots, cbit_order,
                                             rng, sizes=sizes),
                    encode=_encode_block, decode=_decode_block)
                rngs = spawn_rngs(rng, len(sizes))
                tasks = [(self.microarch, circuit, cbit_order, block,
                          block_rng)
                         for block, block_rng in zip(sizes, rngs)]
                blocks = parallel.ParallelMap(
                    workers=workers, timeout=timeout).map(
                    _run_shot_chunk, tasks, retry=retry,
                    validate=_block_is_sane, checkpoint=ckpt, cache=spec)
                counts = {}
                chip_time = 0.0
                for block_counts, block_time in blocks:
                    for value, count in block_counts.items():
                        counts[value] = counts.get(value, 0) + count
                    chip_time += block_time
            wall_time = time.perf_counter() - start
            run_span.set_attr("chip_time_ns", chip_time)
        if registry.enabled:
            registry.counter("quantum.runtime.runs").inc()
            registry.counter("quantum.runtime.shots").inc(shots)
            registry.counter("quantum.runtime.chip_time_ns").inc(chip_time)
            # gates executed on-chip, by mnemonic, over all shots
            gate_counts = circuit.gate_counts()
            for name, count in gate_counts.items():
                registry.counter("quantum.runtime.gates.%s" % name).inc(
                    count * shots)
            registry.histogram("quantum.runtime.shot_time_ns").observe(
                chip_time / shots)
            # statevector throughput: gates applied per host wall second
            profiling.record_throughput(
                "quantum.runtime.gates",
                sum(gate_counts.values()) * shots, wall_time)
        return ShotResult(counts, cbit_order, shots, chip_time, wall_time)
