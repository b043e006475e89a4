"""Shor's factoring algorithm (Section II.C's cryptography application).

"algorithms such as Shor's factorization have shown that a quantum
computer has the potential to break any RSA-based encryption" -- this
module implements the full pipeline:

1. classical reductions (even / prime-power / lucky-gcd shortcuts),
2. quantum order finding: phase estimation over the unitary
   ``U_a |x> = |a x mod N>`` built from permutation macros,
3. classical continued-fraction post-processing of the measured phase,
4. factor extraction from the recovered order.

The modular-multiplication unitaries are permutation macros (see
``StateVector.apply_permutation``): dense matrices for them would be
astronomically wasteful, and real proposals compile them from arithmetic
circuits anyway -- the *instruction stream* shape is preserved.
"""

import fractions
import math

import numpy as np

from ...core import cache as result_cache
from ...core import parallel, resilience, telemetry
from ...core.exceptions import QuantumError
from ...core.rngs import make_rng, spawn_rngs
from ..circuit import QuantumCircuit
from .qft import inverse_qft_circuit


def continued_fraction_convergents(numerator, denominator):
    """All convergents p/q of ``numerator/denominator`` as Fraction list."""
    convergents = []
    coefficients = []
    num, den = numerator, denominator
    while den:
        quotient = num // den
        coefficients.append(quotient)
        num, den = den, num - quotient * den
        frac = fractions.Fraction(0)
        for coefficient in reversed(coefficients):
            frac = fractions.Fraction(1, 1) / frac if frac else fractions.Fraction(0)
            frac = coefficient + frac
        convergents.append(fractions.Fraction(frac))
    return convergents


def _modmul_permutation(multiplier, modulus, num_bits):
    """Permutation table for ``x -> multiplier * x mod modulus``.

    States ``>= modulus`` (invalid register values) are left as a shifted
    identity so the table remains a proper permutation.
    """
    size = 2 ** num_bits
    table = np.arange(size, dtype=np.int64)
    for x in range(modulus):
        table[x] = (multiplier * x) % modulus
    # ensure bijectivity: values >= modulus map to themselves (identity),
    # which they already do; the sub-table on [0, modulus) is a bijection
    # because gcd(multiplier, modulus) == 1.
    return table


def order_finding_circuit(a, modulus, num_count_qubits=None):
    """Phase-estimation circuit for the order of ``a`` modulo ``modulus``.

    Layout: qubits ``[0, t)`` are the counting register; qubits
    ``[t, t + n)`` are the work register initialized to ``|1>``.
    Returns ``(circuit, t, n)``.
    """
    if math.gcd(a, modulus) != 1:
        raise QuantumError("a=%d shares a factor with N=%d" % (a, modulus))
    n = max(1, (modulus - 1).bit_length())
    t = num_count_qubits if num_count_qubits is not None else 2 * n
    circuit = QuantumCircuit(t + n, name="order_finding(a=%d,N=%d)" % (a, modulus))
    # work register |1>
    circuit.x(t)
    # superpose the counting register
    for q in range(t):
        circuit.h(q)
    # controlled U^{2^k}: permutation macro controlled on counting qubit k.
    work = list(range(t, t + n))
    for k in range(t):
        power = pow(a, 2 ** k, modulus)
        table = _modmul_permutation(power, modulus, n)
        # controlled permutation over [count_k] + work: when the control
        # bit (local LSB) is 0 identity, when 1 apply the table.
        size = 2 ** (n + 1)
        controlled = np.arange(size, dtype=np.int64)
        ones = np.arange(1, size, 2)  # local states with control bit set
        controlled[ones] = table[(ones - 1) // 2] * 2 + 1
        circuit.permutation(controlled, [k] + work,
                            name="c-modmul(%d^%d)" % (a, 2 ** k))
    # inverse QFT on the counting register
    iqft = inverse_qft_circuit(t)
    for op in iqft.ops:
        circuit.append(op)
    for q in range(t):
        circuit.measure(q, "c%d" % q)
    return circuit, t, n


def _order_from_measurement(a, modulus, measured, t):
    """Continued-fraction post-processing of one phase reading."""
    if measured == 0:
        return None
    for convergent in continued_fraction_convergents(measured, 2 ** t):
        r = convergent.denominator
        if r == 0 or r >= modulus:
            continue
        if pow(a, r, modulus) == 1:
            return r
    return None


def _order_attempt(payload):
    """Worker entry point: one phase-estimation attempt for ``a mod N``."""
    a, modulus, rng = payload
    telemetry.counter("quantum.shor.order_finding_attempts").inc()
    with telemetry.span("quantum.shor.order_finding", a=a, modulus=modulus):
        circuit, t, _n = order_finding_circuit(a, modulus)
        _state, cbits = circuit.run(rng=rng)
        measured = 0
        for q in range(t):
            measured |= cbits["c%d" % q] << q
    return measured, t


def _reading_is_sane(value):
    """Validate hook: a phase reading is a pair of non-negative ints."""
    measured, t = value
    return (isinstance(measured, int) and isinstance(t, int)
            and measured >= 0 and t > 0)


def _encode_reading(value):
    return [int(value[0]), int(value[1])]


def _decode_reading(doc):
    return int(doc[0]), int(doc[1])


def find_order(a, modulus, rng=None, max_attempts=10, runner=None,
               workers=None, timeout=None, retry=None, checkpoint=None,
               resume_from=None, checkpoint_every=1, cache=None):
    """Quantum order finding with classical post-processing.

    ``runner(circuit) -> int`` executes the circuit and returns the
    measured counting-register value; the default samples the library's
    reference simulator once.  Returns the order ``r`` or ``None`` after
    ``max_attempts`` failed phase readings.

    With ``workers > 1`` (and no custom ``runner``), the attempts run
    concurrently on the parallel engine, each with its own child
    generator spawned from ``rng``; phase readings are post-processed in
    attempt order and the first usable order wins, so the result is a
    deterministic function of the seed alone, whatever the worker count.
    ``timeout``/``retry`` bound and re-dispatch individual attempts;
    ``checkpoint`` (a path) persists finished phase readings.  The
    checkpoint is *rolling*: its metadata pins ``(a, modulus, RNG
    state)``, and a run for a different base simply restarts the file
    -- which lets :func:`shor_factor` thread one checkpoint path
    through every base it tries.  ``cache`` (None / False / path /
    :class:`~repro.core.cache.ResultCache`) reuses per-attempt phase
    readings on the parallel branch, content-addressed by ``(a,
    modulus, max_attempts, RNG fingerprint)``; the serial branch shares
    one mutable generator across attempts and is never cached.
    """
    workers = parallel.resolve_workers(workers)
    resilient = (timeout is not None or retry is not None
                 or checkpoint is not None or resume_from is not None)
    if runner is None and (parallel.wants_fanout(workers) or resilient):
        # Fingerprint the RNG before spawn_rngs advances it.
        meta = {"a": int(a), "modulus": int(modulus),
                "max_attempts": int(max_attempts),
                "rng": resilience.rng_fingerprint(rng)}
        ckpt = None
        if checkpoint is not None or resume_from is not None:
            ckpt = resilience.Checkpointer(
                checkpoint if checkpoint is not None else resume_from,
                "shor-order", meta=meta, encode=_encode_reading,
                decode=_decode_reading, every=checkpoint_every,
                resume_from=resume_from, restart_on_mismatch=True)
        spec = result_cache.spec_for(cache, "shor-order", lambda: meta,
                                     encode=_encode_reading,
                                     decode=_decode_reading)
        rngs = spawn_rngs(rng, max_attempts)
        tasks = [(a, modulus, attempt_rng) for attempt_rng in rngs]
        readings = parallel.ParallelMap(workers=workers,
                                        timeout=timeout).map(
            _order_attempt, tasks, retry=retry, validate=_reading_is_sane,
            checkpoint=ckpt, cache=spec)
        for measured, t in readings:
            r = _order_from_measurement(a, modulus, measured, t)
            if r is not None:
                return r
        return None
    rng = make_rng(rng)

    def default_runner(circuit, t):
        _state, cbits = circuit.run(rng=rng)
        value = 0
        for q in range(t):
            value |= cbits["c%d" % q] << q
        return value

    for _ in range(max_attempts):
        telemetry.counter("quantum.shor.order_finding_attempts").inc()
        with telemetry.span("quantum.shor.order_finding", a=a,
                            modulus=modulus):
            circuit, t, _n = order_finding_circuit(a, modulus)
            if runner is not None:
                measured = runner(circuit)
            else:
                measured = default_runner(circuit, t)
        r = _order_from_measurement(a, modulus, measured, t)
        if r is not None:
            return r
    return None


class ShorResult:
    """Outcome of a full factoring run.

    Attributes
    ----------
    n : int
        The number factored.
    factors : tuple or None
        Non-trivial factor pair, or None on failure.
    method : str
        "classical-shortcut" or "quantum-order-finding".
    attempts : int
        Number of random bases tried.
    orders_found : list
        The (a, r) pairs recovered along the way.
    """

    def __init__(self, n, factors, method, attempts, orders_found):
        self.n = n
        self.factors = factors
        self.method = method
        self.attempts = attempts
        self.orders_found = list(orders_found)

    @property
    def succeeded(self):
        """True when a non-trivial factorization was produced."""
        return self.factors is not None

    def __repr__(self):
        return "ShorResult(n=%d, factors=%r, method=%s)" % (
            self.n, self.factors, self.method)


def _encode_shor_result(result):
    return {"n": int(result.n),
            "factors": None if result.factors is None
            else [int(factor) for factor in result.factors],
            "method": str(result.method),
            "attempts": int(result.attempts),
            "orders_found": [[int(a), int(r)]
                             for a, r in result.orders_found]}


def _decode_shor_result(doc):
    factors = None if doc["factors"] is None else tuple(doc["factors"])
    return ShorResult(doc["n"], factors, doc["method"], doc["attempts"],
                      [tuple(pair) for pair in doc["orders_found"]])


def _perfect_power(n):
    """Return (base, exponent) when n = base**exponent with exponent > 1."""
    for exponent in range(2, n.bit_length() + 1):
        base = round(n ** (1.0 / exponent))
        for candidate in (base - 1, base, base + 1):
            if candidate > 1 and candidate ** exponent == n:
                return candidate, exponent
    return None


def shor_factor(n, rng=None, max_base_attempts=20, workers=None,
                timeout=None, retry=None, checkpoint=None,
                checkpoint_every=1, cache=None):
    """Factor ``n`` via Shor's algorithm; returns a :class:`ShorResult`.

    Classical shortcuts handle even numbers and perfect powers; otherwise
    random bases are tried through quantum order finding until an even
    order with ``a^{r/2} != -1 (mod n)`` yields factors.  ``workers``,
    ``timeout``, ``retry``, and ``checkpoint`` forward to
    :func:`find_order` (deterministic given the seed); the checkpoint
    path is shared by every base as a rolling file -- re-running after a
    kill with the same seed resumes the interrupted base's remaining
    attempts.  ``cache`` (None / False / path /
    :class:`~repro.core.cache.ResultCache`) forwards to
    :func:`find_order` and additionally caches the whole
    :class:`ShorResult` for integer seeds, so a warm repeat of a seeded
    factorization skips every circuit execution.
    """
    if n < 4:
        raise QuantumError("n must be a composite >= 4")
    registry = telemetry.get_registry()
    if registry.enabled:
        registry.counter("quantum.shor.factorizations").inc()
        with telemetry.span("quantum.shor.factor", n=n) as factor_span:
            result = _shor_factor(n, rng, max_base_attempts, workers,
                                  timeout, retry, checkpoint,
                                  checkpoint_every, cache)
            factor_span.set_attr("method", result.method)
            factor_span.set_attr("succeeded", result.succeeded)
        return result
    return _shor_factor(n, rng, max_base_attempts, workers, timeout, retry,
                        checkpoint, checkpoint_every, cache)


def _shor_factor(n, rng, max_base_attempts, workers=None, timeout=None,
                 retry=None, checkpoint=None, checkpoint_every=1,
                 cache=None):
    spec = None
    if result_cache.cacheable_seed(rng):
        # find_order picks its serial or parallel branch from the
        # worker/resilience arguments, and the two branches draw
        # different streams -- the branch is part of the fingerprint.
        resilient = (timeout is not None or retry is not None
                     or checkpoint is not None)
        spec = result_cache.spec_for(
            cache, "shor-factor",
            lambda: {"n": int(n),
                     "max_base_attempts": int(max_base_attempts),
                     "parallel": parallel.wants_fanout(workers) or resilient,
                     "rng": resilience.rng_fingerprint(rng)},
            encode=_encode_shor_result, decode=_decode_shor_result)
    if spec is not None:
        hit, cached = spec.lookup()
        if hit:
            return cached
    result = _shor_factor_compute(n, rng, max_base_attempts, workers,
                                  timeout, retry, checkpoint,
                                  checkpoint_every, cache)
    if spec is not None:
        spec.store(result)
    return result


def _shor_factor_compute(n, rng, max_base_attempts, workers, timeout,
                         retry, checkpoint, checkpoint_every, cache):
    if n % 2 == 0:
        return ShorResult(n, (2, n // 2), "classical-shortcut", 0, [])
    power = _perfect_power(n)
    if power is not None:
        base, exponent = power
        return ShorResult(n, (base, n // base), "classical-shortcut", 0, [])
    rng = make_rng(rng)
    orders = []
    for attempt in range(1, max_base_attempts + 1):
        a = int(rng.integers(2, n - 1))
        shared = math.gcd(a, n)
        if shared > 1:
            return ShorResult(n, (shared, n // shared),
                              "classical-shortcut", attempt, orders)
        r = find_order(a, n, rng=rng, workers=workers, timeout=timeout,
                       retry=retry, checkpoint=checkpoint,
                       checkpoint_every=checkpoint_every, cache=cache)
        if r is None:
            continue
        orders.append((a, r))
        if r % 2 != 0:
            continue
        half_power = pow(a, r // 2, n)
        if half_power == n - 1:
            continue
        p = math.gcd(half_power - 1, n)
        q = math.gcd(half_power + 1, n)
        for factor in (p, q):
            if 1 < factor < n:
                return ShorResult(n, (factor, n // factor),
                                  "quantum-order-finding", attempt, orders)
    return ShorResult(n, None, "quantum-order-finding",
                      max_base_attempts, orders)
