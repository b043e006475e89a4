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
from ...core import parallel, telemetry
from ...core.exceptions import QuantumError
from ...core.rngs import make_rng
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


def _require_coprime(a, modulus):
    if math.gcd(a, modulus) != 1:
        raise QuantumError("a=%d shares a factor with N=%d" % (a, modulus))


def order_finding_circuit(a, modulus, num_count_qubits=None):
    """Phase-estimation circuit for the order of ``a`` modulo ``modulus``.

    Layout: qubits ``[0, t)`` are the counting register; qubits
    ``[t, t + n)`` are the work register initialized to ``|1>``.
    Returns ``(circuit, t, n)``.
    """
    _require_coprime(a, modulus)
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


def _first_order(a, modulus, readings):
    """Merge: the first usable order in attempt order, or None."""
    for measured, t in readings:
        r = _order_from_measurement(a, modulus, measured, t)
        if r is not None:
            return r
    return None


def _order_settled(a, modulus, readings):
    """Early stop: the newest reading is usable or permanently failed.

    Called once per prefix length, so the first true is the prefix
    :func:`_first_order` reads no further than.
    """
    last = readings[-1]
    return isinstance(last, parallel.TaskFailure) \
        or _order_from_measurement(a, modulus, *last) is not None


def find_order(a, modulus, rng=None, max_attempts=10, workers=None,
               timeout=None, retry=None, cache=None):
    """Quantum order finding with classical post-processing.

    Each attempt samples the library's reference simulator once and
    post-processes the measured counting-register value.  Returns the
    order ``r`` or ``None`` after ``max_attempts`` failed phase readings.

    A chunked call (``workers > 1``, ``timeout`` or ``retry`` set, see
    :func:`repro.core.parallel.is_chunked`) runs the attempts on the
    parallel engine, one attempt per chunk, each with its own child
    generator spawned from ``rng`` (all ``max_attempts`` streams are
    spawned up front); attempts are dispatched in order, in waves of at
    most the worker count, and none is dispatched once a finished
    prefix holds a usable reading or a permanent failure.  The first
    usable order in attempt order wins, so the result is a
    deterministic function of the seed alone, whatever the worker
    count.  ``timeout``/``retry`` bound and re-dispatch individual
    attempts.  ``cache`` (None / False / path /
    :class:`~repro.core.cache.ResultCache`) stores each finished phase
    reading of that branch, content-addressed by ``(a, modulus,
    max_attempts, RNG fingerprint)``, so a killed run re-run against the
    same directory repeats only its missing attempts.  Any other call
    runs the attempts in sequence on one shared generator, stopping at
    the first usable order; that branch is never cached.  A base that
    shares a factor with ``modulus`` raises :class:`QuantumError` on
    either branch before any attempt runs.
    """
    _require_coprime(a, modulus)
    if parallel.is_chunked(workers, timeout=timeout, retry=retry):
        return parallel.run_workload(
            "shor-order", _order_attempt,
            lambda _low, _high, stream: (a, modulus, stream),
            max_attempts, lambda readings: _first_order(a, modulus, readings),
            lambda: {"a": int(a), "modulus": int(modulus),
                     "max_attempts": int(max_attempts)},
            rng=rng, encode=_encode_reading, decode=_decode_reading,
            validate=_reading_is_sane, workers=workers, chunk_size=1,
            timeout=timeout, retry=retry, cache=cache,
            stop=lambda readings: _order_settled(a, modulus, readings))
    rng = make_rng(rng)
    for _ in range(max_attempts):
        measured, t = _order_attempt((a, modulus, rng))
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
                timeout=None, retry=None, cache=None):
    """Factor ``n`` via Shor's algorithm; returns a :class:`ShorResult`.

    Classical shortcuts handle even numbers and perfect powers; otherwise
    random bases are tried through quantum order finding until an even
    order with ``a^{r/2} != -1 (mod n)`` yields factors.  ``workers``,
    ``timeout``, and ``retry`` forward to :func:`find_order`
    (deterministic given the seed).  ``cache`` (None / False / path /
    :class:`~repro.core.cache.ResultCache`) forwards to
    :func:`find_order` -- so a killed chunked factorization re-run with
    the same seed and directory resumes the interrupted base's remaining
    attempts -- and additionally caches the whole :class:`ShorResult`
    for integer seeds, so a warm repeat of a seeded factorization skips
    every circuit execution.
    """
    if n < 4:
        raise QuantumError("n must be a composite >= 4")
    registry = telemetry.get_registry()
    if registry.enabled:
        registry.counter("quantum.shor.factorizations").inc()
        with telemetry.span("quantum.shor.factor", n=n) as factor_span:
            result = _shor_factor(n, rng, max_base_attempts, workers,
                                  timeout, retry, cache)
            factor_span.set_attr("method", result.method)
            factor_span.set_attr("succeeded", result.succeeded)
        return result
    return _shor_factor(n, rng, max_base_attempts, workers, timeout, retry,
                        cache)


def _shor_factor(n, rng, max_base_attempts, workers, timeout, retry,
                 cache):
    # find_order's chunked and sequential branches draw different
    # streams, so the branch is part of the fingerprint.
    return result_cache.cached_call(
        "shor-factor",
        lambda: _shor_factor_compute(n, rng, max_base_attempts, workers,
                                     timeout, retry, cache),
        lambda: {"n": int(n), "max_base_attempts": int(max_base_attempts),
                 "parallel": parallel.is_chunked(workers, timeout=timeout,
                                                 retry=retry)},
        rng=rng, cache=cache, encode=_encode_shor_result,
        decode=_decode_shor_result)


def _shor_factor_compute(n, rng, max_base_attempts, workers, timeout,
                         retry, cache):
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
                       retry=retry, cache=cache)
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
