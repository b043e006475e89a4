"""Seeded input generation for the four workloads.

Every input the program sees is made here from the run's ``--seed``:
the same seed gives byte-identical inputs, another seed gives different
inputs with the same sizes and the same kind mix (the kind schedule is
a seeded permutation of fixed blocks, never i.i.d. draws).  An op is a
dict ``{"id", "kind", "params"}``; serve kinds (distance, detect, solve,
factor) carry exactly the JSON ``params`` of a ``POST /v1/jobs``
request, library kinds may carry numpy arrays.
"""

import hashlib
import json
import math

import numpy as np

from repro.core.sat_instances import planted_ksat

#: Request mix of the serve workloads, per block of 80.  No request log
#: exists, so the mix is an assumption; it follows the shape the
#: workloads are for.  Cheap kinds (distance, small detect) are most
#: requests, so the p50 is per-request overhead, and a minority of small
#: solve/factor jobs exercises the other runners.  Through serve a
#: factor request runs all ten order-finding attempts, the server time
#: of about fifty distance requests, so it is the rarest kind: more
#: would turn the workload into a measure of Shor's order finding.
SERVE_BLOCK = ("distance",) * 57 + ("detect",) * 18 + ("solve",) * 4 \
    + ("factor",)

#: Call mix of library-small, per block of 10.  No usage data exists, so
#: the mix is an assumption: every wrapped entry runs, and measure_pairs
#: on 64 pairs, the entry whose own overhead most dwarfs its kernel, is
#: the most frequent call.
LIBRARY_SMALL_BLOCK = ("distance",) * 4 + ("vmm",) * 2 + ("detect",) \
    + ("runtime",) * 2 + ("ensemble",)

#: Distinct requests generated for serve-unique: more than two
#: connections complete in a minute on a 2-vCPU VM.  A run that
#: exhausts the pool stops early and says so.
UNIQUE_POOL = 12_000

#: serve-repeat's working set: larger than the result store's 256-entry
#: memory front, so Zipf-drawn hits come from both memory and disk.  The
#: size and the exponent are assumptions (no request log exists); 1.0 is
#: the classic Zipf skew.
REPEAT_WORKING_SET = 400
REPEAT_DRAWS = 40_000
ZIPF_EXPONENT = 1.0

#: Distinct inputs per kind cycled by library-small.  Nothing caches by
#: default, so cycling a pool costs the same as fresh inputs.
LIBRARY_SMALL_POOL = 32
LIBRARY_SMALL_OPS = 50_000

#: DMM instances are planted 3-SAT at clause ratio 2.5-3: solve time at
#: ratio 4 varies several-fold between instances, which would make
#: every DMM figure a draw of the seed rather than of the code.
SMALL_PAIRS = 64
SERVE_IMAGE = 10
SOLVE_VARIABLES = 10
SOLVE_CLAUSES = 30
FACTOR_N = 15
RUNTIME_SMALL = {"qubits": 3, "layers": 2, "shots": 32}
ENSEMBLE_SMALL = {"variables": 20, "clauses": 50, "batch": 4}
VMM_SMALL = {"n_in": 32, "n_out": 32, "batch": 8}

BATCH_PAIRS = 200_000
BATCH_IMAGE = 48
BATCH_ENSEMBLES = 4
ENSEMBLE_BATCH = {"variables": 200, "clauses": 500, "batch": 8}
RUNTIME_BATCH = {"qubits": 12, "layers": 4, "shots": 1000}
BATCH_FACTORS = 4
VMM_BATCH = {"n_in": 128, "n_out": 128, "batch": 16_384}
VMM_VARIABILITY = 0.02


def _rng(seed, *stream):
    """An independent generator per (seed, stream) pair."""
    return np.random.default_rng([int(seed)] + [int(s) for s in stream])


def schedule(seed, block, count, stream=0):
    """``count`` kinds: consecutive seeded permutations of ``block``."""
    rng = _rng(seed, 1000 + stream)
    kinds = []
    while len(kinds) < count:
        kinds.extend(block[index] for index in rng.permutation(len(block)))
    return kinds[:count]


def quantum_seed(n, start):
    """The first seed from ``16 * start`` on whose factorization of ``n``
    runs order finding.

    ``shor_factor`` draws its first base from its seed; a base sharing a
    factor with n settles the factorization classically and no circuit
    runs.  Seeds are kept to those that run circuits, so every factor op
    costs the same kind of work.
    """
    seed = 16 * start
    while True:
        base = int(np.random.default_rng(seed).integers(2, n - 1))
        if math.gcd(base, n) == 1:
            return seed
        seed += 1


def fast_image(rng, size):
    """A bright rectangle on a textured background (integer pixels)."""
    image = rng.integers(20, 60, size=(size, size))
    top, left = (int(v) for v in rng.integers(1, size // 2, size=2))
    bottom = int(rng.integers(top + 3, size))
    right = int(rng.integers(left + 3, size))
    image[top:bottom, left:right] = int(rng.integers(160, 220))
    return image


def serve_params(kind, rng, uid):
    """JSON params of one distinct serve request of ``kind``."""
    if kind == "distance":
        return {"pairs": rng.integers(0, 256, size=(SMALL_PAIRS, 2)).tolist(),
                "mode": "behavioral"}
    if kind == "detect":
        return {"image": fast_image(rng, SERVE_IMAGE).tolist(),
                "threshold": 30.0, "n": 9}
    if kind == "solve":
        formula = planted_ksat(SOLVE_VARIABLES, SOLVE_CLAUSES, rng=rng)
        return {"dimacs": formula.to_dimacs(), "attempts": 2,
                "max_steps": 100_000, "seed": uid}
    if kind == "factor":
        return {"n": FACTOR_N, "seed": quantum_seed(FACTOR_N, uid)}
    raise ValueError("not a serve kind: %r" % kind)


def serve_ops(seed, count, stream=0):
    """``count`` distinct serve requests in the fixed serve mix."""
    kinds = schedule(seed, SERVE_BLOCK, count, stream)
    return [{"id": index, "kind": kind,
             "params": serve_params(kind, _rng(seed, stream, index),
                                    uid=index + 1)}
            for index, kind in enumerate(kinds)]


def zipf_draws(seed, population, count, exponent=ZIPF_EXPONENT):
    """``count`` indices into ``population`` with Zipf-skewed ranks."""
    rng = _rng(seed, 2000)
    weights = 1.0 / np.arange(1, population + 1) ** exponent
    rank_to_index = rng.permutation(population)
    ranks = rng.choice(population, size=count, p=weights / weights.sum())
    return rank_to_index[ranks]


def _runtime_params(rng, spec):
    return {"qubits": spec["qubits"], "layers": spec["layers"],
            "angles": rng.uniform(0.0, np.pi,
                                  size=(spec["layers"], spec["qubits"])),
            "shots": spec["shots"],
            "seed": int(rng.integers(0, 2**31))}


def _ensemble_params(rng, spec):
    formula = planted_ksat(spec["variables"], spec["clauses"], rng=rng)
    return {"dimacs": formula.to_dimacs(), "batch": spec["batch"],
            "seed": int(rng.integers(0, 2**31))}


def _vmm_params(rng, spec):
    return {"weights": rng.normal(size=(spec["n_in"], spec["n_out"])),
            "vectors": rng.normal(size=(spec["batch"], spec["n_in"])),
            "variability": VMM_VARIABILITY,
            "seed": int(rng.integers(0, 2**31))}


def library_params(kind, rng, batch):
    """Params of one library call; ``batch`` picks the large sizes."""
    if kind == "distance":
        count = BATCH_PAIRS if batch else SMALL_PAIRS
        return {"pairs": rng.integers(0, 256, size=(count, 2)).astype(float)}
    if kind == "detect":
        size = BATCH_IMAGE if batch else SERVE_IMAGE
        return {"image": fast_image(rng, size).astype(float),
                "threshold": 30.0, "n": 9}
    if kind == "runtime":
        return _runtime_params(rng, RUNTIME_BATCH if batch else RUNTIME_SMALL)
    if kind == "ensemble":
        return _ensemble_params(rng,
                                ENSEMBLE_BATCH if batch else ENSEMBLE_SMALL)
    if kind == "vmm":
        return _vmm_params(rng, VMM_BATCH if batch else VMM_SMALL)
    if kind == "factor":
        return {"n": FACTOR_N,
                "seed": quantum_seed(FACTOR_N, int(rng.integers(1, 2**27)))}
    raise ValueError("not a library kind: %r" % kind)


def library_small_pool(seed):
    """``LIBRARY_SMALL_POOL`` distinct inputs of every library-small kind."""
    ops = []
    for kind in sorted(set(LIBRARY_SMALL_BLOCK)):
        for index in range(LIBRARY_SMALL_POOL):
            ops.append({"id": len(ops), "kind": kind,
                        "params": library_params(
                            kind, _rng(seed, 3000, len(ops)), batch=False)})
    return ops


def library_small_schedule(seed, pool, count=LIBRARY_SMALL_OPS):
    """Pool indices of library-small's call stream, in the fixed mix."""
    by_kind = {}
    for index, op in enumerate(pool):
        by_kind.setdefault(op["kind"], []).append(index)
    seen = {}
    order = []
    for kind in schedule(seed, LIBRARY_SMALL_BLOCK, count, stream=1):
        position = seen.get(kind, 0)
        seen[kind] = position + 1
        members = by_kind[kind]
        order.append(members[position % len(members)])
    return order


def library_batch_round(seed):
    """One round of large calls, one paradigm after another."""
    kinds = ("ensemble",) * BATCH_ENSEMBLES + ("runtime",) \
        + ("factor",) * BATCH_FACTORS + ("distance", "detect", "vmm")
    return [{"id": index, "kind": kind,
             "params": library_params(kind, _rng(seed, 4000, index),
                                      batch=True)}
            for index, kind in enumerate(kinds)]


def input_digest(ops):
    """SHA-256 over every op's kind and params, arrays by raw bytes."""
    hasher = hashlib.sha256()
    for op in ops:
        hasher.update(op["kind"].encode())
        scalars = {}
        for name in sorted(op["params"]):
            value = op["params"][name]
            if isinstance(value, np.ndarray):
                hasher.update(("%s:%s:%r" % (name, value.dtype,
                                             value.shape)).encode())
                hasher.update(np.ascontiguousarray(value).tobytes())
            else:
                scalars[name] = value
        hasher.update(json.dumps(scalars, sort_keys=True).encode())
    return hasher.hexdigest()


def shape_summary(ops):
    """Kind counts and per-kind input sizes: what must match across seeds."""
    summary = {}
    for op in ops:
        entry = summary.setdefault(op["kind"], {"count": 0, "sizes": set()})
        entry["count"] += 1
        sizes = []
        for name in sorted(op["params"]):
            value = op["params"][name]
            if isinstance(value, np.ndarray):
                sizes.append((name, value.shape))
            elif isinstance(value, list):
                sizes.append((name, np.shape(value)))
            elif name in ("attempts", "batch", "shots", "qubits", "layers",
                          "max_steps", "n", "threshold", "mode"):
                sizes.append((name, value))
        entry["sizes"].add(tuple(sizes))
    return summary
