"""Content-addressed result cache for repeated kernels.

The ROADMAP's north star is a system that serves *repeated* heavy
traffic "as fast as the hardware allows"; the accelerator literature the
paper builds on (Britt & Humble's HPC quantum-accelerator stack,
heterogeneous-datacenter runtimes) puts the answer in the runtime layer:
when the same kernel is dispatched twice, the second dispatch should be
a table lookup, not a re-simulation.  This module is that layer for the
library's expensive kernels -- statevector shot loops, oscillator ODE
sweeps, DMM ensembles:

* :func:`fingerprint` / :func:`cache_key` -- the *content address*: a
  workload is identified by its kind, its physics parameters and input
  content, its RNG spawn state
  (:func:`~repro.core.resilience.rng_fingerprint`), and a digest of the
  source code that computes that kind (:func:`code_version`),
  canonically JSON-serialized and hashed.  Two runs share a cache entry exactly
  when that fingerprint says they would produce bit-identical results.
  Bulky payloads enter the fingerprint as content hashes: arrays by
  their raw bytes (:func:`array_fingerprint`), anything else through
  one canonical JSON pass (:func:`digest`).
* :class:`ResultCache` -- an in-process LRU front (recently used
  entries answered from memory) over an atomic on-disk store (one
  JSON file per entry, written via rename, so concurrent runs never
  observe a torn entry).  Every stored entry carries its full
  fingerprint document; a lookup whose key matches but whose
  fingerprint does not (tampering, hash collision, stale directory)
  refuses reuse with a :class:`~repro.core.exceptions.CacheError`
  naming the offending path and both fingerprints.  An entry that
  cannot be read at all (truncated, garbled) or whose value its kind's
  ``decode`` rejects is renamed aside to ``<name>.corrupt`` and
  answered as a miss, so the caller recomputes and stores a fresh
  entry.
* :class:`CacheSpec` -- the call-site bundle (cache, kind, meta,
  encode/decode) that :meth:`repro.core.parallel.ParallelMap.map`
  consumes for chunk-level caching: a cached chunk skips dispatch
  entirely and its stored result fills the output slot bit-identically.
  Because finished chunks are stored as they complete, a cache
  directory is also a run's checkpoint: re-running a killed chunked
  call against it executes only the chunks it is missing.
* :func:`cached_call` -- the whole-call cache of an inline kernel call
  (:func:`repro.core.parallel.run_workload` routes every kernel entry
  point through it or through the chunk-level cache).

Cache invisibility
------------------
Caching must never change *what* a call returns -- only how fast.  The
contract (held by ``tests/core/test_cache.py``'s hypothesis suite):

* cache-on and cache-off runs of the same workload are bit-identical,
* a cold run (misses, then stores) and a warm run (hits) are
  bit-identical,
* cache keys depend only on the workload fingerprint -- never on the
  worker count -- so a run at ``workers=4`` hits the entries a
  ``workers=1`` run stored.

Fingerprints are lazy: call sites hand :func:`spec_for` their meta as
a zero-argument callable, which runs only once a cache has resolved, so
an uncached call hashes nothing.

Two rules keep the contract honest.  First, workloads whose RNG
argument cannot be fingerprinted deterministically (``rng=None`` means
fresh OS entropy) are *never* cached -- :func:`spec_for` returns None
for them -- so they can never be resumed either.  Second, kernel-level
(whole-call) caching only engages for integer-seed RNG arguments
(:func:`cacheable_seed`): skipping execution would leave a
caller-supplied generator un-advanced, visibly changing downstream
draws.  Chunk-level caching has no such restriction, because the
per-chunk generators are spawned (advancing the parent identically)
whether or not the chunks then execute.

Failures are never cached: a chunk that raised, timed out, or failed
validation re-executes on the next run, it is not replayed.

Telemetry: ``cache.hits`` / ``cache.misses`` / ``cache.stores`` /
``cache.bytes`` (bytes written to disk) / ``cache.evictions`` (LRU
drops from the memory tier) / ``cache.disk_evictions`` (LRU drops from
the disk tier when a byte budget is set) / ``cache.corrupt`` (unreadable
entries quarantined) / ``cache.store_errors`` (disk writes that failed;
the entry stays in memory), plus the spans ``cache.fingerprint`` (building a
workload's fingerprint), ``cache.lookup`` (its ``tier`` attribute says
which tier answered: ``memory``, ``disk``, or ``miss``) and
``cache.store``.  A cache is only ever an argument: the ``cache=``
keyword the kernel entry points accept (the CLI's ``--cache-dir``);
left at None, a call is uncached.  The disk tier is unbounded by
default; give it a byte budget with ``ResultCache(max_disk_bytes=)`` or
the ``REPRO_CACHE_DISK_BYTES`` environment variable (which also covers
the CLI's ``--cache-dir``) and the least-recently-used entries are
evicted once a store exceeds it.  See ``docs/caching.md``.
"""

import collections
import contextlib
import copy
import hashlib
import json
import os

import numpy as np

from . import telemetry
from .exceptions import CacheError
from .resilience import jsonable, rng_fingerprint

#: Format marker stored in (and required of) every cache entry.
CACHE_FORMAT = "repro-cache-v1"

#: Environment variable giving the disk tier a byte budget (integer
#: bytes; unset or empty means unbounded).
CACHE_DISK_BYTES_ENV = "REPRO_CACHE_DISK_BYTES"

#: Default capacity of the in-process LRU front (entries, not bytes).
DEFAULT_MAX_MEMORY_ENTRIES = 256


#: The ``repro`` package directory: the code every cache key covers.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Cache kinds by name prefix, and the package subdirectories besides
#: ``core/`` whose source computes them: the kind's paradigm, plus
#: ``serve/`` for the service's kinds, whose result documents it builds.
#: Kinds matching no prefix are keyed on the whole package.
_KIND_SOURCES = (("dmm-", ("memcomputing",)),
                 ("quantum-", ("quantum",)),
                 ("shor-", ("quantum",)),
                 ("oscillator-", ("oscillators",)),
                 ("serve.solve", ("memcomputing", "serve")),
                 ("serve.factor", ("quantum", "serve")),
                 ("serve.distance", ("oscillators", "serve")),
                 ("serve.detect", ("oscillators", "serve")))

#: Source digests by subdirectory tuple, computed once per process.
_code_digests = {}


def _source_dirs(kind):
    """The package subdirectories whose source decides ``kind``'s results
    (``("",)``, the whole package, for a kind with no paradigm)."""
    for prefix, subdirs in _KIND_SOURCES:
        if str(kind).startswith(prefix):
            return ("core",) + subdirs
    return ("",)


def _source_digest(subdirs):
    """SHA-256 over the sorted ``.py`` files under ``subdirs``."""
    from repro import __version__

    paths = []
    for subdir in subdirs:
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(_PACKAGE_DIR, subdir)):
            dirnames[:] = [name for name in dirnames
                           if name != "__pycache__"]
            paths.extend(os.path.join(dirpath, name)
                         for name in filenames if name.endswith(".py"))
    hasher = hashlib.sha256(__version__.encode("utf-8"))
    for path in sorted(paths):
        relative = os.path.relpath(path, _PACKAGE_DIR).replace(os.sep, "/")
        hasher.update(b"\0" + relative.encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            hasher.update(handle.read())
    return hasher.hexdigest()


def code_version(kind=None):
    """Digest of the source code that computes cache kind ``kind``.

    A cache entry written by one version of the kernels must not be
    served to another -- a bugfix in an integrator legitimately changes
    results -- so the code participates in the content address: a
    SHA-256 of the sorted source files of the kind's paradigm
    subpackage plus ``core/`` (editing the DMM dynamics misses ``dmm-*``
    entries but keeps ``quantum-*`` ones), or of the whole package for
    a kind with no paradigm (and for ``kind=None``).  Computed once per
    process.
    """
    subdirs = _source_dirs(kind)
    version = _code_digests.get(subdirs)
    if version is None:
        version = _code_digests[subdirs] = _source_digest(subdirs)
    return version


def digest(value):
    """Short stable hash of any JSON-able description.

    Used to keep bulky workload descriptions (a CNF formula's clause
    list, a DIMACS text) out of the fingerprint *document* while still
    letting them decide the content address.  One canonical
    ``json.dumps`` pass; a value JSON cannot encode hashes its ``repr``
    instead (the :func:`~repro.core.resilience.jsonable` fallback).
    Arrays belong in :func:`array_fingerprint`, which hashes raw bytes.
    """
    try:
        payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        payload = json.dumps(repr(value))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def array_fingerprint(array):
    """Content hash of a numpy array (dtype, shape, and bytes)."""
    array = np.ascontiguousarray(array)
    hasher = hashlib.sha256()
    hasher.update(str(array.dtype).encode("utf-8"))
    hasher.update(repr(array.shape).encode("utf-8"))
    hasher.update(array.tobytes())
    return hasher.hexdigest()


def formula_fingerprint(formula):
    """Content hash of a CNF formula (clauses are canonically ordered).

    :class:`~repro.core.cnf.Clause` already sorts its literals, so the
    digest is independent of construction order.
    """
    return digest([int(formula.num_variables),
                   [[list(clause.literals), clause.weight]
                    for clause in formula.clauses]])


def fingerprint(kind, meta):
    """The canonical workload-fingerprint document for ``(kind, meta)``.

    The kind and its JSON-able meta, plus the digest of the code that
    computes ``kind`` (:func:`code_version`).  Hash it with
    :func:`cache_key` to get the content address.
    """
    return {"format": CACHE_FORMAT,
            "kind": str(kind),
            "meta": jsonable(meta if meta is not None else {}),
            "code": code_version(kind)}


def cache_key(doc, index=None):
    """Content address of one entry: SHA-256 over the canonical document.

    ``index`` distinguishes the chunks of one workload (chunk-level
    caching); ``None`` addresses the whole-kernel result.
    """
    payload = json.dumps([doc, None if index is None else int(index)],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cacheable_seed(seed_or_rng):
    """True when kernel-level (whole-call) caching is safe for this RNG.

    Only integer seeds qualify: serving a cached whole-kernel result
    skips execution, and with a caller-supplied
    :class:`numpy.random.Generator` that skip would leave the
    generator's state un-advanced -- visibly different from the uncached
    run.  ``None`` (fresh entropy) is never reproducible.  Chunk-level
    caching is exempt from this restriction (the per-chunk spawn happens
    either way).
    """
    return isinstance(seed_or_rng, (int, np.integer)) \
        and not isinstance(seed_or_rng, bool)


class ResultCache:
    """LRU-fronted, content-addressed result store.

    Parameters
    ----------
    cache_dir : str or None
        Directory for the persistent tier (created on first store).
        ``None`` keeps the cache memory-only -- still useful for
        repeated kernels inside one process.
    max_memory_entries : int
        LRU capacity of the memory tier; the oldest entry is evicted
        (``cache.evictions``) when a store would exceed it.
    max_disk_bytes : int or None
        Byte budget for the disk tier; ``None`` (the default, also the
        CLI's) leaves it unbounded.  When a store pushes the tier past
        the budget, least-recently-used entry files (disk hits refresh
        their mtime) are deleted until it fits again
        (``cache.disk_evictions``).

    Notes
    -----
    Values are deep-copied on their way in and out of the memory tier,
    so a caller mutating a returned result cannot corrupt the cache.
    Disk entries are one JSON file per key, ``<key>.json``, holding the
    (possibly ``encode``-d) value -- always written to a scratch name,
    flushed to disk, and renamed, so a concurrent reader sees either
    the complete entry or none.  An entry that cannot be read back
    (truncated or garbled by a crash or a bad disk), or whose value the
    ``decode`` hook rejects, is renamed to ``<name>.corrupt``
    (``cache.corrupt``) and answered as a miss.
    """

    def __init__(self, cache_dir=None, max_memory_entries=None,
                 max_disk_bytes=None):
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        if max_memory_entries is None:
            max_memory_entries = DEFAULT_MAX_MEMORY_ENTRIES
        if int(max_memory_entries) < 0:
            raise CacheError("max_memory_entries must be >= 0, got %r"
                             % (max_memory_entries,))
        self.max_memory_entries = int(max_memory_entries)
        if max_disk_bytes is not None and int(max_disk_bytes) < 0:
            raise CacheError("max_disk_bytes must be >= 0 or None, got %r"
                             % (max_disk_bytes,))
        self.max_disk_bytes = None if max_disk_bytes is None \
            else int(max_disk_bytes)
        self._disk_used = None  # lazy incremental usage estimate
        self._memory = collections.OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.disk_evictions = 0

    # -- keying helpers ---------------------------------------------------

    def spec(self, kind, meta, encode=None, decode=None):
        """A :class:`CacheSpec` binding this cache to one workload."""
        return CacheSpec(self, kind, meta, encode=encode, decode=decode)

    def _path(self, key):
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, key + ".json")

    # -- lookup -----------------------------------------------------------

    def lookup(self, key, doc, decode=None):
        """``(True, value)`` on a hit, ``(False, None)`` on a miss.

        ``doc`` is the expected fingerprint document for ``key``; a disk
        entry whose stored fingerprint disagrees raises
        :class:`CacheError` naming the path and both fingerprints
        instead of silently serving a wrong result.  An unreadable disk
        entry, or one ``decode`` rejects, is quarantined and counts as a
        miss.
        """
        registry = telemetry.get_registry()
        with telemetry.span("cache.lookup") as lookup_span:
            if key in self._memory:
                self._memory.move_to_end(key)
                tier, value = "memory", self._memory[key]
            else:
                value, found = self._disk_lookup(key, doc, decode)
                tier = "disk" if found else "miss"
                if found:
                    self._remember(key, value)
            lookup_span.set_attr("tier", tier)
            if tier == "miss":
                self.misses += 1
                if registry.enabled:
                    registry.counter("cache.misses").inc()
                return False, None
            self.hits += 1
            if registry.enabled:
                registry.counter("cache.hits").inc()
            return True, copy.deepcopy(value)

    def _disk_lookup(self, key, doc, decode):
        path = self._path(key)
        if path is None or not os.path.exists(path):
            return None, False
        try:
            with open(path) as handle:
                document = json.load(handle)
            stored, value = document["fingerprint"], document["value"]
        except (OSError, ValueError, KeyError, TypeError):
            self._quarantine(path)
            return None, False
        self._check_fingerprint(path, stored, doc)
        if decode is not None:
            # A readable entry the codec cannot decode is damage too.
            try:
                value = decode(value)
            except (ValueError, KeyError, TypeError, IndexError):
                self._quarantine(path)
                return None, False
        self._touch(path)
        return value, True

    @staticmethod
    def _quarantine(path):
        """Move an unreadable entry aside so the next store replaces it."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:  # pragma: no cover -- concurrently moved or evicted
            return
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter("cache.corrupt").inc()

    @staticmethod
    def _touch(path):
        """Refresh an entry's mtime so disk-budget eviction is an LRU."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover -- concurrently evicted
            pass

    @staticmethod
    def _check_fingerprint(path, stored, expected):
        if jsonable(stored) != jsonable(expected):
            raise CacheError(
                "cache entry %r does not match this workload; refusing "
                "reuse: entry fingerprint %r != expected fingerprint %r "
                "(delete the file or point --cache-dir elsewhere)"
                % (path, stored, expected))

    # -- store ------------------------------------------------------------

    def store(self, key, doc, value, encode=None):
        """Record ``value`` under ``key`` in both tiers.

        The disk entry is the ``encode``-d value (default identity) in a
        JSON document alongside its fingerprint document.  A value that
        document cannot hold raises :class:`CacheError` and is stored in
        neither tier; a disk write that fails with ``OSError`` keeps the
        memory entry and counts ``cache.store_errors``.
        """
        with telemetry.span("cache.store"):
            self._store(key, doc, value, encode)

    def _store(self, key, doc, value, encode):
        registry = telemetry.get_registry()
        path = self._path(key)
        if path is not None:
            # Encode before touching either tier, so a value the codec
            # cannot encode leaves no memory entry behind.
            encoded = value if encode is None else encode(value)
            document = {"format": CACHE_FORMAT, "key": key,
                        "fingerprint": jsonable(doc), "value": encoded}
            try:
                payload = json.dumps(document)
            except (TypeError, ValueError) as error:
                raise CacheError(
                    "cache value for kind %r is not JSON-able (%s); pass "
                    "an encode hook" % (doc.get("kind"), error))
        self._remember(key, copy.deepcopy(value))
        self.stores += 1
        if registry.enabled:
            registry.counter("cache.stores").inc()
        if path is None:
            return
        # Scratch names carry the writer's pid: two processes storing
        # the same key concurrently must not share a scratch file, or
        # the slower one's rename races the faster one's commit.
        scratch = "%s.%d.tmp" % (path, os.getpid())
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            with open(scratch, "w") as handle:
                handle.write(payload)
                handle.write("\n")
                _sync(handle)
            os.replace(scratch, path)
        except OSError:
            # A disk that cannot take the entry degrades the store to
            # the memory tier; the answer itself is already computed.
            with contextlib.suppress(OSError):
                os.remove(scratch)
            if registry.enabled:
                registry.counter("cache.store_errors").inc()
            return
        written = len(payload) + 1
        if registry.enabled:
            registry.counter("cache.bytes").inc(written)
        self._enforce_disk_budget(written, path)

    def _disk_entries(self):
        """``(path, mtime, size)`` for every committed entry file."""
        entries = []
        try:
            names = os.listdir(self.cache_dir)
        except OSError:  # pragma: no cover -- directory vanished
            return entries
        for name in names:
            if not name.endswith(".json"):
                continue  # scratch files commit or vanish on their own
            path = os.path.join(self.cache_dir, name)
            try:
                stat = os.stat(path)
            except OSError:  # pragma: no cover -- concurrent eviction
                continue
            entries.append((path, stat.st_mtime, stat.st_size))
        return entries

    def _enforce_disk_budget(self, written, keep):
        """LRU-evict disk entry files once the byte budget is exceeded.

        Keeps an incremental usage estimate so the common under-budget
        store costs no directory scan; once the estimate crosses the
        budget the directory is rescanned (concurrent writers drift the
        estimate) and oldest-mtime entries are deleted until the tier
        fits.  The entry just written (``keep``) is never evicted, so a
        single entry larger than the whole budget still serves until
        the next store displaces it.
        """
        if self.max_disk_bytes is None or self.cache_dir is None:
            return
        if self._disk_used is None:
            self._disk_used = sum(size for _path, _mtime, size
                                  in self._disk_entries())
        else:
            self._disk_used += written
        if self._disk_used <= self.max_disk_bytes:
            return
        registry = telemetry.get_registry()
        entries = self._disk_entries()
        used = sum(size for _path, _mtime, size in entries)
        for path, _mtime, size in sorted(
                entries, key=lambda entry: (entry[1], entry[0])):
            if used <= self.max_disk_bytes:
                break
            if path == keep:
                continue
            try:
                os.remove(path)
            except OSError:  # pragma: no cover -- concurrent eviction
                continue
            used -= size
            self.disk_evictions += 1
            if registry.enabled:
                registry.counter("cache.disk_evictions").inc()
        self._disk_used = used

    def _remember(self, key, value):
        if self.max_memory_entries == 0:
            return
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.evictions += 1
            registry = telemetry.get_registry()
            if registry.enabled:
                registry.counter("cache.evictions").inc()

    # -- maintenance ------------------------------------------------------

    def clear_memory(self):
        """Drop the LRU tier (disk entries survive)."""
        self._memory.clear()

    def __len__(self):
        return len(self._memory)

    def __repr__(self):
        return ("ResultCache(dir=%r, memory=%d/%d, hits=%d, misses=%d)"
                % (self.cache_dir, len(self._memory),
                   self.max_memory_entries, self.hits, self.misses))


def _sync(handle):
    """Flush ``handle`` to the disk before it is renamed into place, so
    a crash cannot leave a committed name over unwritten data."""
    handle.flush()
    os.fsync(handle.fileno())


class CacheSpec:
    """One workload's binding of cache + fingerprint + codec.

    The object call sites hand to
    :meth:`repro.core.parallel.ParallelMap.map` (chunk-level) or use
    directly (kernel-level).  ``encode``/``decode`` translate one value
    to/from its JSON form.
    """

    __slots__ = ("cache", "kind", "doc", "encode", "decode")

    def __init__(self, cache, kind, meta, encode=None, decode=None):
        self.cache = cache
        self.kind = str(kind)
        self.doc = fingerprint(kind, meta)
        self.encode = encode
        self.decode = decode

    def key(self, index=None):
        """Content address of the whole kernel (or of chunk ``index``)."""
        return cache_key(self.doc, index)

    def lookup(self, index=None):
        """``(hit, value)`` for the whole kernel or one chunk."""
        return self.cache.lookup(self.key(index), self.doc,
                                 decode=self.decode)

    def store(self, value, index=None):
        """Record a freshly computed result."""
        self.cache.store(self.key(index), self.doc, value,
                         encode=self.encode)

    def __repr__(self):
        return "CacheSpec(kind=%s, cache=%r)" % (self.kind, self.cache)


# -- cache arguments -------------------------------------------------------

_dir_caches = {}


def _env_disk_budget():
    """The ``REPRO_CACHE_DISK_BYTES`` budget, or None when unset."""
    raw = os.environ.get(CACHE_DISK_BYTES_ENV, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise CacheError("%s must be an integer byte count, got %r"
                         % (CACHE_DISK_BYTES_ENV, raw))


def cache_for_dir(cache_dir, max_disk_bytes=None):
    """The shared :class:`ResultCache` for a directory.

    Memoized per absolute path so repeated kernels in one process share
    the memory tier instead of re-reading disk entries.  The disk byte
    budget comes from ``max_disk_bytes`` or, when that is None, the
    ``REPRO_CACHE_DISK_BYTES`` environment variable; it only applies
    when this call creates the cache (the first caller wins).
    """
    path = os.path.abspath(str(cache_dir))
    if path not in _dir_caches:
        if max_disk_bytes is None:
            max_disk_bytes = _env_disk_budget()
        _dir_caches[path] = ResultCache(cache_dir=path,
                                        max_disk_bytes=max_disk_bytes)
    return _dir_caches[path]


def resolve_cache(cache):
    """Coerce a kernel's ``cache`` argument into a ResultCache or None.

    ``None`` and ``False`` mean no cache, so library call sites stay
    uncached unless a caller or the CLI's ``--cache-dir`` opts in; a
    string or path selects the shared per-directory cache; an existing
    :class:`ResultCache` passes through.
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, (str, os.PathLike)):
        return cache_for_dir(cache)
    if isinstance(cache, ResultCache):
        return cache
    raise CacheError(
        "cache must be None, False, a directory path, or a ResultCache; "
        "got %r" % (cache,))


def _meta_is_deterministic(meta):
    """False when meta carries an un-fingerprintable RNG.

    ``rng_fingerprint(None)`` is None -- fresh OS entropy.  A workload
    seeded that way can never be replayed, so it must never share a
    cache entry with anything.
    """
    return not (isinstance(meta, dict) and "rng" in meta
                and meta["rng"] is None)


def spec_for(cache, kind, meta, encode=None, decode=None):
    """A :class:`CacheSpec` for this workload, or None when caching is off.

    ``meta`` is a zero-argument callable returning the workload's
    fingerprint meta.  It runs only once ``cache`` has resolved
    (:func:`resolve_cache`) to a live cache -- inside a
    ``cache.fingerprint`` span -- so an uncached call hashes nothing.
    Call sites whose meta fingerprints an RNG must call this before
    spawning child generators from it.  Non-deterministic workloads (an
    ``rng`` meta entry whose fingerprint is None) get no spec.
    """
    cache = resolve_cache(cache)
    if cache is None:
        return None
    with telemetry.span("cache.fingerprint", kind=str(kind)):
        meta = meta()
        if not _meta_is_deterministic(meta):
            return None
        return cache.spec(kind, meta, encode=encode, decode=decode)


#: The ``rng`` default of :func:`cached_call` and
#: :func:`repro.core.parallel.run_workload`: the kernel draws no random
#: numbers, so every call of it is deterministic and cacheable.
NO_RNG = object()


def seeded_meta(meta, rng, **extra):
    """``meta()`` plus ``extra`` and, for a kernel with an RNG argument,
    that argument's fingerprint under ``"rng"``.

    Call it before spawning child generators from ``rng`` -- spawning
    advances the spawn state the fingerprint records.
    """
    meta = dict(meta(), **extra)
    if rng is not NO_RNG:
        meta["rng"] = rng_fingerprint(rng)
    return meta


def cached_call(kind, compute, meta, rng=NO_RNG, cache=None, encode=None,
                decode=None):
    """``compute()``, or the stored result of an identical earlier call.

    The whole-call cache: one entry of ``kind`` keyed on
    :func:`seeded_meta`.  It engages only for kernels that draw no
    random numbers (``rng`` left at :data:`NO_RNG`) or take an integer
    seed (:func:`cacheable_seed`); ``cache`` is resolved by
    :func:`resolve_cache`.
    """
    spec = None
    if rng is NO_RNG or cacheable_seed(rng):
        spec = spec_for(cache, kind, lambda: seeded_meta(meta, rng),
                        encode=encode, decode=decode)
    if spec is not None:
        hit, value = spec.lookup()
        if hit:
            return value
    value = compute()
    if spec is not None:
        spec.store(value)
    return value
