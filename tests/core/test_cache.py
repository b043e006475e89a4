"""The content-addressed result cache and its invisibility contract.

Three layers of coverage:

* unit tests for :mod:`repro.core.cache` itself -- keying, the LRU
  memory tier, the atomic disk tier, fingerprint-mismatch refusal,
  telemetry counters, and the active-cache plumbing;
* hypothesis property tests for the *cache-invisibility contract*:
  over random workloads (and under injected faults), cache-on vs
  cache-off runs and cold vs warm runs are bit-identical, telemetry
  keeps its result shape, and cache keys never depend on the worker
  count;
* interplay tests with the resilience layer: failed chunks are never
  cached, so a re-run re-executes exactly the chunks the cache is
  missing.
"""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import cache as result_cache
from repro.core import telemetry
from repro.core.cache import (
    CacheSpec,
    ResultCache,
    array_fingerprint,
    cache_key,
    cacheable_seed,
    fingerprint,
    formula_fingerprint,
    spec_for,
)
from repro.core.exceptions import CacheError
from repro.core.parallel import ParallelMap
from repro.core.sat_instances import planted_ksat
from repro.oscillators.distance import OscillatorDistanceUnit


def _square(x):
    return x * x


def _hammer_store(cache_dir):
    """Child-process body for the same-key concurrent-store race test."""
    cache = ResultCache(cache_dir=cache_dir, max_memory_entries=0)
    spec = cache.spec("race", {"n": 7})
    for _ in range(50):
        spec.store([1.5, 2.5, 3.5], index=0)


def _rng_sum(payload):
    size, rng = payload
    return [float(v) for v in rng.normal(size=size)]


#: Kinds spanning every source-digest scope: memcomputing, quantum,
#: oscillators, the service's kinds, and a kind with no paradigm.
CODE_KINDS = ("dmm-ensemble", "dmm-ensemble-chunk", "dmm-portfolio",
              "serve.solve", "quantum-shots", "shor-order", "serve.factor",
              "oscillator-distance", "serve.distance", "demo")

_KEYS_SCRIPT = """
import json, sys
from repro.core.cache import cache_key, fingerprint
print(json.dumps({kind: cache_key(fingerprint(kind, {"n": 1}))
                  for kind in json.loads(sys.argv[1])}))
"""


def _keys_in_fresh_process(src_dir):
    """Cache keys of :data:`CODE_KINDS` computed by a new interpreter
    importing ``repro`` from ``src_dir``."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    done = subprocess.run(
        [sys.executable, "-c", _KEYS_SCRIPT, json.dumps(CODE_KINDS)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


class TestKeying:
    def test_key_is_stable_and_content_addressed(self):
        doc = fingerprint("demo", {"a": 1, "rng": ["seed", 3]})
        assert cache_key(doc) == cache_key(doc)
        assert cache_key(doc, 0) != cache_key(doc, 1) != cache_key(doc)
        other = fingerprint("demo", {"a": 2, "rng": ["seed", 3]})
        assert cache_key(other) != cache_key(doc)

    def test_key_ignores_meta_ordering(self):
        a = fingerprint("demo", {"x": 1, "y": 2})
        b = fingerprint("demo", {"y": 2, "x": 1})
        assert cache_key(a) == cache_key(b)

    def test_code_version_participates(self):
        doc = fingerprint("demo", {})
        assert doc["code"] == result_cache.code_version()

    def test_fresh_process_computes_the_same_keys(self):
        package_parent = os.path.dirname(os.path.dirname(repro.__file__))
        assert _keys_in_fresh_process(package_parent) == {
            kind: cache_key(fingerprint(kind, {"n": 1}))
            for kind in CODE_KINDS}

    def test_source_edit_misses_only_the_edited_paradigm(self, tmp_path):
        shutil.copytree(os.path.dirname(repro.__file__),
                        str(tmp_path / "repro"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = _keys_in_fresh_process(tmp_path)
        with open(str(tmp_path / "repro" / "memcomputing" / "dynamics.py"),
                  "a") as handle:
            handle.write("\n# an edit to the DMM dynamics\n")
        after = _keys_in_fresh_process(tmp_path)
        changed = {kind for kind in CODE_KINDS
                   if before[kind] != after[kind]}
        # DMM kinds (and the whole-package "demo") miss; quantum and
        # oscillator entries stay valid.
        assert changed == {"dmm-ensemble", "dmm-ensemble-chunk",
                           "dmm-portfolio", "serve.solve", "demo"}

    def test_array_fingerprint_sees_dtype_shape_and_bytes(self):
        base = np.arange(6.0)
        assert array_fingerprint(base) == array_fingerprint(base.copy())
        assert array_fingerprint(base) != array_fingerprint(
            base.reshape(2, 3))
        assert array_fingerprint(base) != array_fingerprint(
            base.astype(np.float32))
        changed = base.copy()
        changed[3] = -1.0
        assert array_fingerprint(base) != array_fingerprint(changed)

    def test_formula_fingerprint_tracks_content(self):
        f1 = planted_ksat(10, 40, rng=0)
        f2 = planted_ksat(10, 40, rng=0)
        f3 = planted_ksat(10, 40, rng=1)
        assert formula_fingerprint(f1) == formula_fingerprint(f2)
        assert formula_fingerprint(f1) != formula_fingerprint(f3)

    def test_cacheable_seed(self):
        assert cacheable_seed(7)
        assert cacheable_seed(np.int64(7))
        assert not cacheable_seed(True)
        assert not cacheable_seed(None)
        assert not cacheable_seed(np.random.default_rng(7))


class TestResultCache:
    def test_memory_roundtrip_and_counters(self):
        cache = ResultCache()
        spec = cache.spec("demo", {"n": 1})
        hit, value = spec.lookup()
        assert not hit and value is None
        spec.store({"answer": [1, 2]})
        hit, value = spec.lookup()
        assert hit and value == {"answer": [1, 2]}
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_returned_values_are_isolated_copies(self):
        cache = ResultCache()
        spec = cache.spec("demo", {"n": 1})
        stored = [1, 2, 3]
        spec.store(stored)
        stored.append(4)                      # caller mutates after store
        _hit, first = spec.lookup()
        first.append(99)                      # caller mutates the hit
        _hit, second = spec.lookup()
        assert second == [1, 2, 3]

    def test_lru_evicts_oldest(self):
        cache = ResultCache(max_memory_entries=2)
        spec = cache.spec("demo", {})
        spec.store("a", index=0)
        spec.store("b", index=1)
        assert spec.lookup(0) == (True, "a")  # 0 becomes most recent
        spec.store("c", index=2)              # evicts 1
        assert cache.evictions == 1
        assert spec.lookup(1) == (False, None)
        assert spec.lookup(0) == (True, "a")
        assert spec.lookup(2) == (True, "c")

    def test_disk_json_roundtrip_survives_memory_loss(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = cache.spec("demo", {"n": 2})
        spec.store([1.5, 2.5], index=3)
        cache.clear_memory()
        assert spec.lookup(3) == (True, [1.5, 2.5])
        # and a brand-new cache object (fresh process) also sees it
        again = ResultCache(cache_dir=str(tmp_path))
        assert again.spec("demo", {"n": 2}).lookup(3) == (True, [1.5, 2.5])

    def test_no_scratch_files_left_behind(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = cache.spec("demo", {})
        spec.store([1], index=0)
        spec.store([0.0, 1.0, 2.0], index=1)
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]

    def test_codec_hooks_apply(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = cache.spec("demo", {"n": 4},
                          encode=lambda v: {"x": list(v)},
                          decode=lambda d: tuple(d["x"]))
        spec.store((1, 2))
        cache.clear_memory()
        assert spec.lookup() == (True, (1, 2))

    def test_unencodable_value_is_a_clear_error(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = cache.spec("demo", {"n": 5})
        with pytest.raises(CacheError, match="encode hook"):
            spec.store(object())
        with pytest.raises(CacheError, match="encode hook"):
            spec.store(np.arange(3.0))
        # A refused store leaves neither tier holding the value.
        assert spec.lookup() == (False, None)
        assert cache.stores == 0

    def test_unwritable_directory_degrades_to_the_memory_tier(
            self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cache = ResultCache(cache_dir=str(blocker / "store"))
        pairs = [[1.0, 2.0], [30.0, 50.0]]
        unit = OscillatorDistanceUnit()
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            measures = unit.measure_pairs(pairs, cache=cache)
        assert np.array_equal(measures,
                              unit.measure_pairs(pairs, cache=False))
        assert registry.snapshot()["cache.store_errors"]["value"] == 1
        assert cache.stores == 1

    def test_failed_commit_removes_its_scratch_file(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = cache.spec("demo", {"n": 6})
        os.mkdir(os.path.join(str(tmp_path), spec.key() + ".json"))
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            spec.store([1, 2])
        assert registry.snapshot()["cache.store_errors"]["value"] == 1
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]
        assert spec.lookup() == (True, [1, 2])

    def test_mismatched_fingerprint_refuses_with_path_and_both(
            self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = cache.spec("demo", {"seed": 1})
        spec.store([1, 2], index=0)
        cache.clear_memory()
        # forge a different workload onto the same key (tampering /
        # collision stand-in)
        path = os.path.join(str(tmp_path), spec.key(0) + ".json")
        document = json.load(open(path))
        document["fingerprint"]["meta"]["seed"] = 2
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(CacheError) as excinfo:
            spec.lookup(0)
        message = str(excinfo.value)
        assert path in message
        assert "'seed': 1" in message and "'seed': 2" in message
        assert "refusing" in message

    @pytest.mark.parametrize("damage", ["garbled", "truncated", "empty"])
    def test_corrupt_json_entry_is_quarantined_as_a_miss(self, tmp_path,
                                                         damage):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = cache.spec("demo", {"n": 6})
        spec.store([1.5, 2.5], index=0)
        cache.clear_memory()
        path = tmp_path / (spec.key(0) + ".json")
        payload = path.read_text()
        path.write_text({"garbled": "{not json",
                         "truncated": payload[:len(payload) // 2],
                         "empty": ""}[damage])
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            assert spec.lookup(0) == (False, None)
        assert registry.snapshot()["cache.corrupt"]["value"] == 1
        assert not path.exists()
        assert (tmp_path / (path.name + ".corrupt")).exists()
        # the caller recomputes and stores a fresh entry that serves
        spec.store([1.5, 2.5], index=0)
        cache.clear_memory()
        assert spec.lookup(0) == (True, [1.5, 2.5])

    # Each stored value makes the decode hook (shaped like the kernel
    # codecs) raise one of the exceptions the codecs raise.
    @pytest.mark.parametrize("stored", [[], ["x", 1], None, {"a": 1}],
                             ids=["IndexError", "ValueError", "TypeError",
                                  "KeyError"])
    def test_entry_its_codec_rejects_is_quarantined_as_a_miss(
            self, tmp_path, stored):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = cache.spec("demo", {"n": 7}, encode=list,
                          decode=lambda doc: (int(doc[0]), int(doc[1])))
        spec.store((3, 4))
        cache.clear_memory()
        path = tmp_path / (spec.key() + ".json")
        document = json.loads(path.read_text())
        document["value"] = stored
        path.write_text(json.dumps(document))
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            assert spec.lookup() == (False, None)
            assert spec.lookup() == (False, None)   # later calls miss too
        assert registry.snapshot()["cache.corrupt"]["value"] == 1
        assert (tmp_path / (path.name + ".corrupt")).exists()
        spec.store((3, 4))
        cache.clear_memory()
        assert spec.lookup() == (True, (3, 4))

    def test_readable_entry_with_foreign_fingerprint_still_raises(
            self, tmp_path):
        # Quarantine is for damage only: a well-formed entry whose
        # fingerprint disagrees is refused, not silently replaced.
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = cache.spec("demo", {"n": 8})
        spec.store([0.0, 1.0, 2.0])
        cache.clear_memory()
        other = cache.spec("demo", {"n": 9})
        os.replace(tmp_path / (spec.key() + ".json"),
                   tmp_path / (other.key() + ".json"))
        with pytest.raises(CacheError, match="refusing"):
            other.lookup()

    def test_a_miss_probes_at_most_one_path_per_suffix(self, tmp_path,
                                                       monkeypatch):
        # A memory-only miss never touches the filesystem; a disk miss
        # checks <key>.json once.
        probed = []
        real_exists = os.path.exists
        monkeypatch.setattr(os.path, "exists",
                            lambda path: probed.append(path)
                            or real_exists(path))
        assert ResultCache().spec("demo", {}).lookup() == (False, None)
        assert probed == []
        spec = ResultCache(cache_dir=str(tmp_path)).spec("demo", {})
        assert spec.lookup() == (False, None)
        assert probed == [os.path.join(str(tmp_path), spec.key() + ".json")]

    def test_every_store_fsyncs_its_entry(self, tmp_path, monkeypatch):
        # Every entry is flushed to disk before it is renamed into place.
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: synced.append(fd) or real_fsync(fd))
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = cache.spec("demo", {})
        spec.store([1], index=0)
        spec.store([0.0, 1.0, 2.0], index=1)
        assert len(synced) == 2

    def test_telemetry_counters(self, tmp_path):
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            cache = ResultCache(cache_dir=str(tmp_path),
                                max_memory_entries=1)
            spec = cache.spec("demo", {})
            spec.lookup(0)
            spec.store([1], index=0)
            spec.store([2], index=1)          # evicts entry 0
            spec.lookup(1)
        snapshot = registry.snapshot()
        assert snapshot["cache.misses"]["value"] == 1
        assert snapshot["cache.hits"]["value"] == 1
        assert snapshot["cache.stores"]["value"] == 2
        assert snapshot["cache.evictions"]["value"] == 1
        assert snapshot["cache.bytes"]["value"] > 0

    def test_disabled_registry_records_nothing(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = cache.spec("demo", {})
        spec.store([1], index=0)
        assert spec.lookup(0)[0]
        assert telemetry.get_registry().snapshot() == {}


class TestDiskBudget:
    """The disk tier's byte budget: LRU eviction, counters, env knob."""

    @staticmethod
    def _entry_files(tmp_path):
        return sorted(name for name in os.listdir(tmp_path)
                      if name.endswith(".json"))

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = cache.spec("demo", {})
        for index in range(20):
            spec.store([index] * 50, index=index)
        assert cache.disk_evictions == 0
        assert len(self._entry_files(tmp_path)) == 20

    @staticmethod
    def _entry_size(tmp_path):
        """On-disk size of one entry (all test entries are same-sized)."""
        probe_dir = str(tmp_path / "probe")
        probe = ResultCache(cache_dir=probe_dir)
        probe.spec("demo", {}).store([0.0] * 55, index=0)
        (name,) = os.listdir(probe_dir)
        return os.path.getsize(os.path.join(probe_dir, name))

    def test_budget_evicts_oldest_first(self, tmp_path):
        size = self._entry_size(tmp_path)
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir=cache_dir,
                            max_disk_bytes=int(size * 2.5))
        spec = cache.spec("demo", {})
        registry = telemetry.MetricsRegistry()
        with telemetry.use_registry(registry):
            for index in range(4):
                spec.store([float(index)] * 55, index=index)
                time.sleep(0.02)    # distinct mtimes => deterministic LRU
        assert cache.disk_evictions == 2
        snapshot = registry.snapshot()
        assert snapshot["cache.disk_evictions"]["value"] == 2
        cache.clear_memory()
        # the two newest survive, the two oldest are gone
        assert spec.lookup(3) == (True, [3.0] * 55)
        assert spec.lookup(2) == (True, [2.0] * 55)
        assert spec.lookup(1) == (False, None)
        assert spec.lookup(0) == (False, None)

    def test_disk_hit_refreshes_recency(self, tmp_path):
        size = self._entry_size(tmp_path)
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir=cache_dir,
                            max_disk_bytes=int(size * 2.5))
        spec = cache.spec("demo", {})
        spec.store([0.0] * 55, index=0)
        time.sleep(0.02)
        spec.store([1.0] * 55, index=1)
        time.sleep(0.02)
        cache.clear_memory()
        assert spec.lookup(0)[0]    # disk hit refreshes entry 0's mtime
        time.sleep(0.02)
        spec.store([2.0] * 55, index=2)   # over budget: evicts entry 1
        cache.clear_memory()
        assert spec.lookup(0) == (True, [0.0] * 55)
        assert spec.lookup(1) == (False, None)
        assert spec.lookup(2) == (True, [2.0] * 55)

    def test_oversized_entry_survives_until_displaced(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path), max_disk_bytes=10)
        spec = cache.spec("demo", {})
        spec.store([1.0] * 50, index=0)    # larger than the whole budget
        assert len(self._entry_files(tmp_path)) == 1
        time.sleep(0.02)
        spec.store([2.0] * 50, index=1)    # displaces the previous one
        assert len(self._entry_files(tmp_path)) == 1
        cache.clear_memory()
        assert spec.lookup(1) == (True, [2.0] * 50)

    def test_env_budget_applies_to_dir_caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv(result_cache.CACHE_DISK_BYTES_ENV, "4096")
        cache = result_cache.cache_for_dir(str(tmp_path / "budgeted"))
        assert cache.max_disk_bytes == 4096
        monkeypatch.setenv(result_cache.CACHE_DISK_BYTES_ENV, "not-bytes")
        with pytest.raises(CacheError, match="integer byte count"):
            result_cache.cache_for_dir(str(tmp_path / "other"))

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(CacheError, match="max_disk_bytes"):
            ResultCache(cache_dir=str(tmp_path), max_disk_bytes=-1)


class TestConcurrentStores:
    def test_same_key_store_race_yields_one_valid_entry(self, tmp_path):
        # Multiple processes storing the same content-addressed key at
        # once: every writer must succeed, exactly one committed entry
        # remains, and it passes the fingerprint check.
        context = multiprocessing.get_context("fork")
        processes = [
            context.Process(target=_hammer_store, args=(str(tmp_path),))
            for _ in range(3)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60.0)
        assert all(process.exitcode == 0 for process in processes)
        names = os.listdir(tmp_path)
        assert not [name for name in names if name.endswith(".tmp")]
        assert len([name for name in names if name.endswith(".json")]) == 1
        cache = ResultCache(cache_dir=str(tmp_path))
        assert cache.spec("race", {"n": 7}).lookup(0) \
            == (True, [1.5, 2.5, 3.5])


class TestActiveCachePlumbing:
    def test_resolve_cache_forms(self, tmp_path):
        assert result_cache.resolve_cache(None) is None
        assert result_cache.resolve_cache(False) is None
        cache = ResultCache()
        assert result_cache.resolve_cache(cache) is cache
        by_path = result_cache.resolve_cache(str(tmp_path))
        assert isinstance(by_path, ResultCache)
        # memoized per directory: repeated kernels share the memory tier
        assert result_cache.resolve_cache(str(tmp_path)) is by_path
        with pytest.raises(CacheError, match="cache must be"):
            result_cache.resolve_cache(123)

    def test_spec_for_refuses_nondeterministic_workloads(self):
        cache = ResultCache()
        assert spec_for(cache, "demo", lambda: {"rng": None}) is None
        assert isinstance(
            spec_for(cache, "demo", lambda: {"rng": ["seed", 1]}),
            CacheSpec)
        assert isinstance(
            spec_for(cache, "demo", lambda: {"no_rng_key": 1}), CacheSpec)
        assert spec_for(False, "demo", lambda: {"rng": ["seed", 1]}) is None
        assert spec_for(None, "demo", lambda: {"rng": ["seed", 1]}) is None


class TestParallelMapIntegration:
    def _spec(self, cache, total):
        return cache.spec("square", {"total": total, "rng": ["seed", 0]})

    def test_warm_map_skips_dispatch(self):
        cache = ResultCache()
        registry = telemetry.MetricsRegistry()
        tasks = list(range(6))
        spec = self._spec(cache, len(tasks))
        cold = ParallelMap(workers=1).map(_square, tasks, cache=spec)
        with telemetry.use_registry(registry):
            warm = ParallelMap(workers=1).map(_square, tasks, cache=spec)
        assert warm == cold == [x * x for x in tasks]
        snapshot = registry.snapshot()
        assert snapshot["cache.hits"]["value"] == len(tasks)
        # cached chunks never execute: no parallel.tasks recorded
        assert "parallel.tasks" not in snapshot

    def test_cache_entries_cross_worker_counts(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        tasks = list(range(8))
        spec = self._spec(cache, len(tasks))
        serial = ParallelMap(workers=1).map(_square, tasks, cache=spec)
        assert cache.misses == len(tasks)
        fanned = ParallelMap(workers=4).map(_square, tasks, cache=spec)
        assert fanned == serial
        assert cache.misses == len(tasks)     # warm run: all hits

    def test_failures_are_never_cached(self, fault_plan):
        fault_plan([(1, 1, "raise")])
        cache = ResultCache()
        tasks = list(range(4))
        spec = self._spec(cache, len(tasks))
        results = ParallelMap(workers=1).map(_square, tasks,
                                             on_error="return",
                                             cache=spec)
        from repro.core.parallel import TaskFailure
        assert isinstance(results[1], TaskFailure)
        assert cache.stores == len(tasks) - 1
        assert spec.lookup(1) == (False, None)
        # with the fault gone, the failed chunk recomputes and the rest
        # replay from the cache
        from repro.core import resilience
        resilience.set_fault_plan(None)
        clean = ParallelMap(workers=1).map(_square, tasks, cache=spec)
        assert clean == [x * x for x in tasks]
        assert cache.stores == len(tasks)


# -- hypothesis: the cache-invisibility contract ---------------------------

workloads = st.fixed_dictionaries({
    "total": st.integers(min_value=1, max_value=12),
    "size": st.integers(min_value=1, max_value=5),
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
})


def _run_workload(workload, cache, workers=1):
    """One deterministic rng-consuming fan-out, optionally cached."""
    from repro.core.rngs import spawn_rngs

    spec = None
    if cache is not None:
        spec = cache.spec("hypothesis-demo",
                          {"total": workload["total"],
                           "size": workload["size"],
                           "rng": ["seed", workload["seed"]]})
    rngs = spawn_rngs(workload["seed"], workload["total"])
    tasks = [(workload["size"], rng) for rng in rngs]
    return ParallelMap(workers=workers).map(_rng_sum, tasks, cache=spec)


class TestCacheInvisibilityProperties:
    @settings(max_examples=25, deadline=None)
    @given(workload=workloads)
    def test_cache_on_equals_cache_off_and_cold_equals_warm(
            self, workload):
        cache = ResultCache()
        plain = _run_workload(workload, cache=None)
        cold = _run_workload(workload, cache=cache)
        warm = _run_workload(workload, cache=cache)
        assert cold == plain          # caching never changes results
        assert warm == plain          # replayed results are bit-identical
        assert cache.hits == workload["total"]

    @settings(max_examples=15, deadline=None)
    @given(workload=workloads)
    def test_telemetry_result_shape_is_identical(self, workload):
        def shape(cache):
            registry = telemetry.MetricsRegistry()
            with telemetry.use_registry(registry):
                results = _run_workload(workload, cache=cache)
            snapshot = registry.snapshot()
            return ([type(value).__name__ for value in results],
                    [len(value) for value in results],
                    sorted(key for key in snapshot
                           if not key.startswith("cache.")))
        assert shape(None) == shape(ResultCache())

    @settings(max_examples=15, deadline=None)
    @given(workload=workloads)
    def test_cache_keys_are_stable_across_worker_counts(self, workload):
        cache = ResultCache()
        serial = _run_workload(workload, cache=cache, workers=1)
        misses = cache.misses
        fanned = _run_workload(workload, cache=cache, workers=3)
        assert fanned == serial
        assert cache.misses == misses  # the fan-out run hit every entry

    @settings(max_examples=10, deadline=None)
    @given(workload=workloads,
           fault_chunk=st.integers(min_value=0, max_value=11))
    def test_faulted_chunks_recompute_never_replay_garbage(
            self, workload, fault_chunk):
        from repro.core import resilience

        fault_chunk %= workload["total"]
        cache = ResultCache()
        plain = _run_workload(workload, cache=None)
        plan = resilience.FaultPlan([(fault_chunk, 1, "raise")])
        previous = resilience.set_fault_plan(plan)
        try:
            faulted = _run_workload(workload, cache=cache)
        except Exception:
            faulted = None
        finally:
            resilience.set_fault_plan(previous)
        assert faulted is None        # on_error="raise" surfaced the fault
        assert cache.stores == workload["total"] - 1
        # the failed chunk was not cached; a clean retry recomputes it
        # and every result matches the fault-free run bit for bit
        clean = _run_workload(workload, cache=cache)
        assert clean == plain


class TestKernelCacheRefusals:
    """Kernels must refuse to cache what cannot be replayed."""

    def test_fresh_entropy_runs_are_never_cached(self):
        from repro.memcomputing.ensemble import solve_ensemble

        cache = ResultCache()
        formula = planted_ksat(8, 33, rng=0)
        solve_ensemble(formula, batch=4, max_steps=500, rng=None,
                       cache=cache)
        assert cache.stores == 0 and cache.hits == 0

    def test_generator_rng_disables_kernel_level_caching_only(self):
        from repro.memcomputing.ensemble import solve_ensemble

        cache = ResultCache()
        formula = planted_ksat(8, 33, rng=0)
        # serial fast path with a Generator: not cached (the caller's
        # generator must advance exactly as in an uncached run)
        rng = np.random.default_rng(5)
        solve_ensemble(formula, batch=4, max_steps=500, rng=rng,
                       workers=1, cache=cache)
        assert cache.stores == 0
        # chunked path with a Generator: chunk-level caching is safe
        # because spawn_rngs advances the parent either way
        first = solve_ensemble(formula, batch=4, max_steps=500,
                               rng=np.random.default_rng(5),
                               chunk_size=2, cache=cache)
        assert cache.stores > 0
        second = solve_ensemble(formula, batch=4, max_steps=500,
                                rng=np.random.default_rng(5),
                                chunk_size=2, cache=cache)
        assert cache.hits > 0
        assert np.array_equal(first.solve_steps, second.solve_steps)

    def test_generator_state_advances_identically_on_hits(self):
        from repro.memcomputing.ensemble import solve_ensemble

        cache = ResultCache()
        formula = planted_ksat(8, 33, rng=0)

        def run(with_cache):
            rng = np.random.default_rng(9)
            solve_ensemble(formula, batch=4, max_steps=500, rng=rng,
                           chunk_size=2,
                           cache=cache if with_cache else False)
            return float(rng.normal())   # state probe after the call

        cold, warm, off = run(True), run(True), run(False)
        assert cold == warm == off
