"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.core.io import save_dimacs
from repro.core.sat_instances import planted_ksat


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestInfo:
    def test_info_lists_packages(self):
        code, text = run_cli(["info"])
        assert code == 0
        for package in ("repro.quantum", "repro.oscillators",
                        "repro.memcomputing", "repro.core"):
            assert package in text

    def test_no_command_prints_help(self):
        code, text = run_cli([])
        assert code == 0
        assert "usage" in text.lower()


class TestSolve:
    @pytest.fixture()
    def instance_path(self, tmp_path):
        formula = planted_ksat(15, 55, rng=0)
        return save_dimacs(formula, str(tmp_path / "i.cnf"))

    @pytest.mark.parametrize("solver", ["dmm", "walksat", "dpll"])
    def test_solves_satisfiable_instance(self, instance_path, solver):
        code, text = run_cli(["solve", instance_path,
                              "--solver", solver])
        assert code == 0
        assert "s SATISFIABLE" in text
        assert text.strip().endswith("0")

    def test_model_line_satisfies_instance(self, instance_path):
        from repro.core.io import load_dimacs

        code, text = run_cli(["solve", instance_path])
        assert code == 0
        model_line = next(line for line in text.splitlines()
                          if line.startswith("v "))
        literals = [int(tok) for tok in model_line[2:].split()
                    if tok != "0"]
        assignment = {abs(l): l > 0 for l in literals}
        assert load_dimacs(instance_path).is_satisfied_by(assignment)

    def test_unsat_reported_by_dpll(self, tmp_path):
        path = tmp_path / "unsat.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, text = run_cli(["solve", str(path), "--solver", "dpll"])
        assert code == 1
        assert "UNSATISFIABLE" in text


class TestFactor:
    def test_shor_factors(self):
        code, text = run_cli(["factor", "15"])
        assert code == 0
        assert "15 = " in text

    def test_memcomputing_factors(self):
        code, text = run_cli(["factor", "21", "--method",
                              "memcomputing"])
        assert code == 0
        assert "21 = " in text
        assert "SOLG" in text

    def test_small_n_rejected(self):
        code, text = run_cli(["factor", "3"])
        assert code == 2


class TestDistance:
    def test_behavioral_mode(self):
        code, text = run_cli(["distance", "120", "40"])
        assert code == 0
        assert "distance(120, 40)" in text
        assert "mode=behavioral" in text

    def test_physical_mode(self):
        code, text = run_cli(["distance", "100", "100",
                              "--mode", "physical"])
        assert code == 0
        assert "mode=physical" in text


class TestObservability:
    @pytest.fixture()
    def instance_path(self, tmp_path):
        formula = planted_ksat(15, 55, rng=0)
        return save_dimacs(formula, str(tmp_path / "i.cnf"))

    def test_solve_trace_writes_jsonl(self, instance_path, tmp_path):
        from repro.core.tracing import read_jsonl

        trace = str(tmp_path / "solve.jsonl")
        code, text = run_cli(["solve", instance_path, "--trace", trace])
        assert code == 0
        assert "trace:" in text
        events = read_jsonl(trace)
        assert events  # non-empty trace
        assert any(event["name"] == "dmm.solver.solve"
                   for event in events)

    def test_factor_trace_writes_jsonl(self, tmp_path):
        from repro.core.tracing import read_jsonl

        trace = str(tmp_path / "factor.jsonl")
        code, _text = run_cli(["factor", "15", "--trace", trace])
        assert code == 0
        events = read_jsonl(trace)
        assert any(event["name"].startswith("quantum.shor.")
                   for event in events)

    def test_distance_trace_writes_jsonl(self, tmp_path):
        from repro.core.tracing import read_jsonl

        trace = str(tmp_path / "distance.jsonl")
        code, _text = run_cli(["distance", "120", "40",
                               "--trace", trace])
        assert code == 0
        events = read_jsonl(trace)
        assert any(event["name"] == "oscillator.distance.evaluate"
                   for event in events)

    def test_metrics_summary_table(self, instance_path):
        code, text = run_cli(["solve", instance_path, "--metrics"])
        assert code == 0
        assert "telemetry summary" in text
        assert "dmm.solver.steps" in text

    def test_telemetry_restored_after_command(self, instance_path):
        from repro.core import telemetry

        run_cli(["solve", instance_path, "--metrics"])
        assert telemetry.get_registry() is telemetry.NULL_REGISTRY

    def test_no_flags_leaves_telemetry_disabled(self, instance_path):
        code, text = run_cli(["solve", instance_path])
        assert code == 0
        assert "telemetry summary" not in text


class TestWorkersFlag:
    @pytest.fixture()
    def instance_path(self, tmp_path):
        formula = planted_ksat(15, 55, rng=0)
        return save_dimacs(formula, str(tmp_path / "i.cnf"))

    def test_solve_portfolio_model_satisfies_instance(self, instance_path):
        from repro.core.io import load_dimacs

        code, text = run_cli(["solve", instance_path, "--workers", "2"])
        assert code == 0
        assert "s SATISFIABLE" in text
        assert "best of 2 restarts" in text
        model_line = next(line for line in text.splitlines()
                          if line.startswith("v "))
        literals = [int(token) for token in model_line[2:].split()
                    if token != "0"]
        assignment = {abs(literal): literal > 0 for literal in literals}
        assert load_dimacs(instance_path).is_satisfied_by(assignment)

    def test_factor_with_workers(self):
        code, text = run_cli(["factor", "15", "--workers", "2"])
        assert code == 0
        assert "15 = " in text

    def test_distance_pairs_with_workers(self):
        code, text = run_cli(["distance", "120", "40", "10", "200",
                              "--workers", "2"])
        assert code == 0
        assert "distance(120, 40)" in text
        assert "distance(10, 200)" in text
        assert "2 pairs scored" in text

    def test_distance_odd_values_rejected(self):
        code, text = run_cli(["distance", "120", "40", "10"])
        assert code == 2
        assert "even number" in text

    def test_metrics_include_worker_side_spans(self, instance_path):
        # Worker-local registries (including span histograms recorded
        # inside worker processes) must merge into the summary table.
        code, text = run_cli(["solve", instance_path, "--workers", "2",
                              "--metrics"])
        assert code == 0
        assert "parallel.tasks" in text
        assert "parallel.worker_seconds" in text
        assert "dmm.solver.solve.seconds" in text
        assert "dmm.solver.steps" in text

    def test_trace_includes_worker_tagged_events(self, instance_path,
                                                 tmp_path):
        from repro.core.tracing import read_jsonl

        trace = str(tmp_path / "parallel.jsonl")
        code, _text = run_cli(["solve", instance_path, "--workers", "2",
                               "--trace", trace])
        assert code == 0
        events = read_jsonl(trace)
        worker_events = [event for event in events if "worker" in event]
        assert worker_events
        assert any(event["name"] == "dmm.solver.solve"
                   for event in worker_events)
        assert any(event["name"] == "parallel.map" for event in events)


class TestServeCommand:
    def test_parser_defaults(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert (args.host, args.port) == ("127.0.0.1", 8080)
        assert args.queue_depth == 64
        assert args.tenant_quota == 16
        assert args.retries == 2
        assert args.timeout is None
        assert args.batch_pairs == 4096
        assert args.job_concurrency == 2
        assert args.workers is None and args.cache_dir is None

    def test_parser_accepts_overrides(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["serve", "--port", "0", "--queue-depth", "8",
             "--tenant-quota", "0", "--workers", "auto",
             "--timeout", "2.5", "--no-cache"])
        assert args.port == 0
        assert args.queue_depth == 8
        assert args.tenant_quota == 0
        assert args.workers == "auto"
        assert args.timeout == 2.5
        assert args.no_cache


class TestResilienceFlags:
    @pytest.fixture()
    def instance_path(self, tmp_path):
        formula = planted_ksat(15, 55, rng=0)
        return save_dimacs(formula, str(tmp_path / "i.cnf"))

    def test_distance_checkpoint_written_and_resumable(self, tmp_path):
        import json

        ckpt = str(tmp_path / "distance.json")
        code, text = run_cli(["distance", "120", "40", "10", "200",
                              "--checkpoint", ckpt])
        assert code == 0
        document = json.load(open(ckpt))
        assert document["kind"] == "oscillator-distance"
        assert document["chunks"]
        # a resumed run reads the finished chunks and reports the same
        code, resumed = run_cli(["distance", "120", "40", "10", "200",
                                 "--resume", ckpt])
        assert code == 0
        assert resumed == text

    def test_solve_retries_with_workers(self, instance_path):
        code, text = run_cli(["solve", instance_path, "--workers", "2",
                              "--retries", "3"])
        assert code == 0
        assert "s SATISFIABLE" in text

    def test_solve_retries_alone_uses_portfolio(self, instance_path):
        # a resilience flag without --workers still routes through the
        # retry-capable portfolio path
        code, text = run_cli(["solve", instance_path, "--retries", "2"])
        assert code == 0
        assert "s SATISFIABLE" in text
        assert "restarts" in text

    def test_factor_checkpoint_written(self, tmp_path):
        import json

        ckpt = str(tmp_path / "factor.json")
        # seed 1's first base is coprime to 15, so order finding (the
        # checkpointed path) actually runs instead of a gcd shortcut
        code, text = run_cli(["factor", "15", "--seed", "1",
                              "--checkpoint", ckpt, "--retries", "2"])
        assert code == 0
        assert "15 = " in text
        assert json.load(open(ckpt))["kind"] == "shor-order"


class TestCacheFlags:
    @pytest.fixture()
    def instance_path(self, tmp_path):
        formula = planted_ksat(15, 55, rng=0)
        return save_dimacs(formula, str(tmp_path / "i.cnf"))

    def _cache_files(self, cache_dir):
        import os

        if not os.path.isdir(cache_dir):
            return []
        return sorted(os.listdir(cache_dir))

    def test_solve_cache_dir_warm_run_identical(self, instance_path,
                                                tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, cold = run_cli(["solve", instance_path,
                              "--cache-dir", cache_dir])
        assert code == 0
        assert "s SATISFIABLE" in cold
        assert self._cache_files(cache_dir)
        code, warm = run_cli(["solve", instance_path,
                              "--cache-dir", cache_dir])
        assert code == 0
        assert warm == cold

    def test_solve_cache_dir_with_retries_and_workers(self, instance_path,
                                                      tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, cold = run_cli(["solve", instance_path, "--retries", "2",
                              "--cache-dir", cache_dir])
        assert code == 0
        # cache keys never depend on the worker count: a fanned-out warm
        # run replays the entries the serial cold run stored
        code, warm = run_cli(["solve", instance_path, "--workers", "2",
                              "--retries", "2", "--cache-dir", cache_dir])
        assert code == 0
        assert warm == cold

    def test_no_cache_wins_over_cache_dir(self, instance_path, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, text = run_cli(["solve", instance_path,
                              "--cache-dir", cache_dir, "--no-cache"])
        assert code == 0
        assert "s SATISFIABLE" in text
        assert not self._cache_files(cache_dir)

    def test_factor_cache_dir_warm_run_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["factor", "15", "--seed", "1", "--retries", "2",
                "--cache-dir", cache_dir]
        code, cold = run_cli(argv)
        assert code == 0
        assert "15 = " in cold
        assert self._cache_files(cache_dir)
        code, warm = run_cli(argv)
        assert code == 0
        assert warm == cold

    def test_distance_cache_dir_with_checkpoint_resume(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        ckpt = str(tmp_path / "distance.json")
        code, cold = run_cli(["distance", "120", "40", "10", "200",
                              "--checkpoint", ckpt,
                              "--cache-dir", cache_dir])
        assert code == 0
        # --resume + --cache-dir: the checkpoint fills the finished
        # chunks, the cache covers any gaps; output is unchanged
        code, resumed = run_cli(["distance", "120", "40", "10", "200",
                                 "--resume", ckpt,
                                 "--cache-dir", cache_dir])
        assert code == 0
        assert resumed == cold
        # and a plain warm run (no checkpoint at all) also matches
        code, warm = run_cli(["distance", "120", "40", "10", "200",
                              "--cache-dir", cache_dir])
        assert code == 0
        assert warm == cold

    def test_failed_chunks_are_not_cached(self, tmp_path, fault_plan):
        from repro.core.exceptions import ParallelError
        from repro.core import resilience

        cache_dir = str(tmp_path / "cache")
        baseline_code, baseline = run_cli(["distance", "120", "40",
                                           "10", "200"])
        assert baseline_code == 0
        # chunk 0 fails both attempts: the run errors out, and the
        # failed chunk must not leave a cache entry behind
        fault_plan([(0, 1, "raise"), (0, 2, "raise")])
        with pytest.raises(ParallelError):
            run_cli(["distance", "120", "40", "10", "200",
                     "--retries", "1", "--cache-dir", cache_dir])
        after_failure = self._cache_files(cache_dir)
        # with the fault cleared, the missing chunk recomputes and the
        # output matches the fault-free baseline exactly
        resilience.set_fault_plan(None)
        code, text = run_cli(["distance", "120", "40", "10", "200",
                              "--retries", "1", "--cache-dir", cache_dir])
        assert code == 0
        assert text == baseline
        assert len(self._cache_files(cache_dir)) > len(after_failure)

    def test_retried_fault_is_transparent_to_the_cache(self, tmp_path,
                                                       fault_plan):
        cache_dir = str(tmp_path / "cache")
        baseline_code, baseline = run_cli(["distance", "120", "40",
                                           "10", "200"])
        assert baseline_code == 0
        # a retried fault succeeds on attempt 2; the cached value is the
        # good retry result, bit-identical to a fault-free run
        fault_plan([(0, 1, "raise")])
        code, faulted = run_cli(["distance", "120", "40", "10", "200",
                                 "--retries", "2",
                                 "--cache-dir", cache_dir])
        assert code == 0
        assert faulted == baseline
        code, warm = run_cli(["distance", "120", "40", "10", "200",
                              "--retries", "2", "--cache-dir", cache_dir])
        assert code == 0
        assert warm == baseline

    def test_mismatched_entry_refuses_reuse_naming_the_path(self,
                                                            tmp_path):
        import json
        import os

        from repro.core.exceptions import CacheError

        cache_dir = str(tmp_path / "cache")
        code, _text = run_cli(["distance", "120", "40", "10", "200",
                               "--cache-dir", cache_dir])
        assert code == 0
        # forge a different workload fingerprint into every entry
        for name in self._cache_files(cache_dir):
            if not name.endswith(".json"):
                continue
            path = os.path.join(cache_dir, name)
            document = json.load(open(path))
            document["fingerprint"]["meta"]["forged"] = True
            with open(path, "w") as handle:
                json.dump(document, handle)
        # drop the in-process memory tier so the next run reads disk,
        # as a fresh process would
        from repro.core import cache as result_cache

        result_cache.cache_for_dir(cache_dir).clear_memory()
        with pytest.raises(CacheError) as excinfo:
            run_cli(["distance", "120", "40", "10", "200",
                     "--cache-dir", cache_dir])
        message = str(excinfo.value)
        assert cache_dir in message
        assert "refusing" in message and "forged" in message


class TestReproduce:
    def test_points_at_benchmarks(self):
        code, text = run_cli(["reproduce"])
        assert code == 0
        assert "pytest benchmarks/" in text


class TestProfile:
    @pytest.fixture()
    def instance_path(self, tmp_path):
        formula = planted_ksat(15, 55, rng=0)
        return save_dimacs(formula, str(tmp_path / "i.cnf"))

    def trace_path(self, tmp_path):
        return str(tmp_path / "trace.json")

    def test_profile_factor_writes_loadable_trace(self, tmp_path):
        # the acceptance workload: repro profile factor ... must produce
        # a Perfetto-loadable trace plus the attribution table
        from repro.core.tracing import read_chrome_trace

        out = self.trace_path(tmp_path)
        code, text = run_cli(["profile", "--out", out, "factor", "15",
                              "--seed", "1"])
        assert code == 0
        assert "performance profile: factor 15 --seed 1" in text
        assert "chrome trace:" in text and "perfetto" in text.lower()
        events = read_chrome_trace(out)
        assert events, "trace file has no events"
        assert {e["ph"] for e in events} <= {"X", "i", "M"}
        spans = [e for e in events if e["ph"] == "X"]
        assert all("pid" in e and "tid" in e for e in spans)
        timestamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert timestamps == sorted(timestamps)

    def test_profile_solve_reports_self_and_cum(self, instance_path,
                                                tmp_path):
        out = self.trace_path(tmp_path)
        code, text = run_cli(["profile", "--out", out, "solve",
                              instance_path])
        assert code == 0
        assert "self%" in text and "cum%" in text
        assert "dmm." in text

    def test_profile_cum_sort_and_top(self, instance_path, tmp_path):
        out = self.trace_path(tmp_path)
        code, text = run_cli(["profile", "--out", out, "--sort", "cum",
                              "--top", "1", "solve", instance_path])
        assert code == 0
        # exactly one data row: header, separator, one span line
        table = text.split("total traced time")[1]
        rows = [line for line in table.splitlines()
                if line and "%" in line and "self%" not in line]
        assert len(rows) == 1

    def test_profile_attributes_the_cache_layer(self, tmp_path):
        from repro.core import cache as result_cache
        from repro.core.tracing import read_chrome_trace

        out = self.trace_path(tmp_path)
        cache_dir = str(tmp_path / "cache")
        argv = ["profile", "--out", out, "distance", "10", "20", "30", "45",
                "--cache-dir", cache_dir]
        code, cold = run_cli(argv)
        assert code == 0
        for name in ("cache.fingerprint", "cache.lookup", "cache.store"):
            assert "/%s " % name in cold, name
        # Warm, from the disk tier: fingerprint and lookup, nothing to
        # store, and the lookup span names the tier that answered.
        result_cache.cache_for_dir(cache_dir).clear_memory()
        code, warm = run_cli(argv)
        assert code == 0
        assert "/cache.fingerprint " in warm and "/cache.lookup " in warm
        assert "cache.store" not in warm
        tiers = [event["args"]["tier"] for event in read_chrome_trace(out)
                 if event["name"] == "cache.lookup"]
        assert tiers == ["disk"]

    def test_profile_workers_show_parallel_lanes(self, instance_path,
                                                 tmp_path):
        from repro.core.tracing import CHROME_MAIN_TID, read_chrome_trace

        out = self.trace_path(tmp_path)
        code, _text = run_cli(["profile", "--out", out, "solve",
                               instance_path, "--workers", "2"])
        assert code == 0
        tids = {e["tid"] for e in read_chrome_trace(out)
                if e["ph"] == "X"}
        assert CHROME_MAIN_TID in tids
        assert len(tids) > 1  # worker spans landed on their own lanes

    def test_profile_without_command_errors(self, tmp_path):
        code, text = run_cli(["profile", "--out",
                              self.trace_path(tmp_path)])
        assert code == 2
        assert "profile needs a command" in text

    def test_profile_rejects_unwrappable_command(self, tmp_path):
        code, text = run_cli(["profile", "--out",
                              self.trace_path(tmp_path), "info"])
        assert code == 2

    def test_profile_rejects_bad_top(self, instance_path, tmp_path):
        code, text = run_cli(["profile", "--out",
                              self.trace_path(tmp_path), "--top", "0",
                              "solve", instance_path])
        assert code == 2
        assert "--top" in text

    def test_profile_unwritable_out_fails_fast(self, instance_path,
                                               tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["profile", "--out",
                     str(tmp_path / "no" / "dir" / "t.json"), "solve",
                     instance_path])

    def test_profile_with_inner_trace_writes_both(self, instance_path,
                                                  tmp_path):
        import os

        from repro.core.tracing import read_jsonl

        out = self.trace_path(tmp_path)
        jsonl = str(tmp_path / "events.jsonl")
        code, text = run_cli(["profile", "--out", out, "solve",
                              instance_path, "--trace", jsonl])
        assert code == 0
        assert os.path.exists(out) and os.path.exists(jsonl)
        assert any(e.get("type") == "span" for e in read_jsonl(jsonl))

    def test_profile_with_metrics_prints_summary(self, instance_path,
                                                 tmp_path):
        code, text = run_cli(["profile", "--out",
                              self.trace_path(tmp_path), "solve",
                              instance_path, "--metrics"])
        assert code == 0
        assert "dmm.solver.steps_per_s" in text

    def test_telemetry_restored_after_profile(self, instance_path,
                                              tmp_path):
        from repro.core import telemetry

        run_cli(["profile", "--out", self.trace_path(tmp_path), "solve",
                 instance_path])
        assert telemetry.get_registry() is telemetry.NULL_REGISTRY
