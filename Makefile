# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: test bench examples fast-test test-parallel test-resilience test-serve test-goldens test-equivalence reproduce lint check clean perf-history perf-check profile-demo

test:
	$(PYTHON) -m pytest tests/ -q

# Parallel engine + determinism suite, then the fan-out call sites
# exercised with REPRO_WORKERS=2 as the ambient default.  Sets
# PYTHONPATH=src so the target also works without an editable install.
test-parallel:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m pytest tests/core/test_parallel.py \
		tests/core/test_telemetry_merge.py -q
	REPRO_WORKERS=2 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m pytest tests/core/test_cli.py \
		tests/memcomputing/test_ensemble.py -q

# Recovery suite: retry/backoff, fault injection, checkpoint/resume,
# then an end-to-end check that a fault plan injected through the
# environment (REPRO_FAULTS) really reaches the engine.
test-resilience:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m pytest tests/core/test_resilience.py \
		tests/core/test_parallel.py -q
	REPRO_FAULTS="0:1:raise" PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -c "from repro.core.parallel import ParallelMap, \
TaskFailure; r = ParallelMap().map(abs, [-1, -2], on_error='return'); \
assert isinstance(r[0], TaskFailure) and r[1] == 2, r; \
print('REPRO_FAULTS env injection: ok')"

# Serving tier: the asyncio job service (admission, coalescing,
# batching, HTTP endpoints) plus its fault-injection survival tests.
# See src/repro/serve/ and docs/serving.md.
test-serve:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m pytest tests/serve -q

# Golden-claims tier: the paper's headline numbers (FIG4, FIG5, POWER,
# DMM-SAT) pinned with explicit tolerances on small seeded configs.
# Fast enough (< 1 min) to run on every change; see tests/goldens/.
test-goldens:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m pytest tests/goldens -q

# Differential-equivalence tier: the batched fast paths (statevector
# shots, DMM ensemble RHS, oscillator sweeps, tiled VMM) held
# bit-identical (np.array_equal, never allclose) to the retained scalar
# reference paths, across dtypes, batch sizes, and worker counts.  See
# tests/equivalence/ and docs/parallelism.md.
test-equivalence:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m pytest tests/equivalence -q

lint:
	$(PYTHON) -m compileall -q src benchmarks tools examples
	$(PYTHON) tools/lint_no_stdout.py

check: lint test

fast-test:
	$(PYTHON) -m pytest tests/ -q -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

examples:
	for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

reproduce: bench
	@echo "tables written to benchmarks/results/; see EXPERIMENTS.md"

# Perf-regression harness (docs/observability.md): fold the latest
# benchmark JSONs into results/history.jsonl, then diff the newest
# record against the committed baseline.  Run after `make bench`.
perf-history:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) benchmarks/history.py

perf-check: perf-history
	$(PYTHON) tools/check_perf.py

# Attribution profiler smoke run: table on stdout, Chrome trace on disk.
profile-demo:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m repro profile --out repro-profile-trace.json \
		factor 15 --seed 1
	@echo "open repro-profile-trace.json at https://ui.perfetto.dev"

clean:
	rm -rf .pytest_cache benchmarks/results .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
