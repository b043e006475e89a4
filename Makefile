# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: test bench examples fast-test test-parallel test-resilience test-serve test-goldens test-equivalence reproduce lint check clean perf-history perf-check profile-demo

test:
	$(PYTHON) -m pytest tests/ -q

# Parallel engine + determinism suite.  The fan-out call sites take
# their pool path from explicit workers=2 / --workers 2 cases in the
# tier-1 tests.  Sets PYTHONPATH=src so the target also works without
# an editable install.
test-parallel:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m pytest tests/core/test_parallel.py \
		tests/core/test_telemetry_merge.py -q

# Recovery suite: retry budgets, fault injection (plans installed in
# process), resuming a killed run from its cache directory.
test-resilience:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m pytest tests/core/test_resilience.py \
		tests/core/test_parallel.py -q

# Serving tier: the asyncio job service (admission, coalescing, bounded
# jobs run at submission, HTTP endpoints) plus its fault-injection
# survival tests.  See src/repro/serve/ and docs/serving.md.
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
# shots, DMM ensemble RHS, oscillator sweeps, FAST detect, tiled VMM) held
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
	$(PYTHON) benchmarks/report.py

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
