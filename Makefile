PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-naive lint docs-check docs-examples bench bench-smoke e2e-pairs serve-bench serve-bench-smoke stream-bench stream-bench-smoke opt-bench opt-bench-smoke fuzz reports clean

test:
	$(PYTHON) -m pytest -x -q

# The naive-plan leg: the whole suite with the logical planner's
# rewrite passes off (see docs/planner.md), so the unrewritten plan the
# rewrites are checked against keeps its own coverage.  CI runs it as
# its own job.
test-naive:
	REPRO_OPTIMIZE=0 $(PYTHON) -m pytest -x -q

# Static checks; skips gracefully where ruff is not installed (the
# library itself has no dependencies).  CI always runs it.
lint:
	@$(PYTHON) -m ruff --version >/dev/null 2>&1 \
		&& $(PYTHON) -m ruff check src tests benchmarks \
		|| echo "ruff not installed; skipping lint (CI runs it)"

# Documentation gates: markdown links must resolve and every repro.api
# export (and its public methods) must carry a docstring.
docs-check:
	$(PYTHON) tools/docs_check.py

# Executable documentation: extract every fenced python/repro-shell
# block from docs/*.md and README.md and run it against a scratch
# database; drift between docs and code fails the build.
docs-examples:
	$(PYTHON) tools/docs_check.py --examples

# Full-size before/after benchmark of the optimization layer; writes
# BENCH_perf.json (see docs/performance.md for the format).
bench:
	$(PYTHON) -m repro.perf.bench

# Small sizes for CI smoke runs.
bench-smoke:
	$(PYTHON) -m repro.perf.bench --smoke

# Paired end-to-end runs of this working tree against a parent ref,
# alternating which runs first; prints medians, quartiles, wins out of
# pairs and any median worse than its BENCHMARK.json bound.
E2E_PARENT ?= HEAD
E2E_WORKLOADS ?= stream_ingest
E2E_SEEDS ?= 1-10
E2E_SECONDS ?= 20
e2e-pairs:
	$(PYTHON) tools/e2e_pairs.py --parent $(E2E_PARENT) \
		--workloads $(E2E_WORKLOADS) --seeds $(E2E_SEEDS) \
		--seconds $(E2E_SECONDS)

# Serving-layer load generator: sequential vs group commits/s, served
# query latency, the readers-never-block check and the single-writer
# lock check; writes BENCH_serve.json (see docs/serving.md).
serve-bench:
	$(PYTHON) -m repro.serve.bench

serve-bench-smoke:
	$(PYTHON) -m repro.serve.bench --smoke

# Streaming-ingest benchmark: tuples/s through the append path and
# incremental view refresh vs full recomputation (gated at >= 2x);
# writes BENCH_stream.json (see docs/deductive.md).
stream-bench:
	$(PYTHON) -m repro.deductive.bench

stream-bench-smoke:
	$(PYTHON) -m repro.deductive.bench --smoke

# Optimizer benchmark: MINIMIZE/MAXIMIZE exactness on the scheduling
# scenario pack + random-corpus oracle parity and tuples/s; writes
# BENCH_opt.json (see docs/optimization.md).
opt-bench:
	$(PYTHON) -m repro.optimize.bench

opt-bench-smoke:
	$(PYTHON) -m repro.optimize.bench --smoke

# Differential fuzzing against the finite-window oracle; shrunk repros
# of any failure land in fuzz-failures/ (see docs/fuzzing.md).
FUZZ_SEED ?= 0
FUZZ_BUDGET ?= 500
fuzz:
	$(PYTHON) -m repro.cli fuzz --seed $(FUZZ_SEED) --budget $(FUZZ_BUDGET)

# Regenerate every paper artifact report (tables, figures, theorems).
reports:
	$(PYTHON) benchmarks/run_all_reports.py REPORTS.md

clean:
	rm -rf .pytest_cache .benchmarks
	find . -type d -name __pycache__ -prune -exec rm -rf {} \;
