PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-naive lint docs-check docs-examples e2e-pairs fuzz reports clean

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

# Paired end-to-end runs of this working tree against a parent ref,
# alternating which runs first; prints medians, quartiles, wins out of
# pairs and any median worse than its BENCHMARK.json bound.  Every
# workload runs unless E2E_WORKLOADS names some (comma-separated).
E2E_PARENT ?= HEAD
E2E_WORKLOADS ?=
E2E_SEEDS ?= 1-10
E2E_SECONDS ?= 20
e2e-pairs:
	$(PYTHON) tools/e2e_pairs.py --parent $(E2E_PARENT) \
		$(if $(E2E_WORKLOADS),--workloads $(E2E_WORKLOADS)) \
		--seeds $(E2E_SEEDS) --seconds $(E2E_SECONDS)

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
