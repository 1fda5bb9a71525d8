# Tier-1 verification targets.  `make smoke` is the pre-merge gate:
# the full fast test suite plus a lint that fails if any Python
# bytecode artifact is checked into git.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint lint-artifacts smoke bench-estimation bench-obs bench-wire bench-fleet bench-maintenance bench-construction

test:
	$(PYTHON) -m pytest -x -q

# Import hygiene: ruff (when installed, e.g. in CI) plus the repo's own
# AST-based fallback, which needs nothing beyond the stdlib.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro tools benchmarks; \
	else \
		echo "lint: ruff not installed, running tools/lint_imports.py only"; \
	fi
	$(PYTHON) tools/lint_imports.py src/repro tools benchmarks

# Estimation benchmarks with the compiled-path speedup floors armed:
# a regression of the compiled batch path (>= 10x interpreted) or the
# service batch op (>= 3x single-op) fails THIS target, not tier-1.
bench-estimation:
	REPRO_BENCH_ASSERT_SPEEDUP=1 $(PYTHON) -m pytest -x -q \
		benchmarks/test_estimation_cost.py benchmarks/test_service_throughput.py

# Wire-path guard: the binary frame transport must move estimate_batch
# predicates at >= 2x the JSON-lines rate (and >= 2x the recorded
# BENCH_service.json baseline), and the asyncio front end must hold
# >= 10x handler_threads idle connections.  Writes BENCH_wire.json.
bench-wire:
	REPRO_BENCH_ASSERT_WIRE=1 $(PYTHON) -m pytest -x -q \
		benchmarks/test_wire_throughput.py

# Telemetry overhead guard: default (disabled) telemetry must cost
# < 5% of handle() throughput vs the NULL_TELEMETRY baseline.  The
# assertion is armed only here so tier-1 never flakes on timer noise.
bench-obs:
	REPRO_BENCH_ASSERT_OVERHEAD=1 $(PYTHON) -m pytest -x -q \
		benchmarks/test_obs_overhead.py

# Fleet scale-out guard: 4 process shards must move >= 2.5x the
# predicates/sec of a single node -- armed on machines with >= 4
# effective cores; on smaller boxes only a time-slicing sanity floor
# applies (the benchmark is core-aware).  Writes BENCH_fleet.json.
bench-fleet:
	REPRO_BENCH_ASSERT_FLEET=1 $(PYTHON) -m pytest -x -q \
		benchmarks/test_fleet_throughput.py

# Maintenance churn guard: a single broken bucket must repair >= 5x
# faster than a full column rebuild, and repair cost must stay
# proportional to churn (k repaired buckets < 1 rebuild for k up to 16).
# Writes BENCH_maintenance.json.
bench-maintenance:
	REPRO_BENCH_ASSERT_MAINTENANCE=1 $(PYTHON) -m pytest -x -q \
		benchmarks/test_maintenance_churn.py

# Construction floor: the default acceptance-oracle search must build
# every dictionary variant >= 3x faster than the classic search on the
# heavy-tailed zipf column, bit-identically.  Also reports (no floor) an
# ERP table built serially vs on the process build pool.  Writes
# BENCH_construction.json, with the machine's cores/python/numpy.
bench-construction:
	REPRO_BENCH_ASSERT_CONSTRUCTION=1 $(PYTHON) -m pytest -x -q \
		benchmarks/test_fig9_dict_construction.py::test_construction_oracle_speedup \
		benchmarks/test_fig9_dict_construction.py::test_table_build_pool

lint-artifacts:
	@bad=$$(git ls-files | grep -E '__pycache__|\.pyc$$' || true); \
	if [ -n "$$bad" ]; then \
		echo "error: bytecode artifacts tracked in git:"; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	echo "lint-artifacts: ok (no tracked __pycache__/*.pyc)"

smoke: lint lint-artifacts test bench-obs bench-wire bench-fleet bench-maintenance bench-construction
