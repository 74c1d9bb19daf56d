# Single entrypoints for contributors and CI.  `make test` runs exactly the
# tier-1 command from ROADMAP.md; `make test-conformance` runs only the
# cross-transport conformance matrix (its own CI step, so transport
# failures are attributed clearly); `make test-chaos` runs the elastic
# membership suite -- endpoint kill/heal/re-admission and live shard
# rebalancing -- as its own step for the same reason; `make test-tls` runs
# the TLS/token-auth and tenancy-scheduling suite (ephemeral self-signed
# certificates are minted into tmpdirs via the openssl CLI, nothing to
# provision); `make bench` runs the pytest-benchmark
# suites and writes a BENCH_<date>.json perf snapshot; `make bench-check`
# re-runs the suites and fails on a >30% regression of the guarded
# (kernel/adversary) ops versus the committed baseline in
# benchmarks/baselines/; `make bench-floors` runs only the speedup floors
# (ratios of two paths timed in one run, so runner speed cancels out),
# named file by file because bench_*.py is not collected by default;
# `make lint` is a dependency-free sanity pass
# (byte-compiles every tree we ship); `make clean` removes bytecode and
# tool caches.  The columnar kernel has one backend (numpy); tier-1 holds
# it to the tuple/dict reference table in tests/columnar_oracle.py.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-conformance test-chaos test-tls bench bench-check bench-floors lint clean

# Extra pytest selection flags (CI's tier-1 step passes
# PYTEST_FLAGS='-k "not conformance"' because the conformance matrix
# already ran in its own step).
PYTEST_FLAGS ?=

test:
	$(PYTHON) -m pytest -x -q $(PYTEST_FLAGS)

test-conformance:
	$(PYTHON) -m pytest -q -k "conformance and not readmission and not rebalance"

test-chaos:
	$(PYTHON) -m pytest -q -k "readmission or rebalance"

test-tls:
	$(PYTHON) -m pytest -q tests/test_tls_auth.py

bench:
	$(PYTHON) benchmarks/run_benchmarks.py

bench-check:
	$(PYTHON) benchmarks/check_regression.py

BENCH_FLOORS = \
	benchmarks/bench_core_operations.py::test_kernel_refinement_speedup_floor \
	benchmarks/bench_core_operations.py::test_kernel_fused_entry_speedup_floor \
	benchmarks/bench_service.py::test_inprocess_gammas_overhead_floor \
	benchmarks/bench_service.py::test_inprocess_pipelined_search_floor

bench-floors:
	$(PYTHON) -m pytest -q $(BENCH_FLOORS)

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples perfbench

clean:
	rm -rf .pytest_cache .hypothesis BENCH_*.json
	find src tests benchmarks examples perfbench -name __pycache__ -type d -prune \
		-exec rm -rf {} +
