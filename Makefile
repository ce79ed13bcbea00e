# Convenience targets for the reproduction.

PYTHON ?= python

# Let every target run from a fresh clone, installed or not.
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test test-faults test-service test-fleet test-workloads test-loadsim lint check bench bench-smoke serve-smoke fleet-smoke pattern-smoke loadsim-smoke figures figures-fast results clean clean-cache help

# The compiled workload store (see docs/performance.md).  `make clean`
# leaves it alone -- warm starts are the point; `make clean-cache`
# removes it explicitly.
REPRO_STREAM_CACHE ?= .repro-cache

help:
	@echo "install      editable install (falls back to setup.py develop)"
	@echo "test         run the unit/property test suite"
	@echo "test-faults  fault-injection / supervision tests only (hard per-test deadlines)"
	@echo "test-service experiment-service tests only (hard per-test deadlines)"
	@echo "test-fleet   worker-fleet tests only: leases, heartbeats, re-dispatch, chaos (hard per-test deadlines)"
	@echo "test-workloads pattern-generator and trace-replay tests only (hard per-test deadlines)"
	@echo "test-loadsim load-simulator tests only: engine, arrivals, determinism, golden percentiles (hard per-test deadlines)"
	@echo "lint         ruff check (skips with a notice when ruff is not installed)"
	@echo "check        lint + test suite + fault tests + bench-smoke + serve-smoke + fleet-smoke + pattern-smoke + loadsim-smoke (the default pre-commit gate)"
	@echo "bench        kernel/telemetry/store/pattern/loadsim bench -> BENCH.json (the committed baseline)"
	@echo "bench-smoke  tiny-budget bench run with every gate -> BENCH_SMOKE.json"
	@echo "serve-smoke  boot the job service, run a sweep through the client SDK, assert bit-identity with serial"
	@echo "fleet-smoke  chaos gate: fleet server + 2 workers, one chaos-killed mid-lease; re-dispatch must yield a bit-identical sweep"
	@echo "pattern-smoke tiny Zipf-skew sweep through the service; must be bit-identical to serial, dedup fully, and 400 bad specs"
	@echo "loadsim-smoke tiny 2-tenant load simulation, DBRB vs LRU; asserts byte-identical determinism and non-degenerate latency percentiles"
	@echo "figures      regenerate every paper table and figure"
	@echo "figures-fast quick figure pass (scale 1/32, short traces)"
	@echo "results      show the rendered experiment tables"
	@echo "clean        remove caches and generated results (keeps the workload store)"
	@echo "clean-cache  remove the compiled workload store ($(REPRO_STREAM_CACHE))"

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The fault-injection tests kill, stall, and time out sweep workers on
# purpose; each runs under a hard SIGALRM deadline (see tests/conftest.py)
# so a hang regression fails fast instead of wedging the suite.
test-faults:
	$(PYTHON) -m pytest tests/ -m faults

# The service tests boot a real asyncio job server (ephemeral ports,
# spawn pools); they carry the same hard SIGALRM deadlines so a hung
# server fails fast instead of wedging tier-1.
test-service:
	$(PYTHON) -m pytest tests/ -m service

# The fleet tests exercise lease-based dispatch, heartbeat expiry,
# journal recovery, and chaos injection against real worker code; same
# hard per-test deadlines as the other liveness-sensitive suites.
test-fleet:
	$(PYTHON) -m pytest tests/ -m fleet

# Pattern-generator and trace-replay tests: spec grammar, hypothesis
# determinism, library round-trips, content-addressed key regressions.
test-workloads:
	$(PYTHON) -m pytest tests/ -m workloads

# Load-simulator tests: event-loop engine, arrival processes, the
# byte-identical determinism property, and the golden percentile pins.
test-loadsim:
	$(PYTHON) -m pytest tests/ -m loadsim

# Lint config lives in pyproject.toml ([tool.ruff]).  Ruff is optional --
# environments without it (e.g. the hermetic CI container) skip the gate
# with a notice rather than failing the whole check.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	elif command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipping (pip install ruff to enable)"; \
	fi

check: lint test test-faults bench-smoke serve-smoke fleet-smoke pattern-smoke loadsim-smoke

bench:
	$(PYTHON) benchmarks/bench_throughput.py

bench-smoke:
	$(PYTHON) benchmarks/bench_throughput.py --smoke

# Boots a real job server on an ephemeral port, runs a tiny sweep
# through the client SDK (parallel workers + shared-memory streams),
# and asserts bit-identity with the serial harness path.  Runs under a
# hard SIGALRM deadline so a wedged server fails the gate loudly.
serve-smoke:
	$(PYTHON) -m repro.service.smoke

# Boots a fleet-mode server plus two real `repro worker` subprocesses,
# chaos-kills one mid-lease (REPRO_CHAOS=kill:1@1), and requires the
# re-dispatched sweep to come out bit-identical to the serial run with
# the re-dispatch/dedup counters visible in /v1/stats.
fleet-smoke:
	$(PYTHON) -m repro.service.smoke_fleet

# Runs a tiny two-point Zipf-skew sweep through a live server (parallel
# workers + stream store + shm) and requires bit-identity with the
# serial harness, full dedup on resubmission, and a 400 with a
# closest-match suggestion for a misspelled pattern family.
pattern-smoke:
	$(PYTHON) -m repro.service.smoke_patterns

# Tiny 2-tenant load-simulation scenario, DBRB vs LRU: re-runs must be
# byte-identical (event-log digest + latency series), both techniques
# must see the same arrivals, and the latency percentiles must be
# non-degenerate.
loadsim-smoke:
	$(PYTHON) -m repro.loadsim.smoke

figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

figures-fast:
	REPRO_SCALE=32 REPRO_INSTRUCTIONS=80000 $(PYTHON) -m pytest benchmarks/ --benchmark-only

results:
	@for f in benchmarks/results/*.txt; do echo; cat $$f; done

# BENCH.json is the committed bench baseline and must survive a clean
# (the BENCH_*.json pattern does not match it); every BENCH_*.json at
# the repo root (e.g. BENCH_SMOKE) is a dropping from a local bench run.
# The compiled workload store is deliberately NOT cleaned here -- that
# is what clean-cache is for.
clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/results src/repro.egg-info
	find . -maxdepth 1 -name 'BENCH_*.json' -delete
	find . -name __pycache__ -type d -exec rm -rf {} +

clean-cache:
	rm -rf $(REPRO_STREAM_CACHE)
