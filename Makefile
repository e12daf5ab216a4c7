# Convenience targets for the repro reproduction.

PYTHON ?= python
BENCH_ARGS ?= benchmarks/

.PHONY: install test bench bench-verbose bench-core bench-baseline figures smoke lint spec-goldens

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

bench:
	$(PYTHON) -m pytest $(BENCH_ARGS) --benchmark-only -q

bench-verbose:
	$(PYTHON) -m pytest $(BENCH_ARGS) --benchmark-only -s

# Simulator-throughput harness: gate against the committed baseline,
# or refresh it after a deliberate perf change (docs/performance.md).
bench-core:
	$(PYTHON) -m repro bench --check BENCH_core.json

bench-baseline:
	$(PYTHON) -m repro bench --json BENCH_core.json

# Regenerate tests/golden/spec_keys.json after an *intentional*
# repro.spec/1 schema or normalization change (docs/spec.md) — every
# existing result cache re-keys, so bump SPEC_SCHEMA alongside.
spec-goldens:
	$(PYTHON) -m pytest tests/test_spec.py --update-goldens -q

figures:
	$(PYTHON) -m repro figure figure2
	$(PYTHON) -m repro figure figure7
	$(PYTHON) -m repro figure figure8
	$(PYTHON) -m repro figure figure9
	$(PYTHON) -m repro figure figure10
	$(PYTHON) -m repro figure figure11
	$(PYTHON) -m repro figure figure12
	$(PYTHON) -m repro table table1
	$(PYTHON) -m repro table table2
	$(PYTHON) -m repro table hwcost

smoke:
	$(PYTHON) examples/quickstart.py 6000

lint:
	$(PYTHON) -m ruff check --select F401,F841 src/repro tests/oracles
