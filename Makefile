PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test verify bench lint goldens

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.cli lint --all src
	$(PYTHON) -m repro.cli lint --all tests
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[lint]')"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[lint]')"; \
	fi

verify: lint test
	$(PYTHON) -m pytest -q benchmarks/suite

bench:
	$(PYTHON) benchmarks/suite/run.py --workload all --seed 1 --runs 10 --out bench-set.json

goldens:
	$(PYTHON) -m repro.cli validate --update-goldens
