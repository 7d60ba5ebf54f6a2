# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint bench-quick bench-check bench-baseline bench-reuse \
	bench-simd bench-ugs serve

test:
	$(PYTHON) -m pytest tests/ -x -q

lint:
	$(PYTHON) -m compileall -q src tests benchmarks
	-ruff check src tests benchmarks

# The throughput benchmarks in their CI (--quick) shape.
bench-quick:
	$(PYTHON) benchmarks/bench_cold_analysis.py --quick
	$(PYTHON) benchmarks/bench_engine_throughput.py --quick
	$(PYTHON) benchmarks/bench_serve_throughput.py --quick
	$(PYTHON) benchmarks/bench_cluster_throughput.py --quick
	$(PYTHON) benchmarks/bench_reuse_profile.py --quick
	$(PYTHON) benchmarks/bench_simd.py --quick
	$(PYTHON) benchmarks/bench_ugs_cache.py --quick

# The reuse-profile miss-model validation at full corpus size
# (docs/REUSE.md): mean |predicted - simulated| miss ratio <= 0.05 on
# every cache geometry.
bench-reuse:
	$(PYTHON) benchmarks/bench_reuse_profile.py

# The SLP packing gates at full corpus size (docs/VECTORIZE.md): packed
# execution bit-identical to the scalar oracle, >=30% of packable nests
# with a lower vectorized estimate, scalar decisions untouched.
bench-simd:
	$(PYTHON) benchmarks/bench_simd.py

# The cross-nest UGS memoization gates at full size (docs/PERFORMANCE.md):
# cold >=1.5x over the fast path without the cache, zero decision/table
# mismatches, 10k-nest streaming peak <= 1.25x the 1k-nest peak.
bench-ugs:
	$(PYTHON) benchmarks/bench_ugs_cache.py

# The regression gate: fail on >25% throughput drop or p95 latency growth.
bench-check: bench-quick
	$(PYTHON) benchmarks/regression.py --check

# Intentional refresh of the committed baselines (commit the diff).
bench-baseline: bench-quick
	$(PYTHON) benchmarks/regression.py --update

serve:
	$(PYTHON) -m repro serve
