# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test bench bench-serving bench-chaos bench-csr bench-ch bench-traffic bench-citygen bench-suites bench-diff citygen-smoke replay-smoke serve-smoke traffic-replay-smoke examples report clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-serving:
	$(PYTHON) -m pytest benchmarks/bench_serving.py -q

bench-chaos:
	$(PYTHON) -m pytest benchmarks/bench_chaos.py -q

bench-csr:
	$(PYTHON) -m pytest benchmarks/bench_csr.py -q

bench-ch:
	$(PYTHON) -m pytest benchmarks/bench_ch.py -q

bench-traffic:
	$(PYTHON) -m pytest benchmarks/bench_traffic.py -q

bench-citygen:
	$(PYTHON) -m pytest benchmarks/bench_citygen.py -q

# Destination-perturbation + diversification study-table analogues.
bench-suites:
	$(PYTHON) -m pytest benchmarks/bench_perturbation.py benchmarks/bench_diversification.py -q

# The CI-sized streaming-build gate: both pipelines on the small
# stress lattice in child interpreters, byte-identical snapshots, and
# the streaming peak RSS under its documented ceiling.  Both study
# suites ride along at the same size.
citygen-smoke:
	REPRO_BENCH_SIZE=small $(PYTHON) -m pytest benchmarks/bench_citygen.py benchmarks/bench_perturbation.py benchmarks/bench_diversification.py -q

# Gate fresh BENCH_*.json results against the committed baselines
# (same comparison CI runs; see docs/observability.md to re-bless).
bench-diff:
	$(PYTHON) -m repro bench diff benchmarks/baselines/BENCH_bench_serving.json benchmarks/output/BENCH_bench_serving.json
	$(PYTHON) -m repro bench diff benchmarks/baselines/BENCH_bench_csr.json benchmarks/output/BENCH_bench_csr.json
	$(PYTHON) -m repro bench diff benchmarks/baselines/BENCH_bench_ch.json benchmarks/output/BENCH_bench_ch.json
	$(PYTHON) -m repro bench diff benchmarks/baselines/BENCH_bench_chaos.json benchmarks/output/BENCH_bench_chaos.json
	$(PYTHON) -m repro bench diff benchmarks/baselines/BENCH_bench_traffic.json benchmarks/output/BENCH_bench_traffic.json
	$(PYTHON) -m repro bench diff benchmarks/baselines/BENCH_bench_citygen.json benchmarks/output/BENCH_bench_citygen.json
	$(PYTHON) -m repro bench diff benchmarks/baselines/BENCH_bench_perturbation.json benchmarks/output/BENCH_bench_perturbation.json
	$(PYTHON) -m repro bench diff benchmarks/baselines/BENCH_bench_diversification.json benchmarks/output/BENCH_bench_diversification.json
	$(PYTHON) -m repro bench diff benchmarks/baselines/BENCH_bench_stability.json benchmarks/output/BENCH_bench_stability.json

replay-smoke:
	$(PYTHON) -m repro replay benchmarks/data/query_log_tiny.jsonl

# `repro serve` end to end: one small shard on an OS-picked port, a
# flat route body (200) and an empty one (400), then SIGTERM must take
# the whole process group (server and shard worker) down and leave no
# temp snapshot directory behind.
serve-smoke:
	@set -e; out=$$(mktemp); err=$$(mktemp); \
	setsid $(PYTHON) -m repro serve --shard melbourne --size small --port 0 > $$out 2> $$err & pid=$$!; \
	trap 'kill -KILL -- -'$$pid' 2>/dev/null || true; cat '$$err' >&2; rm -f '$$out' '$$err EXIT; \
	for i in $$(seq 600); do grep -q 'http://' $$out && break; sleep 0.1; done; \
	url=$$(grep -o 'http://[^ ]*' $$out); echo "serve-smoke: $$url"; \
	route() { curl -s -o /dev/null -w '%{http_code}' -d "$$1" "$$url/api/route"; }; \
	code=$$(route '{"version": 1, "source_lat": -37.83, "source_lon": 144.93, "target_lat": -37.79, "target_lon": 144.99}'); \
	test "$$code" = 200 || { echo "flat body answered $$code, expected 200"; exit 1; }; \
	code=$$(route '{}'); \
	test "$$code" = 400 || { echo "empty body answered $$code, expected 400"; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	for i in $$(seq 100); do kill -0 -- -$$pid 2>/dev/null || break; sleep 0.1; done; \
	! kill -0 -- -$$pid 2>/dev/null || { echo "process group outlived SIGTERM"; exit 1; }; \
	snap=$$(sed -n 's/^built snapshot //p' $$err); test -n "$$snap"; \
	test ! -e "$$(dirname "$$snap")" || { echo "$$(dirname "$$snap") outlived SIGTERM"; exit 1; }; \
	echo "serve-smoke: ok"

traffic-replay-smoke:
	$(PYTHON) -m repro traffic replay benchmarks/data/traffic_updates_tiny.jsonl

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/compare_approaches.py
	$(PYTHON) examples/data_mismatch.py
	$(PYTHON) examples/speedup_structures.py
	$(PYTHON) examples/turn_restrictions.py
	$(PYTHON) examples/user_study.py --size small

report:
	$(PYTHON) -m repro report --size medium --out REPORT.md

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/output
	find . -name __pycache__ -type d -exec rm -rf {} +
