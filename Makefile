# Developer entry points.  `make check` is the gate CI runs: the tier-1 unit
# suite, the smoke benchmark gates (their measured ratios are recorded in
# .benchmarks/smoke.json): a planner-latency benchmark that fails fast if the
# join enumeration regresses to subset scanning (see docs/enumeration.md), a
# null-overhead smoke benchmark that fails if the mask=None fast path stops
# being free on NULL-free workloads (see docs/nulls.md), an executor
# throughput benchmark gating the factorized join kernel and execute_many
# batching at >= 2x (see docs/executor.md), a serving-latency benchmark
# gating the shared result cache (>= 10x hot speedup, targeted
# invalidation — see docs/serving.md), a plan-cache benchmark gating
# repeated same-shape traffic (docs/api.md), an examples smoke run that
# drives the session API (docs/api.md) end to end at tiny scale, plus the
# static-analysis gate: the engine lint suite, strict typing, and the
# plan-contract verifier over the golden-plan corpus (see docs/analysis.md),
# plus the chaos gate: the fault-injection suite run once per executor
# backend (see docs/robustness.md), and the memory gate: the governance
# and chaos suites re-run under a constrained process-wide memory pool so
# every operator's spill path is exercised for real (see docs/memory.md).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test smoke examples bench bench-plan golden reproduce lint \
	typecheck verify-plans chaos chaos-mem

check: lint typecheck verify-plans test chaos chaos-mem smoke examples

# The unit suite plus the repository benchmark's end-to-end smoke test (all
# five workloads at tiny scale, the only test driving the process backend
# end to end with result and leak checks).
test:
	$(PYTHON) -m pytest tests benchmarks/e2e/test_e2e_smoke.py -x -q

smoke:
	$(PYTHON) -m pytest benchmarks/test_bench_planner_latency.py \
		benchmarks/test_bench_null_overhead.py \
		benchmarks/test_bench_executor_throughput.py \
		benchmarks/test_bench_serving_latency.py \
		benchmarks/test_bench_plan_cache.py -x -q \
		--benchmark-json=.benchmarks/smoke.json

examples:
	$(PYTHON) examples/quickstart.py --scale 0.01
	$(PYTHON) examples/heuristic_ablation.py --scale 0.005 --queries 3,12,19
	$(PYTHON) examples/execute_many_serving.py --scale 0.005
	$(PYTHON) examples/async_serving.py --scale 0.005
	$(PYTHON) examples/running_example_paper.py
	$(PYTHON) examples/tpch_q12_join_reversal.py --scale 0.005
	$(PYTHON) examples/tpch_q7_predicate_transfer.py --scale 0.005

# Engine-invariant lint (stdlib-only, see docs/analysis.md for the rules).
lint:
	$(PYTHON) -m repro.analysis lint

# Strict mypy over core/executor/api/analysis.  mypy is not vendored into the
# runtime image, so the target degrades to a notice when it is absent; CI
# installs it and runs the real thing.
typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy --config-file mypy.ini src/repro \
		|| echo "mypy not installed; skipping typecheck (CI runs it)"

# Plan-contract verifier over every TPC-H golden plan configuration.
verify-plans:
	$(PYTHON) -m repro.analysis verify --scale-factor 100

# Chaos gate: the fault-injection suite once per executor backend
# (docs/robustness.md).  Override the backends to isolate one, e.g.
# `make chaos CHAOS_BACKENDS=process`.
CHAOS_BACKENDS ?= thread process
chaos:
	@for backend in $(CHAOS_BACKENDS); do \
		echo "chaos: executor_backend=$$backend"; \
		REPRO_CHAOS_BACKEND=$$backend \
			$(PYTHON) -m pytest tests/test_faults.py -x -q || exit 1; \
	done

# Memory gate: the governance suite plus the chaos matrix under a
# process-wide governor pool far below the suites' unlimited working set
# (docs/memory.md).  Queries must complete bit-identically via spill —
# zero OOM — with every denial and spilled byte counted.
CHAOS_MEM_POOL ?= 67108864
chaos-mem:
	REPRO_MEMORY_POOL_BYTES=$(CHAOS_MEM_POOL) \
		$(PYTHON) -m pytest tests/test_memory_governance.py \
		tests/test_faults.py -x -q

bench:
	$(PYTHON) -m pytest benchmarks -x -q

# One run of the repo benchmark's planner workload (BENCHMARK.json,
# benchmarks/e2e/README.md), appended to BENCH_PLAN_OUT.  For a local
# before/after pair, run it a few times on each commit into two files and
# `$(PYTHON) benchmarks/e2e/e2e_compare.py parent.jsonl change.jsonl`.
# The tracked planner trajectory is benchmarks/trajectory.jsonl: only a
# change that claims a speed difference appends to it, one parent and one
# change run via `BENCH_PLAN_OUT=benchmarks/trajectory.jsonl`.
BENCH_PLAN_OUT ?= benchmarks/e2e/out/plan_cold.jsonl
bench-plan:
	$(PYTHON) benchmarks/e2e/e2e_run.py --workload plan_cold \
		--out $(BENCH_PLAN_OUT)

# Regenerate the golden TPC-H plan file (review the diff before committing).
golden:
	$(PYTHON) scripts/dump_plan_golden.py > tests/golden/tpch_plans.txt

# Regenerate the paper reproduction report (review the diff before committing;
# only the wall-clock columns move between runs on unchanged code).
reproduce:
	$(PYTHON) -m repro.experiments.reproduce > docs/reproduction.md
