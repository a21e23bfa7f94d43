"""Benchmark gates for the partition-parallel execution subsystem.

Three hard speedup gates guard the executor (docs/executor.md):

* **Kernel gate** — the factorized hash join kernel
  (:class:`~repro.executor.keys.CompositeKeyIndex`: factorize the build side
  once, ``searchsorted`` over distinct keys per probe) must beat the legacy
  sort/search kernel (re-``argsort`` the full build side per probe) by >= 2x
  on a skewed 1M-row join probed morsel-wise, exactly as the morsel executor
  drives it through the per-batch kernel memo.
* **Serving gate** — ``Database.execute_many`` on a mixed TPC-H workload with
  repeated queries (serving traffic) must beat single-session sequential
  execution by >= 2x, via request collapsing plus concurrent execution in
  per-query filter scopes.
* **Scaling gate** — morsel execution must reach >= 2x at 8 workers on the
  join-heavy serving cycle under the deterministic per-operator scaling
  model.

Each test's measured ratio lands in ``benchmark.extra_info``, which
``--benchmark-json`` records next to the commit id.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import Database
from repro.executor import sort_search_join_indices
from repro.executor.keys import CompositeKeyIndex

#: Build-side rows of the kernel microbenchmark.
KERNEL_BUILD_ROWS = 1_000_000
#: Probe morsels driven against the single factorized build side.
KERNEL_PROBE_MORSELS = 8

#: The mixed serving workload: a TPC-H query cycle with every query repeated,
#: the way real dashboards and APIs repeat a small set of hot queries.
SERVING_QUERY_CYCLE = [3, 5, 10, 12, 18, 19]
SERVING_REPEATS = 6
SERVING_WORKERS = 8


def test_factorized_kernel_speedup_gate(benchmark):
    """Factorized join kernel >= 2x over sort/search on a skewed 1M-row join.

    The workload mirrors morsel execution: one build side, probed in
    :data:`KERNEL_PROBE_MORSELS` chunks.  The legacy kernel re-sorts the full
    1M-row build side for every probe; the factorized kernel builds its index
    once (as the per-batch memo does) and every probe is a ``searchsorted``
    over the ~200k distinct keys.  The key distribution is cubed-uniform, so
    a few hot keys carry most of the rows — the regime the paper's join
    workloads live in.
    """
    rng = np.random.default_rng(42)
    build = (rng.random(KERNEL_BUILD_ROWS) ** 3 * 200_000).astype(np.int64)
    probe = rng.integers(0, 400_000, KERNEL_BUILD_ROWS).astype(np.int64)
    morsels = np.array_split(probe, KERNEL_PROBE_MORSELS)

    def run_legacy():
        pairs = 0
        for morsel in morsels:
            probe_idx, _, _ = sort_search_join_indices(morsel, build)
            pairs += probe_idx.size
        return pairs

    def run_factorized():
        index = CompositeKeyIndex([build])
        pairs = 0
        for morsel in morsels:
            probe_idx, _, _ = index.probe([morsel])
            pairs += probe_idx.size
        return pairs

    def measure():
        started = time.perf_counter()
        legacy_pairs = run_legacy()
        legacy_s = time.perf_counter() - started
        started = time.perf_counter()
        fact_pairs = run_factorized()
        fact_s = time.perf_counter() - started
        return legacy_pairs, fact_pairs, legacy_s, fact_s

    legacy_pairs, fact_pairs, legacy_s, fact_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    speedup = legacy_s / fact_s

    print()
    print("sort/search kernel:  %7.1f ms (%d pairs)" % (legacy_s * 1e3,
                                                        legacy_pairs))
    print("factorized kernel:   %7.1f ms (%d pairs)" % (fact_s * 1e3,
                                                        fact_pairs))
    print("speedup:             %7.2fx (gate: >= 2x)" % speedup)

    benchmark.extra_info.update({
        "kernel_speedup": speedup,
        "sort_search_ms": legacy_s * 1e3,
        "factorized_ms": fact_s * 1e3,
    })

    # Both kernels must agree before the speedup means anything.
    assert fact_pairs == legacy_pairs
    assert speedup >= 2.0


def test_execute_many_throughput_gate(benchmark, bench_workload):
    """``execute_many`` >= 2x sequential throughput on mixed serving traffic.

    The sequential baseline is a warm single session (plan cache hot, every
    query still executed one by one).  The batched path collapses the
    repeated requests onto one execution each and runs the distinct queries
    concurrently; both produce identical results and identical simulated
    metrics.
    """
    database = Database(bench_workload.catalog)
    database.workload = bench_workload
    numbers = SERVING_QUERY_CYCLE * SERVING_REPEATS
    queries = [bench_workload.query(number) for number in numbers]

    warm = database.connect(history_limit=0)
    for number in set(numbers):
        warm.execute(bench_workload.query(number))

    def measure():
        session = database.connect(history_limit=0)
        started = time.perf_counter()
        sequential = [session.execute(query) for query in queries]
        sequential_s = time.perf_counter() - started
        started = time.perf_counter()
        batched = database.execute_many(queries, workers=SERVING_WORKERS)
        batched_s = time.perf_counter() - started
        return sequential, batched, sequential_s, batched_s

    sequential, batched, sequential_s, batched_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    speedup = sequential_s / batched_s

    print()
    print("workload: %d queries (%d distinct), %d workers"
          % (len(queries), len(set(numbers)), SERVING_WORKERS))
    print("sequential session:  %7.1f ms" % (sequential_s * 1e3))
    print("execute_many:        %7.1f ms" % (batched_s * 1e3))
    print("speedup:             %7.2fx (gate: >= 2x)" % speedup)

    benchmark.extra_info.update({
        "execute_many_speedup": speedup,
        "sequential_ms": sequential_s * 1e3,
        "execute_many_ms": batched_s * 1e3,
    })

    # Identical rows and identical deterministic metrics, query by query.
    for reference, result in zip(sequential, batched):
        assert result.execution.metrics.total_work_units == \
            reference.execution.metrics.total_work_units
        assert result.execution.metrics.bloom_probes == \
            reference.execution.metrics.bloom_probes
        for key in reference.execution.batch.keys:
            assert np.array_equal(reference.execution.batch.column(key),
                                  result.execution.batch.column(key))
    assert speedup >= 2.0


#: Worker counts of the per-operator scaling curve.
SCALING_WORKERS = (1, 2, 4, 8)
#: Morsel size of the scaling model: small enough that every operator's
#: parallel phase splits into several morsels at the benchmark scale factor.
SCALING_MORSEL = 512
#: Plan-node kinds reported as individual scaling curves.
SCALING_KINDS = ("JoinNode", "AggregateNode", "SortNode")


def test_operator_scaling_curve_gate(benchmark, bench_workload):
    """Morsel execution >= 2x end-to-end at 8 workers on join-heavy traffic.

    Wall-clock speedup is bounded by the machine's core count (a 2-core box
    cannot show 8-worker scaling), so the gate rides the deterministic
    scaling model instead
    (:meth:`~repro.executor.metrics.ExecutionMetrics.simulated_latency_at`):
    every operator records the morsel-parallelisable share of its work and
    the row count it spreads over, both derived from observed row counts
    only, so the curve is identical no matter which backend executed the
    plan.  ``workers=1`` reproduces ``simulated_latency`` exactly; the gate
    demands >= 2x at 8 workers over the join-heavy serving cycle, and the
    per-operator speedups (join / aggregation / sort) land in
    ``extra_info``.  Wall-clock for the serial and 8-worker thread runs is
    recorded for reference, ungated.
    """
    database = Database(bench_workload.catalog)
    database.workload = bench_workload
    queries = [bench_workload.query(number) for number in SERVING_QUERY_CYCLE]

    def measure():
        serial = database.connect(history_limit=0)
        started = time.perf_counter()
        results = [serial.execute(query) for query in queries]
        serial_s = time.perf_counter() - started
        threaded = database.connect(history_limit=0, executor_workers=8,
                                    morsel_size=SCALING_MORSEL)
        started = time.perf_counter()
        parallel_results = [threaded.execute(query) for query in queries]
        threaded_s = time.perf_counter() - started
        return results, parallel_results, serial_s, threaded_s

    results, parallel_results, serial_s, threaded_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)

    # The scaling model only means anything over bit-identical executions.
    for want, got in zip(results, parallel_results):
        assert got.execution.metrics.total_work_units == \
            want.execution.metrics.total_work_units
        for key in want.execution.batch.keys:
            assert np.array_equal(want.execution.batch.column(key),
                                  got.execution.batch.column(key))

    metrics = [result.execution.metrics for result in results]
    end_to_end = {
        workers: sum(m.simulated_latency_at(workers, SCALING_MORSEL)
                     for m in metrics)
        for workers in SCALING_WORKERS}
    curves = {
        kind: {workers: sum(m.simulated_latency_at(workers, SCALING_MORSEL,
                                                   kind=kind)
                            for m in metrics)
               for workers in SCALING_WORKERS}
        for kind in SCALING_KINDS}
    assert end_to_end[1] == sum(m.simulated_latency for m in metrics)
    speedup = end_to_end[1] / end_to_end[8]

    print()
    print("scaling cycle: %d queries, morsel=%d"
          % (len(queries), SCALING_MORSEL))
    for workers in SCALING_WORKERS:
        print("  %d workers: %10.1f units (%5.2fx)"
              % (workers, end_to_end[workers],
                 end_to_end[1] / end_to_end[workers]))
    kind_speedups = {kind: curve[1] / curve[8] if curve[8] else 1.0
                     for kind, curve in curves.items()}
    for kind, kind_speedup in kind_speedups.items():
        print("  %-14s %5.2fx at 8 workers" % (kind + ":", kind_speedup))
    print("wall-clock (reference): serial %.1f ms, 8-thread %.1f ms"
          % (serial_s * 1e3, threaded_s * 1e3))
    print("simulated speedup at 8 workers: %.2fx (gate: >= 2x)" % speedup)

    benchmark.extra_info.update({
        "scaling_speedup_8": speedup,
        "scaling_units": {str(w): end_to_end[w] for w in SCALING_WORKERS},
        "serial_wall_ms": serial_s * 1e3,
        "threaded8_wall_ms": threaded_s * 1e3,
    })
    for kind, kind_speedup in kind_speedups.items():
        benchmark.extra_info["%s_speedup_8" % kind] = kind_speedup

    # Every operator family must actually scale (strictly below serial at 8
    # workers), and the whole workload must clear the 2x gate.
    for kind, curve in curves.items():
        assert curve[8] < curve[1], kind
    assert speedup >= 2.0
