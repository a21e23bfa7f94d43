"""Benchmark gates for the serving tier (``repro.serving``).

Three gates guard the serving subsystem (docs/serving.md):

* **Result-cache gate** — a hot query served from the shared result cache
  must be >= 10x faster than its cold execution: deterministic execution
  makes a result a pure function of the plan-cache key, so serving a repeat
  costs one LRU lookup.
* **Targeted-invalidation gate** — re-registering one table must evict
  exactly the result-cache entries that read it: dependents go (and
  re-execute against the new data), every other table's results stay hot.
* **Latency distribution** — sustained mixed multi-tenant traffic (hot
  repeats + cold uniques + one slow, low-quota tenant) through the async
  serving tier completes fully, and its p50/p95/p99 latencies plus the
  result-cache hit rate are recorded.

Each test's measured numbers land in ``benchmark.extra_info``, which
``--benchmark-json`` records next to the commit id.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.api import Database
from repro.serving import AsyncDatabase, TenantQuota

#: TPC-H queries the hot tenants repeat (dashboard-style traffic).
HOT_QUERY_CYCLE = [3, 10, 12]
HOT_REPEATS = 20
#: Cold unique queries per run (distinct constants => distinct fingerprints).
COLD_UNIQUES = 20
#: Requests of the slow, low-quota tenant (a heavy query each).
SLOW_REQUESTS = 4
SLOW_QUERY = 18

SERVING_WORKERS = 4
RESULT_CACHE_SIZE = 256
HOT_SPEEDUP_GATE = 10.0


def test_result_cache_hot_speedup_gate(benchmark, bench_workload):
    """Hot cached queries >= 10x faster than their cold executions.

    The plan cache is warmed first, so the cold side measures execution
    (not parsing/planning) and the gate isolates exactly what the result
    cache removes.
    """
    database = Database(bench_workload.catalog,
                        result_cache_size=RESULT_CACHE_SIZE)
    database.workload = bench_workload
    session = database.connect(history_limit=0)
    queries = [bench_workload.query(n) for n in HOT_QUERY_CYCLE]
    for query in queries:
        session.plan(query)  # warm the plan cache only

    def measure():
        started = time.perf_counter()
        cold = [session.execute(query) for query in queries]
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        hot = [session.execute(query) for query in queries]
        hot_s = time.perf_counter() - started
        return cold, hot, cold_s, hot_s

    cold, hot, cold_s, hot_s = benchmark.pedantic(measure, rounds=1,
                                                  iterations=1)
    speedup = cold_s / hot_s

    print()
    print("queries: %s (plan cache warm)" % HOT_QUERY_CYCLE)
    print("cold executions:     %7.1f ms" % (cold_s * 1e3))
    print("hot (result cache):  %7.2f ms" % (hot_s * 1e3))
    print("speedup:             %7.1fx (gate: >= %.0fx)"
          % (speedup, HOT_SPEEDUP_GATE))

    benchmark.extra_info.update({
        "result_cache_speedup": speedup,
        "cold_ms": cold_s * 1e3,
        "hot_ms": hot_s * 1e3,
    })

    # A hit is the same immutable execution, not a rerun.
    for reference, repeat in zip(cold, hot):
        assert not reference.from_result_cache
        assert repeat.from_result_cache
        assert repeat.execution is reference.execution
    stats = database.cache_stats()
    assert stats.result_hits == len(queries)
    assert speedup >= HOT_SPEEDUP_GATE


def test_result_cache_targeted_eviction_gate(benchmark):
    """Re-registering one table evicts exactly its dependents.

    Two ad-hoc tables, one cached result each; re-registering ``facts``
    must (a) evict exactly one entry, (b) leave the ``dims`` result hot,
    and (c) serve the re-executed ``facts`` query from the *new* data.
    """
    database = Database.from_tpch(0.002, statistics_only=True,
                                  result_cache_size=RESULT_CACHE_SIZE)
    database.register_table("facts", {
        "fk": np.arange(5000, dtype=np.int64) % 50,
        "measure": np.arange(5000, dtype=np.float64),
    })
    database.register_table("dims", {
        "dk": np.arange(50, dtype=np.int64),
        "bucket": np.arange(50, dtype=np.int64) % 5,
    }, primary_key=["dk"])
    session = database.connect(history_limit=0)
    q_facts = "select count(*) as n from facts"
    q_dims = "select count(*) as n from dims"

    def measure():
        session.execute(q_facts)
        session.execute(q_dims)
        before = database.cache_stats()
        database.register_table("facts", {
            "fk": np.arange(800, dtype=np.int64) % 50,
            "measure": np.arange(800, dtype=np.float64),
        })
        after = database.cache_stats()
        fresh = session.execute(q_facts)
        survivor = session.execute(q_dims)
        return before, after, fresh, survivor

    before, after, fresh, survivor = benchmark.pedantic(measure, rounds=1,
                                                        iterations=1)
    evicted = after.result_evictions - before.result_evictions

    print()
    print("entries before/after re-registration: %d -> %d"
          % (before.result_entries, after.result_entries))
    print("targeted evictions: %d (gate: exactly 1)" % evicted)

    benchmark.extra_info.update({
        "entries_before": before.result_entries,
        "entries_after": after.result_entries,
        "evictions": evicted,
    })

    assert before.result_entries == 2
    assert evicted == 1, "re-registration must evict exactly the dependent"
    assert after.result_entries == 1
    assert not fresh.from_result_cache
    assert fresh.column("n")[0] == 800  # the new data, not the stale 5000
    assert survivor.from_result_cache  # unrelated table stayed hot


def test_serving_latency_percentiles(benchmark, bench_workload):
    """Sustained mixed multi-tenant traffic: percentiles + hit rate.

    Three tenant classes drive the async tier concurrently:

    * ``dash-0`` / ``dash-1`` — hot repeats of a small query cycle (the
      result-cache sweet spot);
    * ``adhoc`` — cold unique queries (distinct literals, so every request
      plans and executes);
    * ``slow`` — a heavy query on a ``max_concurrency=1``, low-weight
      quota, so it cannot crowd out the interactive tenants.

    The gate is behavioural (everything admitted completes; the hot
    repeats actually hit), the percentiles are the recorded artifact.
    """
    database = Database(bench_workload.catalog,
                        result_cache_size=RESULT_CACHE_SIZE)
    database.workload = bench_workload
    hot_queries = [bench_workload.query(n) for n in HOT_QUERY_CYCLE]
    cold_sql = ("select count(*) as n from lineitem "
                "where l_quantity <= %d and l_linenumber <= %d")
    slow_query = bench_workload.query(SLOW_QUERY)

    async def drive():
        serving = AsyncDatabase(
            database, workers=SERVING_WORKERS, max_queue_depth=512,
            quotas={"slow": TenantQuota(max_concurrency=1, weight=0.25)})
        try:
            requests = []
            for repeat in range(HOT_REPEATS):
                for index, query in enumerate(hot_queries):
                    tenant = "dash-%d" % (index % 2)
                    requests.append(serving.execute_async(
                        query, tenant=tenant, name="hot-%d" % repeat))
            for unique in range(COLD_UNIQUES):
                requests.append(serving.execute_async(
                    cold_sql % (10 + unique, 1 + unique % 7),
                    tenant="adhoc", name="cold-%d" % unique))
            for index in range(SLOW_REQUESTS):
                requests.append(serving.execute_async(
                    slow_query, tenant="slow", name="slow-%d" % index))
            results = await asyncio.gather(*requests)
            return results, serving.snapshot()
        finally:
            serving.close()

    def measure():
        started = time.perf_counter()
        results, snapshot = asyncio.run(drive())
        wall_s = time.perf_counter() - started
        return results, snapshot, wall_s

    results, snapshot, wall_s = benchmark.pedantic(measure, rounds=1,
                                                   iterations=1)
    total = len(results)
    hit_rate = snapshot.result_cache_hits / snapshot.completed

    print()
    print("traffic: %d requests (%d hot, %d cold, %d slow), %d workers"
          % (total, HOT_REPEATS * len(HOT_QUERY_CYCLE), COLD_UNIQUES,
             SLOW_REQUESTS, SERVING_WORKERS))
    print("wall clock:          %7.1f ms" % (wall_s * 1e3))
    latency = snapshot.latency
    print("latency p50/p95/p99: %.1f / %.1f / %.1f ms (max %.1f)"
          % (latency.p50_ms, latency.p95_ms, latency.p99_ms,
             latency.max_ms))
    print("result-cache hits:   %d/%d (%.0f%%)"
          % (snapshot.result_cache_hits, snapshot.completed,
             hit_rate * 100))

    benchmark.extra_info.update({
        "wall_ms": wall_s * 1e3,
        "p50_ms": latency.p50_ms,
        "p95_ms": latency.p95_ms,
        "p99_ms": latency.p99_ms,
        "hit_rate": hit_rate,
    })

    assert snapshot.admitted == total
    assert snapshot.completed == total  # nothing shed, cancelled or failed
    assert snapshot.rejected == 0
    # Hot repeats dominate the mix; most of them must come from the cache.
    assert hit_rate >= 0.4
    for result in results:
        assert result.num_rows >= 0 and result.executed
