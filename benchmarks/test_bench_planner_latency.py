"""Benchmark E9: planner latency overhead (Tables 2/3, right-hand columns),
plus the large-topology enumeration latency microbenchmark.

At the paper's SF100 statistics the TPC-H suite plans (without executing)
every analysed query under No-BF, BF-Post, BF-CBO and BF-CBO with Heuristic
7.  The paper reports BF-Post / BF-CBO / BF-CBO+H7 totals of 254.3 ms /
540.7 ms / 421.9 ms: BF-CBO pays a planning-time premium for its larger
search space, and Heuristic 7 claws part of it back.  The benchmark asserts
the same ordering between BF-Post and BF-CBO and reports all totals.

The second benchmark stresses the enumeration layer itself on synthetic 10+
relation chain / star / clique queries (TPC-H tops out at eight relations) —
the workload that motivated the bitmask DPccp rewrite (docs/enumeration.md).
"""

from __future__ import annotations

from repro.experiments import run_tpch_suite
from repro.experiments.enumeration_latency import (
    run_adaptive_latency,
    run_adaptive_speedup,
    run_enumeration_latency,
)

def test_planner_latency_overhead(benchmark, paper_stats_workload):
    result = benchmark.pedantic(
        lambda: run_tpch_suite(paper_stats_workload),
        rounds=1, iterations=1)
    totals = {run: result.planner_ms(run)
              for run in ("bf_post", "bf_cbo", "bf_cbo_h7")}

    print()
    print("planner totals (ms): BF-Post %.1f, BF-CBO %.1f, BF-CBO+H7 %.1f "
          "(paper: 254.3 / 540.7 / 421.9)" % tuple(totals.values()))

    for run, total in totals.items():
        benchmark.extra_info["total_%s_ms" % run] = total

    # BF-CBO explores a strictly larger search space than BF-Post.
    assert totals["bf_cbo"] > totals["bf_post"]
    # Heuristic 7 must not make planning more expensive than plain BF-CBO by
    # more than measurement noise.
    assert totals["bf_cbo_h7"] <= totals["bf_cbo"] * 1.25


def test_enumeration_latency_large_topologies(benchmark):
    """DPccp enumeration on 10+-relation chain/star/clique queries.

    Before the bitmask rewrite the raw pair walk alone took ~57 ms (chain-12),
    ~1.2 s (star-12) and ~0.8 s (clique-10); the walk must now stay well under
    those numbers — the assertions leave generous headroom for slow CI
    machines while still catching a regression to subset scanning.
    """
    result = benchmark.pedantic(
        lambda: run_enumeration_latency(
            [("chain", 12), ("star", 12), ("clique", 10)],
            plan_topologies=("chain",)),
        rounds=1, iterations=1)

    print()
    print(result.to_text())

    for point in result.points:
        benchmark.extra_info["%s_enum_ms" % point.query] = point.enumeration_ms
        benchmark.extra_info["%s_plan_ms" % point.query] = point.planning_ms
        benchmark.extra_info["%s_join_pairs" % point.query] = point.join_pairs
    # Pair counts are a pure function of the topology — pin them so a walk
    # change that silently drops or duplicates pairs fails loudly.
    assert result.point("chain-12").join_pairs == 572
    assert result.point("star-12").join_pairs == 22528
    assert result.point("clique-10").join_pairs == 57002
    # Latency canaries: a regression to subset scanning emits the SAME pairs
    # (the count pins can't see it) but took ~54 ms / ~1213 ms on these two
    # queries, so the bounds must reject seed-speed while leaving ~5-8x
    # headroom over the DPccp walk (~4 ms / ~120 ms) for slow CI machines.
    # Cliques have no disconnected subsets to skip, hence no latency bound.
    assert result.point("chain-12").enumeration_ms < 30
    assert result.point("star-12").enumeration_ms < 600
    # Cost before construct: the planned point prices every variant but
    # builds plan nodes for a small share of them (exact counts).
    planned = result.point("chain-12")
    assert 0 < planned.variants_constructed <= 0.15 * planned.variants_costed
    assert result.point("clique-10").variants_costed == 0  # not planned


def test_adaptive_speedup_gate(benchmark):
    """Adaptive clique-20 planning must beat the exact DP by >= 10x.

    The exact baseline runs at clique-7 (~15 s on a dev box): exact clique DP
    latency is monotonically increasing in the relation count — clique-8
    already takes minutes, clique-20 would take geological time — so beating
    clique-7 by 10x is a certified *lower bound* on the speedup versus an
    exact clique-20 DP.  The adaptive point runs under the default settings,
    where 20 relations exceed ``fallback_relation_threshold`` and the
    GOO/IKKBZ greedy ordering plans the query in ~100 ms.
    """
    result = benchmark.pedantic(run_adaptive_speedup, rounds=1, iterations=1)

    print()
    print("clique-7 exact DP:      %8.1f ms" % result.exact.planning_ms)
    print("clique-20 adaptive:     %8.1f ms (fallback: %s)"
          % (result.adaptive.planning_ms, result.adaptive.fallback_reason))
    print("speedup (lower bound):  %8.0fx" % result.speedup)

    benchmark.extra_info["exact_clique7_ms"] = result.exact.planning_ms
    benchmark.extra_info["adaptive_clique20_ms"] = result.adaptive.planning_ms
    benchmark.extra_info["speedup_lower_bound"] = result.speedup

    assert result.adaptive.fallback_reason == "relations"
    assert result.speedup >= 10


def test_planner_latency_grid(benchmark):
    """Chain/star/clique planning at n in {8, 12, 16, 20}.

    The grid runs under ``TRAJECTORY_SETTINGS`` (the adaptive defaults with a
    tighter 500-pair budget, so the minutes-long exact clique mid-points fall
    back and the grid stays benchmarkable); every point's ``planning_ms``
    lands in ``extra_info``, so ``--benchmark-json`` records both the exact
    DP points and the greedy fallback points next to the commit id.
    """
    result = benchmark.pedantic(run_adaptive_latency, rounds=1, iterations=1)

    print()
    print(result.to_text())

    for point in result.points:
        benchmark.extra_info["%s_ms" % point.query] = point.planning_ms
        benchmark.extra_info["%s_fallback" % point.query] = \
            point.fallback_reason
    # Every 20-relation point must have engaged the relation-threshold
    # fallback; the small chain points must have stayed exact.
    assert result.point("clique-20").fallback_reason == "relations"
    assert result.point("star-20").fallback_reason == "relations"
    assert result.point("chain-20").fallback_reason == "relations"
    assert result.point("chain-8").fallback_reason == ""
    assert result.point("chain-12").fallback_reason == ""
    # The clique-16 walk trips the trajectory budget long before finishing.
    assert result.point("clique-16").fallback_reason == "budget"
    # Fallback points must stay interactive — generous bound for slow CI.
    for topology in ("chain", "star", "clique"):
        assert result.point("%s-20" % topology).planning_ms < 5_000
