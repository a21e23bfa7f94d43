"""Tests for adaptive large-join-graph planning (docs/enumeration.md).

Covers the two coordinated pieces of the adaptive planner:

* the **budgeted DPccp walk** — `enumeration_budget` trips mid-walk,
  `fallback_relation_threshold` skips the walk entirely, and both are
  recorded in :class:`EnumerationStatistics`;
* the **greedy fallback** (GOO, with IKKBZ linearization on acyclic graphs) —
  fallback plans cover every relation, keep cross-product stitching correct
  on disconnected 3+-component graphs, and still feed BF-CBO's two phases.

The planner knobs are set through ``BfCboSettings`` at every API level.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib

import pytest

from repro.api import Database, Session
from repro.core import Optimizer, OptimizerMode
from repro.core.cardinality import CardinalityEstimator
from repro.core.cost import CostModel
from repro.core.enumerator import JoinEnumerator
from repro.core.explain import explain
from repro.core.expressions import ColumnRef
from repro.core.greedy import greedy_unordered_pairs
from repro.core.heuristics import BfCboSettings
from repro.core.joingraph import JoinGraph
from repro.core.query import BaseRelation, JoinClause, QueryBlock
from repro.experiments.enumeration_latency import (
    build_topology_catalog,
    build_topology_query,
)
from repro.storage import Catalog, INT64, make_schema, synthetic_statistics


def make_query(num_relations, edges, name="g"):
    relations = [BaseRelation("t%02d" % i, "t%02d" % i)
                 for i in range(num_relations)]
    clauses = [JoinClause(ColumnRef("t%02d" % i, "c%d" % j),
                          ColumnRef("t%02d" % j, "c%d" % i))
               for i, j in edges]
    return QueryBlock(relations=relations, join_clauses=clauses, name=name)


def make_catalog(query, rows=10_000, uniform=False):
    catalog = Catalog()
    for index, relation in enumerate(query.relations):
        table_rows = rows if uniform else max(100, rows // (index + 1))
        columns = [("pk", INT64)]
        ndv = {"pk": table_rows}
        for clause in query.join_clauses:
            for side in (clause.left, clause.right):
                if side.relation == relation.alias:
                    columns.append((side.column, INT64))
                    ndv[side.column] = max(1, table_rows // 2)
        schema = make_schema(relation.table_name, columns, primary_key=["pk"])
        catalog.register_schema(schema, synthetic_statistics(
            relation.table_name, table_rows, ndv))
    return catalog


def make_enumerator(catalog, query, settings):
    estimator = CardinalityEstimator(catalog, query)
    return JoinEnumerator(catalog, query, estimator, CostModel(), settings)


EXACT = BfCboSettings.disabled().with_overrides(
    enumeration_budget=0, fallback_relation_threshold=0)


class TestBudgetedWalk:
    def test_budget_exhaustion_engages_greedy_fallback(self):
        query = build_topology_query(6, "clique")
        catalog = build_topology_catalog(6, "clique")
        settings = BfCboSettings.disabled().with_overrides(
            enumeration_budget=20)
        enumerator = make_enumerator(catalog, query, settings)
        table = enumerator.optimize_table()
        stats = enumerator.stats
        assert stats.budget_exhausted
        assert stats.fallback_engaged
        assert stats.fallback_reason == "budget"
        # GOO on one connected 6-relation component: 5 merge steps.
        assert stats.greedy_merge_steps == 5
        best = table.get(enumerator.join_graph.all_mask).best()
        assert best is not None
        assert best.relations == frozenset(query.aliases)

    def test_relation_threshold_skips_walk_entirely(self):
        query = build_topology_query(8, "chain")
        catalog = build_topology_catalog(8, "chain")
        settings = BfCboSettings.disabled().with_overrides(
            fallback_relation_threshold=4)
        enumerator = make_enumerator(catalog, query, settings)
        table = enumerator.optimize_table()
        assert enumerator.stats.fallback_engaged
        assert enumerator.stats.fallback_reason == "relations"
        # The walk never started, so the budget cannot have tripped.
        assert not enumerator.stats.budget_exhausted
        assert table.get(enumerator.join_graph.all_mask).best() is not None

    def test_defaults_leave_small_queries_exact(self):
        query = build_topology_query(6, "clique")
        catalog = build_topology_catalog(6, "clique")
        enumerator = make_enumerator(catalog, query,
                                     BfCboSettings.disabled())
        enumerator.optimize_table()
        assert not enumerator.stats.fallback_engaged
        assert not enumerator.stats.budget_exhausted
        assert enumerator.stats.fallback_reason == ""

    def test_unlimited_budget_never_trips(self):
        query = build_topology_query(6, "clique")
        catalog = build_topology_catalog(6, "clique")
        enumerator = make_enumerator(catalog, query, EXACT)
        enumerator.optimize_table()
        assert not enumerator.stats.fallback_engaged

    def test_fallback_sequences_stay_out_of_the_sequence_cache(self):
        query = build_topology_query(6, "star")
        catalog = build_topology_catalog(6, "star")
        from repro.core.enumerator import EnumerationSequenceCache

        cache = EnumerationSequenceCache(8)
        estimator = CardinalityEstimator(catalog, query)
        settings = BfCboSettings.disabled().with_overrides(
            fallback_relation_threshold=3)
        enumerator = JoinEnumerator(catalog, query, estimator, CostModel(),
                                    settings, sequence_cache=cache)
        enumerator.optimize_table()
        assert enumerator.stats.fallback_engaged
        # Greedy orders depend on statistics, not shape: never shape-cached.
        assert len(cache) == 0

    def test_cached_sequence_respects_a_tighter_budget(self):
        # Regression: a sequence cached by an unlimited-budget session must
        # not hand a tighter-budget session an over-budget DP.
        query = build_topology_query(6, "clique")
        catalog = build_topology_catalog(6, "clique")
        from repro.core.enumerator import EnumerationSequenceCache

        cache = EnumerationSequenceCache(8)
        estimator = CardinalityEstimator(catalog, query)
        roomy = JoinEnumerator(catalog, query, estimator, CostModel(),
                               EXACT, sequence_cache=cache)
        roomy.optimize_table()
        assert len(cache) == 1 and not roomy.stats.fallback_engaged
        tight = JoinEnumerator(
            catalog, query, estimator, CostModel(),
            BfCboSettings.disabled().with_overrides(enumeration_budget=20),
            sequence_cache=cache)
        tight.optimize_table()
        assert tight.stats.budget_exhausted
        assert tight.stats.fallback_reason == "budget"
        # And a fellow roomy session still gets the cached exact sequence.
        roomy2 = JoinEnumerator(catalog, query, estimator, CostModel(),
                                EXACT, sequence_cache=cache)
        roomy2.optimize_table()
        assert not roomy2.stats.fallback_engaged
        assert cache.hits >= 2

    def test_aborted_walk_caches_its_lower_bound(self):
        # A budget-aborted walk stores "this shape emits > N pairs" so the
        # next same-shape query under the same budget skips straight to the
        # fallback; a roomier session later upgrades the entry to the full
        # sequence.
        query = build_topology_query(6, "clique")
        catalog = build_topology_catalog(6, "clique")
        from repro.core.enumerator import EnumerationSequenceCache

        cache = EnumerationSequenceCache(8)
        estimator = CardinalityEstimator(catalog, query)
        tight_settings = BfCboSettings.disabled().with_overrides(
            enumeration_budget=20)
        first = JoinEnumerator(catalog, query, estimator, CostModel(),
                               tight_settings, sequence_cache=cache)
        first.optimize_table()
        assert first.stats.budget_exhausted
        signature = first.join_graph.edge_signature()
        sequence, emitted = cache.lookup(signature)
        assert sequence is None and emitted == 21
        second = JoinEnumerator(catalog, query, estimator, CostModel(),
                                tight_settings, sequence_cache=cache)
        second.optimize_table()
        assert second.stats.budget_exhausted
        assert second.stats.fallback_reason == "budget"
        roomy = JoinEnumerator(catalog, query, estimator, CostModel(),
                               EXACT, sequence_cache=cache)
        roomy.optimize_table()
        assert not roomy.stats.fallback_engaged
        sequence, _ = cache.lookup(signature)
        assert sequence is not None


class TestGreedyOrdering:
    def test_goo_covers_all_relations_once(self):
        query = build_topology_query(7, "clique")
        catalog = build_topology_catalog(7, "clique")
        graph = JoinGraph(query)
        estimator = CardinalityEstimator(catalog, query)
        pairs = greedy_unordered_pairs(graph, estimator)
        # n-1 merges, each union appearing exactly once.
        assert sum(len(splits) for splits in pairs.values()) == 6
        assert max(pairs) == graph.all_mask
        for union, splits in pairs.items():
            for left, right in splits:
                assert left & right == 0
                assert left | right == union

    def test_ikkbz_linearizes_acyclic_graphs_left_deep(self):
        query = build_topology_query(8, "chain")
        catalog = build_topology_catalog(8, "chain")
        graph = JoinGraph(query)
        estimator = CardinalityEstimator(catalog, query)
        pairs = greedy_unordered_pairs(graph, estimator)
        # A left-deep linearization: every union has a single-bit side.
        for splits in pairs.values():
            for left, right in splits:
                assert (bin(left).count("1") == 1
                        or bin(right).count("1") == 1)
        assert max(pairs) == graph.all_mask

    def test_ikkbz_keeps_prefixes_connected_on_rank_ties(self):
        # Regression: with uniform statistics every leaf segment ties on
        # rank, and a flat re-sort could place a node before its precedence
        # ancestor (chain t0-t1-t3-t2: t2 before t3), making the left-deep
        # prefix {t0,t1} x t2 a cross product.  The stable chain merge must
        # keep every within-component prefix connected, for every alias
        # permutation of the chain.
        import itertools

        for ordering in itertools.permutations(range(4)):
            edges = [(ordering[0], ordering[1]), (ordering[1], ordering[2]),
                     (ordering[2], ordering[3])]
            edges = [(min(a, b), max(a, b)) for a, b in edges]
            query = make_query(4, edges, name="perm-chain")
            catalog = make_catalog(query, rows=10_000, uniform=True)
            graph = JoinGraph(query)
            estimator = CardinalityEstimator(catalog, query)
            pairs = greedy_unordered_pairs(graph, estimator)
            for union, splits in pairs.items():
                for left, right in splits:
                    assert graph.neighbor_mask(left) & right, \
                        "disconnected merge %s|%s for chain %r" % (
                            bin(left), bin(right), edges)

    def test_ikkbz_handles_very_deep_chains_iteratively(self):
        # Regression: the precedence-tree traversal must not recurse — a
        # chain deeper than the interpreter's recursion limit is exactly the
        # kind of graph the fallback exists for.
        query = build_topology_query(1200, "chain")
        catalog = build_topology_catalog(1200, "chain")
        graph = JoinGraph(query)
        estimator = CardinalityEstimator(catalog, query)
        pairs = greedy_unordered_pairs(graph, estimator)
        assert sum(len(splits) for splits in pairs.values()) == 1199
        assert max(pairs) == graph.all_mask

    def test_fallback_stitches_disconnected_components(self):
        # Three islands: {0,1}, {2,3}, {4,5} — no inter-component clauses.
        query = make_query(6, [(0, 1), (2, 3), (4, 5)],
                           name="three-components")
        catalog = make_catalog(query)
        settings = BfCboSettings.disabled().with_overrides(
            fallback_relation_threshold=2)
        enumerator = make_enumerator(catalog, query, settings)
        table = enumerator.optimize_table()
        stats = enumerator.stats
        assert stats.fallback_engaged
        # Two stitch steps, both orientations each — same accounting as the
        # exact path's cross-product stitching.
        assert stats.cross_products_stitched == 4
        best = table.get(enumerator.join_graph.all_mask).best()
        assert best is not None
        assert best.relations == frozenset(query.aliases)

    def test_goo_respects_outer_join_orientation_legality(self):
        # Regression: a cyclic graph t0-t1 INNER, t1 LEFT t2, t2 LEFT t0.
        # Merging {t0,t1} with {t2} is illegal in both orientations (the two
        # LEFT clauses preserve opposite sides), but (t1 LEFT t2) first is
        # fine — the exact DP finds it, and greedy must too.
        from repro.core.query import JoinType

        relations = [BaseRelation("t%d" % i, "t%d" % i) for i in range(3)]
        clauses = [
            JoinClause(ColumnRef("t0", "c1"), ColumnRef("t1", "c0")),
            JoinClause(ColumnRef("t1", "c2"), ColumnRef("t2", "c1"),
                       join_type=JoinType.LEFT),
            JoinClause(ColumnRef("t2", "c0"), ColumnRef("t0", "c2"),
                       join_type=JoinType.LEFT),
        ]
        query = QueryBlock(relations=relations, join_clauses=clauses,
                           name="outer-cycle")
        catalog = make_catalog(query)
        exact = make_enumerator(catalog, query, EXACT)
        assert exact.optimize_table().get(
            exact.join_graph.all_mask).best() is not None
        greedy = make_enumerator(
            catalog, query, BfCboSettings.disabled().with_overrides(
                fallback_relation_threshold=2))
        table = greedy.optimize_table()
        assert greedy.stats.fallback_engaged
        assert table.get(greedy.join_graph.all_mask).best() is not None

    def test_fallback_matches_exact_plan_on_tiny_chain(self):
        # On a 3-relation chain the greedy tree contains the optimal
        # left-deep order, so fallback and exact DP agree on the plan.
        query = make_query(3, [(0, 1), (1, 2)])
        catalog = make_catalog(query)
        exact = make_enumerator(catalog, query, EXACT)
        exact_best = exact.optimize_table().get(
            exact.join_graph.all_mask).best()
        greedy = make_enumerator(
            catalog, query, BfCboSettings.disabled().with_overrides(
                fallback_relation_threshold=2))
        greedy_best = greedy.optimize_table().get(
            greedy.join_graph.all_mask).best()
        assert greedy.stats.fallback_engaged
        assert explain(greedy_best) == explain(exact_best)


class TestFallbackKeepsBfCboWorking:
    def test_both_phases_run_and_bloom_scans_survive(
            self, running_example_catalog, running_example_query):
        settings = BfCboSettings.paper_defaults().with_overrides(
            fallback_relation_threshold=2)
        optimizer = Optimizer(running_example_catalog)
        result = optimizer.optimize(running_example_query,
                                    OptimizerMode.BF_CBO, settings)
        stats = result.enumeration_stats
        assert stats.fallback_engaged
        report = result.bfcbo_report
        assert report is not None and report.first_phase is not None
        # The structural first phase observed the greedy pair sequence and
        # recorded δ's; the costed second phase kept Bloom scan sub-plans.
        assert report.first_phase.join_pairs_observed > 0
        assert report.first_phase.total_deltas > 0
        assert report.bloom_subplans_retained > 0
        assert result.num_bloom_filters >= 1

    def test_fallback_plan_competitive_on_running_example(
            self, running_example_catalog, running_example_query):
        # The running example's best join order is a left-deep chain the
        # greedy linearization also finds.  The recorded δ's may differ (the
        # greedy tree exposes fewer inner sets to the first phase), so the
        # assertion is on outcome quality: same Bloom filter count and an
        # estimated cost within noise of the exact DP's.
        optimizer = Optimizer(running_example_catalog)
        exact = optimizer.optimize(running_example_query,
                                   OptimizerMode.BF_CBO)
        fallback = optimizer.optimize(
            running_example_query, OptimizerMode.BF_CBO,
            BfCboSettings.paper_defaults().with_overrides(
                fallback_relation_threshold=2))
        assert fallback.enumeration_stats.fallback_engaged
        assert fallback.num_bloom_filters == exact.num_bloom_filters
        assert fallback.estimated_cost <= exact.estimated_cost * 1.05


class TestSerialDp:
    @pytest.mark.parametrize("topology,size", [("chain", 8), ("star", 7),
                                               ("clique", 5)])
    def test_serial_dp_is_repeatable(self, topology, size):
        # The DP keeps no state between calls: two walks over the same query
        # build the same memo, the same plans and the same statistics.
        query = build_topology_query(size, topology)
        catalog = build_topology_catalog(size, topology)
        first = make_enumerator(catalog, query, EXACT)
        first_table = first.optimize_table()
        second = make_enumerator(catalog, query, EXACT)
        second_table = second.optimize_table()
        assert first.stats.variants_costed > 0
        assert dataclasses.asdict(second.stats) == \
            dataclasses.asdict(first.stats)
        assert list(second_table.lists) == list(first_table.lists)
        for mask, first_list in first_table.items():
            assert [explain(p) for p in second_table.get(mask)] == \
                [explain(p) for p in first_list]

    def test_planner_builds_no_worker_pools(self):
        # Planning runs on the caller's thread; the only worker pools are
        # the executor's, which MorselPools owns and counts.
        import repro.core

        banned = ("concurrent", "multiprocessing")
        offenders = []
        for path in sorted(pathlib.Path(repro.core.__file__).parent
                           .glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                offenders += ["%s: %s" % (path.name, name) for name in names
                              if name.split(".")[0] in banned]
        assert offenders == []


class TestApiOverrides:
    def _catalog(self):
        query = make_query(3, [(0, 1), (1, 2)])
        return make_catalog(query), query

    def test_database_settings_reach_the_plan(self):
        catalog, query = self._catalog()
        db = Database(catalog, settings=BfCboSettings(
            enumeration_budget=7, fallback_relation_threshold=5))
        settings = db.resolve_settings(OptimizerMode.NO_BF, None)
        assert settings.enumeration_budget == 7
        assert settings.fallback_relation_threshold == 5
        result = db.connect(mode=OptimizerMode.NO_BF).plan(query)
        assert result.settings.enumeration_budget == 7
        assert result.optimization.settings.fallback_relation_threshold == 5

    def test_session_settings_win_over_database(self):
        catalog, query = self._catalog()
        db = Database(catalog, settings=BfCboSettings(
            fallback_relation_threshold=5))
        session = db.connect(settings=BfCboSettings(
            fallback_relation_threshold=2), mode=OptimizerMode.NO_BF)
        result = session.plan(query)
        assert result.settings.fallback_relation_threshold == 2
        assert result.optimization.enumeration_stats.fallback_engaged

    def test_settings_are_part_of_the_plan_cache_key(self):
        catalog, query = self._catalog()
        db = Database(catalog)
        exact_session = db.connect(mode=OptimizerMode.NO_BF)
        greedy_session = db.connect(mode=OptimizerMode.NO_BF,
                                    settings=BfCboSettings(
                                        fallback_relation_threshold=2))
        exact_session.plan(query)
        greedy = greedy_session.plan(query)
        # Different resolved settings: the second plan must be a cache miss.
        assert not greedy.from_plan_cache
        assert db.cache_stats().plan_misses == 2

    def test_equal_settings_share_one_cached_plan(self):
        # The key holds the resolved settings by value: equal settings built
        # separately must find the same entry.
        catalog, query = self._catalog()
        db = Database(catalog)
        first = db.connect(mode=OptimizerMode.NO_BF, settings=BfCboSettings(
            fallback_relation_threshold=2)).plan(query)
        second = db.connect(mode=OptimizerMode.NO_BF, settings=BfCboSettings(
            fallback_relation_threshold=2)).plan(query)
        assert not first.from_plan_cache
        assert second.from_plan_cache
        assert second.optimization is first.optimization

    def test_call_settings_beat_database_settings(self):
        catalog, query = self._catalog()
        db = Database(catalog, settings=BfCboSettings(enumeration_budget=1))
        exact = db.connect(mode=OptimizerMode.NO_BF).plan(
            query, settings=BfCboSettings(enumeration_budget=0))
        assert exact.settings.enumeration_budget == 0
        assert not exact.optimization.enumeration_stats.fallback_engaged
        budgeted = db.connect(mode=OptimizerMode.NO_BF).plan(query)
        assert budgeted.settings.enumeration_budget == 1
        assert budgeted.optimization.enumeration_stats.fallback_engaged

    def test_removed_parallel_knobs_are_rejected(self):
        # A settings object naming a knob that no longer exists must fail
        # loudly, not plan as if it had been honoured.
        with pytest.raises(TypeError):
            BfCboSettings(parallel_workers=2)
        with pytest.raises(TypeError):
            BfCboSettings(parallel_executor="thread")
