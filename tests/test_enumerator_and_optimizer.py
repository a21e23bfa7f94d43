"""Tests for the join enumerator, the δ join constraints, the optimizer facade
and the BF-Post post-processing baseline."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    BfCboSettings,
    ColumnRef,
    CostModel,
    JoinMethod,
    Optimizer,
    OptimizerMode,
    count_bloom_filters,
    explain,
    join_nodes,
    join_order_summary,
    scan_nodes,
)
from repro.core.bfcbo import TwoPhaseBloomOptimizer
from repro.core.cardinality import CardinalityEstimator
from repro.core.cost import Cost
from repro.core.enumerator import JoinEnumerator
from repro.core.optimizer import resolve_optimizer_settings
from repro.core.plans import ExchangeKind, ExchangeNode, JoinNode, ScanNode
from repro.core.properties import (
    Distribution,
    DistributionKind,
    PlanProperties,
)
from repro.core.query import BaseRelation, JoinClause, JoinType, QueryBlock
from repro.executor import ExecutionContext, Executor
from repro.experiments.delta_semantics import run_delta_semantics
from repro.experiments.enumeration_latency import (
    build_topology_catalog,
    build_topology_query,
)
from repro.storage import Catalog, INT64, make_schema
from repro.storage.table import Table
from repro.tpch import TpchWorkload
from repro.tpch.queries import QUERY_TEXTS


class TestEnumeration:
    def test_connected_subsets(self, running_example_catalog, running_example_query):
        estimator = CardinalityEstimator(running_example_catalog,
                                         running_example_query)
        enumerator = JoinEnumerator(running_example_catalog,
                                    running_example_query, estimator,
                                    CostModel())
        subsets = enumerator.connected_subsets()
        # {t1,t3} is not connected, so 3 singletons + 2 pairs + the full set.
        assert frozenset({"t1", "t3"}) not in subsets
        assert frozenset({"t1", "t2", "t3"}) in subsets
        assert len(subsets) == 6

    def test_join_pairs_cover_both_orders(self, running_example_catalog,
                                          running_example_query):
        estimator = CardinalityEstimator(running_example_catalog,
                                         running_example_query)
        enumerator = JoinEnumerator(running_example_catalog,
                                    running_example_query, estimator,
                                    CostModel())
        pairs = {(p.outer, p.inner) for p in enumerator.enumerate_join_pairs()}
        assert (frozenset({"t1"}), frozenset({"t2"})) in pairs
        assert (frozenset({"t2"}), frozenset({"t1"})) in pairs
        assert (frozenset({"t1", "t2"}), frozenset({"t3"})) in pairs
        assert (frozenset({"t3"}), frozenset({"t1", "t2"})) in pairs

    def test_plain_dp_produces_full_plan(self, running_example_catalog,
                                         running_example_query):
        estimator = CardinalityEstimator(running_example_catalog,
                                         running_example_query)
        enumerator = JoinEnumerator(running_example_catalog,
                                    running_example_query, estimator,
                                    CostModel())
        plan_lists = enumerator.optimize()
        full = plan_lists[frozenset({"t1", "t2", "t3"})]
        best = full.best()
        assert best is not None
        assert best.relations == frozenset({"t1", "t2", "t3"})
        assert enumerator.stats.join_pairs_considered > 0
        assert enumerator.stats.plans_retained > 0

    def test_exchange_nodes_inserted(self, running_example_catalog,
                                     running_example_query):
        optimizer = Optimizer(running_example_catalog)
        result = optimizer.optimize(running_example_query, OptimizerMode.NO_BF)
        kinds = {type(node) for node in result.plan.walk()}
        assert ExchangeNode in kinds


class TestFullJoinOrientationFreedom:
    """FULL preserves both sides, so the enumerator may flip the join inputs.

    ``big`` (SQL-left / preserved side of the clause) is much larger than
    ``small``; before the orientation fix the SQL-left side was pinned to the
    probe side, forcing ``big`` onto probe and forbidding the (small probe,
    big build) orientation outright — here the *cheap* orientation is the one
    with the small build side, which the DP must now be free to pick either
    way around.
    """

    @pytest.fixture()
    def full_join_setup(self):
        catalog = Catalog()
        big_schema = make_schema("big", [("k", INT64), ("payload", INT64)])
        small_schema = make_schema("small", [("k", INT64)])
        catalog.register_table(Table(big_schema, {
            "k": np.arange(5000, dtype=np.int64),
            "payload": np.arange(5000, dtype=np.int64) * 2,
        }))
        # small straddles big's key range: 50 matched keys (4950..4999) and
        # 50 unmatched ones (5000..5049), so a reversed orientation must
        # exercise the unmatched-*build*-row padding path of the FULL kernel.
        catalog.register_table(Table(small_schema, {
            "k": np.arange(4950, 5050, dtype=np.int64),
        }))
        query = QueryBlock(
            relations=[BaseRelation("big", "big"),
                       BaseRelation("small", "small")],
            join_clauses=[JoinClause(ColumnRef("big", "k"),
                                     ColumnRef("small", "k"),
                                     join_type=JoinType.FULL)],
            name="full-join")
        return catalog, query

    def test_both_orientations_enumerated(self, full_join_setup):
        catalog, query = full_join_setup
        estimator = CardinalityEstimator(catalog, query)
        enumerator = JoinEnumerator(catalog, query, estimator, CostModel())
        orientations = set()
        for pair in enumerator.enumerate_join_pairs():
            if enumerator._join_type_for(pair) is JoinType.FULL:
                orientations.add((pair.outer, pair.inner))
        assert orientations == {
            (frozenset({"big"}), frozenset({"small"})),
            (frozenset({"small"}), frozenset({"big"})),
        }

    def test_optimizer_picks_small_build_side(self, full_join_setup):
        catalog, query = full_join_setup
        result = Optimizer(catalog).optimize(query, OptimizerMode.NO_BF)
        joins = list(join_nodes(result.join_plan))
        assert len(joins) == 1
        assert joins[0].join_type is JoinType.FULL
        # The freed orientation with the 100-row build side must win over the
        # previously forced 5000-row build side.
        assert joins[0].inner.relations == frozenset({"small"})

    def test_full_semantics_preserved_under_reversal(self, full_join_setup):
        catalog, query = full_join_setup
        result = Optimizer(catalog).optimize(query, OptimizerMode.NO_BF)
        execution = Executor(ExecutionContext.for_catalog(catalog)).execute(
            result.join_plan)
        # 50 matched + 4950 unmatched big + 50 unmatched small (build-side
        # rows the reversed orientation must preserve) = 5050.
        assert execution.num_rows == 5050
        batch = execution.batch
        small_null = batch.null_mask("small.k")
        # 4950 unmatched big rows carry NULL on the small columns.
        assert small_null is not None and int(small_null.sum()) == 4950
        small_keys = batch.column("small.k")[~small_null]
        assert small_keys.shape[0] == 100
        # The 50 unmatched small rows survive with big null-padded out.
        assert int((small_keys >= 5000).sum()) == 50
        big_null = batch.null_mask("big.k")
        assert big_null is not None and int(big_null.sum()) == 50

    def test_conflicting_outer_join_types_rejected(self, full_join_setup):
        catalog, query = full_join_setup
        mixed = QueryBlock(
            relations=list(query.relations),
            join_clauses=[JoinClause(ColumnRef("big", "k"),
                                     ColumnRef("small", "k"),
                                     join_type=JoinType.LEFT),
                          JoinClause(ColumnRef("big", "payload"),
                                     ColumnRef("small", "k"),
                                     join_type=JoinType.FULL)],
            name="mixed-outer")
        estimator = CardinalityEstimator(catalog, mixed)
        enumerator = JoinEnumerator(catalog, mixed, estimator, CostModel())
        # LEFT + FULL between one relation pair has no single-join semantics:
        # both orientations must be rejected regardless of clause order.
        for pair in enumerator.enumerate_join_pairs():
            assert enumerator._join_type_for(pair) is None

    def test_left_join_orientation_still_pinned(self, full_join_setup):
        catalog, query = full_join_setup
        pinned = QueryBlock(
            relations=list(query.relations),
            join_clauses=[JoinClause(ColumnRef("big", "k"),
                                     ColumnRef("small", "k"),
                                     join_type=JoinType.LEFT)],
            name="left-join")
        estimator = CardinalityEstimator(catalog, pinned)
        enumerator = JoinEnumerator(catalog, pinned, estimator, CostModel())
        orientations = set()
        for pair in enumerator.enumerate_join_pairs():
            if enumerator._join_type_for(pair) is not None:
                orientations.add((pair.outer, pair.inner))
        # LEFT keeps the row-preserving side on the probe side only.
        assert orientations == {(frozenset({"big"}), frozenset({"small"}))}


class TestDeltaJoinConstraints:
    def test_figure2_and_figure3_semantics(self):
        result = run_delta_semantics()
        assert result.delta_dependency_holds
        assert result.illegal_join_rejected
        assert result.exception_join_allowed
        assert result.rows_delta_r1_r2 < result.rows_delta_r1


class TestOptimizerModes:
    @pytest.fixture()
    def results(self, running_example_catalog, running_example_query):
        optimizer = Optimizer(running_example_catalog)
        return {mode: optimizer.optimize(running_example_query, mode)
                for mode in OptimizerMode}

    def test_no_bf_has_no_filters(self, results):
        assert results[OptimizerMode.NO_BF].num_bloom_filters == 0

    def test_bf_cbo_uses_filters(self, results):
        assert results[OptimizerMode.BF_CBO].num_bloom_filters >= 1

    def test_bf_cbo_cost_not_worse(self, results):
        assert results[OptimizerMode.BF_CBO].estimated_cost <= \
            results[OptimizerMode.NO_BF].estimated_cost * 1.001

    def test_bf_post_keeps_no_bf_estimates(self, results):
        """BF-Post must not change the plan shape or cost of the No-BF plan."""

        def shape(plan):
            # Drop the "[builds ...]" annotation: BF-Post adds filters to the
            # existing joins, which is exactly what this test allows.
            return [entry.split(" [builds")[0]
                    for entry in join_order_summary(plan)]

        assert shape(results[OptimizerMode.BF_POST].join_plan) == \
            shape(results[OptimizerMode.NO_BF].join_plan)
        assert results[OptimizerMode.BF_POST].estimated_cost == \
            pytest.approx(results[OptimizerMode.NO_BF].estimated_cost)

    def test_final_plan_has_no_pending_blooms(self, results):
        for result in results.values():
            assert not result.plan.pending_blooms

    def test_bloom_scans_fed_by_building_joins(self, results):
        """Every Bloom filter applied by a scan must be built by a hash join
        above it whose inner side provides the build relation."""
        plan = results[OptimizerMode.BF_CBO].join_plan
        built = {spec.filter_id for node in join_nodes(plan)
                 for spec in node.built_filters}
        applied = {spec.filter_id for node in scan_nodes(plan)
                   for spec in node.bloom_filters}
        assert applied <= built

    def test_building_joins_are_hash_joins(self, results):
        plan = results[OptimizerMode.BF_CBO].join_plan
        for node in join_nodes(plan):
            if node.built_filters:
                assert node.method is JoinMethod.HASH

    def test_explain_renders(self, results):
        text = explain(results[OptimizerMode.BF_CBO].plan)
        assert "Scan" in text
        assert "rows=" in text

    def test_planning_time_recorded(self, results):
        for result in results.values():
            assert result.planning_time_ms > 0


class TestBfPostBaseline:
    def test_post_processing_adds_filters(self, running_example_catalog,
                                          running_example_query):
        optimizer = Optimizer(running_example_catalog)
        result = optimizer.optimize(running_example_query, OptimizerMode.BF_POST)
        assert result.postprocess_report is not None
        assert result.num_bloom_filters == result.postprocess_report.num_filters

    def test_post_processing_idempotent_filters(self, running_example_catalog,
                                                running_example_query):
        """The same (apply, build) pair is never attached twice to one scan."""
        optimizer = Optimizer(running_example_catalog)
        result = optimizer.optimize(running_example_query, OptimizerMode.BF_POST)
        for scan in scan_nodes(result.join_plan):
            pairs = [(s.apply_column, s.build_column) for s in scan.bloom_filters]
            assert len(pairs) == len(set(pairs))

    def test_estimated_rows_not_revised(self, running_example_catalog,
                                        running_example_query):
        """BF-Post leaves scan row estimates untouched (Section 4.2)."""
        optimizer = Optimizer(running_example_catalog)
        no_bf = optimizer.optimize(running_example_query, OptimizerMode.NO_BF)
        bf_post = optimizer.optimize(running_example_query, OptimizerMode.BF_POST)
        no_bf_rows = {node.alias: node.rows for node in scan_nodes(no_bf.join_plan)}
        post_rows = {node.alias: node.rows for node in scan_nodes(bf_post.join_plan)}
        assert no_bf_rows == post_rows


# ---------------------------------------------------------------------------
# Cost before construct: the fused DP step against the step it replaced
# ---------------------------------------------------------------------------


class _OracleCostModel(CostModel):
    """The join, sort and exchange formulas as ``Cost`` arithmetic, the way
    they were written before the float-pair forms existed."""

    def hash_join(self, build_rows, probe_rows, output_rows, num_clauses=1):
        p = self.params
        build = build_rows * p.hash_build_row_cost * max(1, num_clauses)
        probe = probe_rows * p.hash_probe_row_cost * max(1, num_clauses)
        return Cost(build, build + probe + output_rows * p.cpu_tuple_cost)

    def nested_loop(self, outer_rows, inner_rows, output_rows,
                    inner_rescan_cost=0.0):
        p = self.params
        compare = outer_rows * inner_rows * p.nestloop_compare_cost
        rescan = max(0.0, outer_rows - 1.0) * inner_rescan_cost
        return Cost(0.0, compare + rescan + output_rows * p.cpu_tuple_cost)

    def sort(self, rows):
        rows = max(2.0, rows)
        work = rows * math.log2(rows) * self.params.sort_row_cost
        return Cost(work, work)

    def merge_join(self, left_rows, right_rows, output_rows):
        p = self.params
        cost = Cost(0.0, (left_rows + right_rows) * p.merge_row_cost
                    + output_rows * p.cpu_tuple_cost)
        return cost + self.sort(left_rows) + self.sort(right_rows)

    def broadcast(self, rows, row_width):
        p = self.params
        bytes_moved = rows * row_width * p.degree_of_parallelism
        return Cost(0.0, bytes_moved * p.broadcast_byte_cost
                    + rows * p.cpu_tuple_cost)

    def redistribute(self, rows, row_width):
        p = self.params
        return Cost(0.0, rows * row_width * p.redistribute_byte_cost
                    + rows * p.cpu_tuple_cost)


class _OracleEnumerator(JoinEnumerator):
    """The DP step as it was before cost-before-construct: build every
    physical variant of every sub-plan combination as a costed plan node,
    summing ``Cost`` objects, and let ``PlanList.add`` decide.  Every
    per-combination derivation is repeated per combination on purpose."""

    def _dp_step(self, pair, outer_list, inner_list, target):
        for outer_plan in list(outer_list):
            for inner_plan in list(inner_list):
                self.stats.subplan_combinations += 1
                for join_plan in self.combine(pair, outer_plan, inner_plan):
                    if target.add(join_plan):
                        self.stats.plans_retained += 1
        if self.settings.use_heuristic7:
            self.stats.heuristic7_pruned += target.apply_heuristic7(
                self.settings.heuristic7_max_subplans)

    def combine(self, pair, outer_plan, inner_plan):
        join_type = self._join_type_for(pair)
        if join_type is None:
            return []
        legal, resolved, pending = self._check_bloom_constraints(
            outer_plan, inner_plan)
        if not legal:
            self.stats.plans_rejected_bloom_constraint += 1
            return []
        if resolved and self.settings.enabled and not all(
                spec.estimate.build_ndv <= self.settings.max_build_ndv
                for spec in resolved):
            self.stats.plans_rejected_bloom_constraint += 1
            return []
        must_use_hash = bool(resolved) or any(
            spec.delta & inner_plan.relations
            for spec in outer_plan.pending_blooms)
        methods = [JoinMethod.HASH]
        if not must_use_hash and pair.clauses:
            methods.extend([JoinMethod.MERGE, JoinMethod.NESTED_LOOP])
        if not pair.clauses:
            methods = [JoinMethod.NESTED_LOOP]
        if not pair.clauses and must_use_hash:
            return []
        rows = self.estimator.join_rows(pair.union)
        for spec in sorted(pending, key=lambda s: s.filter_id):
            rows *= spec.estimate.effective_selectivity
        rows = max(1.0, rows)
        residuals = self._new_residuals(pair)
        return [plan for method in methods
                for plan in self._physical_variants(
                    pair, method, join_type, outer_plan, inner_plan, rows,
                    resolved, pending, residuals)]

    @staticmethod
    def _check_bloom_constraints(outer_plan, inner_plan):
        inner_relations = inner_plan.relations
        inner_pending = inner_plan.pending_blooms
        inner_delta_union = set()
        for spec in inner_pending:
            inner_delta_union |= spec.delta
        resolved, carried = [], []
        for spec in sorted(outer_plan.pending_blooms,
                           key=lambda s: s.filter_id):
            if spec.delta <= inner_relations:
                resolved.append(spec)
            elif spec.delta & inner_relations:
                if spec.delta - inner_relations <= inner_delta_union:
                    resolved.append(spec)
                else:
                    return False, [], frozenset()
            else:
                carried.append(spec)
        return True, resolved, frozenset(carried) | inner_pending

    def _physical_variants(self, pair, method, join_type, outer_plan,
                           inner_plan, rows, resolved, pending, residuals):
        outer_cols, inner_cols = self._join_columns(pair)
        strategies = [(outer_plan,
                       self._exchange(inner_plan, ExchangeKind.BROADCAST, ()),
                       outer_plan.properties.distribution)]
        if outer_cols and method is not JoinMethod.NESTED_LOOP:
            outer_shuffled, inner_shuffled = outer_plan, inner_plan
            if not outer_plan.properties.distribution.is_hashed_on(outer_cols):
                outer_shuffled = self._exchange(
                    outer_plan, ExchangeKind.REDISTRIBUTE, outer_cols)
            if not inner_plan.properties.distribution.is_hashed_on(inner_cols):
                inner_shuffled = self._exchange(
                    inner_plan, ExchangeKind.REDISTRIBUTE, inner_cols)
            strategies.append((outer_shuffled, inner_shuffled,
                               Distribution.hashed(outer_cols)))
        for outer_input, inner_input, distribution in strategies:
            cost = outer_input.cost + inner_input.cost
            cost = cost + self._join_work(method, outer_input, inner_input,
                                          rows, len(pair.clauses))
            if resolved:
                cost = cost + self.cost_model.bloom_build(inner_input.rows,
                                                          len(resolved))
            if residuals:
                cost = cost + self.cost_model.project(rows, len(residuals))
            yield JoinNode(
                method=method, join_type=join_type, outer=outer_input,
                inner=inner_input, clauses=pair.clauses,
                built_filters=tuple(resolved), residual_predicates=residuals,
                rows=rows, cost=cost,
                properties=PlanProperties(distribution=distribution,
                                          pending_blooms=pending),
                row_width=outer_plan.row_width + inner_plan.row_width)

    def _join_work(self, method, outer_input, inner_input, output_rows,
                   num_clauses):
        params = self.cost_model.params
        build_rows = inner_input.rows
        if inner_input.properties.distribution.kind \
                is DistributionKind.BROADCAST:
            build_rows = inner_input.rows * params.degree_of_parallelism
        if method is JoinMethod.HASH:
            return self.cost_model.hash_join(build_rows, outer_input.rows,
                                             output_rows, num_clauses)
        if method is JoinMethod.MERGE:
            return self.cost_model.merge_join(outer_input.rows,
                                              inner_input.rows, output_rows)
        return self.cost_model.nested_loop(
            outer_input.rows, inner_input.rows, output_rows,
            inner_input.rows * params.cpu_tuple_cost)


def _plan_table(enumerator_class, cost_model, catalog, query, settings):
    """The DP memo of the full (two-phase, when enabled) optimization and the
    enumerator that produced it, with ``enumerator_class`` running the DP."""
    two_phase = TwoPhaseBloomOptimizer(
        catalog, query, CardinalityEstimator(catalog, query), cost_model,
        settings)
    two_phase.enumerator = enumerator_class(
        catalog, query, two_phase.estimator, cost_model, settings,
        two_phase.join_graph)
    return two_phase.optimize_table(), two_phase.enumerator


def _node_fingerprint(node):
    """Every float of a plan tree, exactly; explain() rounds them."""
    return [(type(n).__name__, n.rows, n.cost.startup, n.cost.total,
             n.row_width, n.properties.signature()) for n in node.walk()]


def _assert_fused_step_matches_oracle(catalog, query, settings):
    fused_table, fused = _plan_table(JoinEnumerator, CostModel(), catalog,
                                     query, settings)
    oracle_table, oracle = _plan_table(_OracleEnumerator, _OracleCostModel(),
                                       catalog, query, settings)
    assert list(fused_table) == list(oracle_table)
    for mask, oracle_list in oracle_table.items():
        fused_list = fused_table.get(mask)
        assert [explain(p) for p in fused_list] == \
            [explain(p) for p in oracle_list]
        assert [_node_fingerprint(p) for p in fused_list] == \
            [_node_fingerprint(p) for p in oracle_list]
    counters = ("join_pairs_considered", "subplan_combinations",
                "plans_retained", "plans_rejected_bloom_constraint",
                "heuristic7_pruned", "cross_products_stitched")
    assert [getattr(fused.stats, name) for name in counters] == \
        [getattr(oracle.stats, name) for name in counters]
    return fused.stats


@pytest.fixture(scope="module")
def paper_stats_workload():
    return TpchWorkload.statistics_only(scale_factor=100.0)


class TestCostBeforeConstruct:
    @pytest.mark.parametrize("mode", list(OptimizerMode),
                             ids=lambda mode: mode.value)
    @pytest.mark.parametrize("number", sorted(QUERY_TEXTS))
    def test_tpch_plan_tables_match_the_oracle(self, paper_stats_workload,
                                               number, mode):
        _assert_fused_step_matches_oracle(
            paper_stats_workload.catalog, paper_stats_workload.query(number),
            resolve_optimizer_settings(mode, None))

    @pytest.mark.parametrize("mode,topology,size", [
        (OptimizerMode.NO_BF, "chain", 6), (OptimizerMode.NO_BF, "star", 6),
        (OptimizerMode.NO_BF, "clique", 5),
        # Bloom-aware DP on a clique carries millions of combinations; the
        # shapes below keep it to a second.
        (OptimizerMode.BF_CBO, "chain", 5), (OptimizerMode.BF_CBO, "star", 5)])
    def test_synthetic_plan_tables_match_the_oracle(self, mode, topology,
                                                    size):
        _assert_fused_step_matches_oracle(
            build_topology_catalog(size, topology),
            build_topology_query(size, topology),
            resolve_optimizer_settings(mode, None))

    def test_heuristic7_plan_table_matches_the_oracle(self,
                                                      paper_stats_workload):
        _assert_fused_step_matches_oracle(
            paper_stats_workload.catalog, paper_stats_workload.query(8),
            BfCboSettings.paper_defaults().with_overrides(
                use_heuristic7=True))

    def test_few_costed_variants_become_plan_nodes(self, paper_stats_workload):
        stats = _assert_fused_step_matches_oracle(
            paper_stats_workload.catalog, paper_stats_workload.query(8),
            BfCboSettings.paper_defaults())
        assert stats.variants_constructed == stats.plans_retained
        assert 0 < stats.variants_constructed <= 0.15 * stats.variants_costed
