"""Tests for the execution engine: batches, join kernels, aggregation and the
plan interpreter (verified against brute-force computation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AggregateCall,
    AggregateFunction,
    ColumnRef,
    JoinClause,
    JoinType,
    Literal,
    OutputItem,
)
from repro.executor import (
    Batch,
    combine_key_columns,
    cross_join,
    equi_join,
    join_indices,
    aggregate_batch,
)
from repro.executor.aggregate import aggregate_batch as aggregate
from repro.core.expressions import Arithmetic, ArithmeticOp


class TestBatch:
    def test_from_columns_and_filter(self):
        batch = Batch({"t.a": np.arange(10), "t.b": np.arange(10) * 2})
        filtered = batch.filter(batch.column("t.a") < 3)
        assert filtered.num_rows == 3
        assert list(filtered.column("t.b")) == [0, 2, 4]

    def test_take_and_merge(self):
        left = Batch({"l.a": np.asarray([1, 2, 3])})
        right = Batch({"r.b": np.asarray([10, 20, 30])})
        merged = left.merge(right)
        assert merged.keys == ["l.a", "r.b"]
        taken = merged.take(np.asarray([2, 0]))
        assert list(taken.column("l.a")) == [3, 1]

    def test_merge_length_mismatch(self):
        with pytest.raises(ValueError):
            Batch({"a": np.arange(3)}).merge(Batch({"b": np.arange(4)}))

    def test_merge_duplicate_column(self):
        with pytest.raises(ValueError):
            Batch({"a": np.arange(3)}).merge(Batch({"a": np.arange(3)}))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Batch({"a": np.arange(3), "b": np.arange(4)})

    def test_resolver(self):
        batch = Batch({"t.a": np.asarray([5, 6])})
        assert list(batch.resolve(ColumnRef("t", "a"))) == [5, 6]
        with pytest.raises(KeyError):
            batch.resolve(ColumnRef("t", "zzz"))


class TestJoinKernels:
    def test_join_indices_with_duplicates(self):
        probe = np.asarray([1, 2, 3])
        build = np.asarray([2, 2, 3, 5])
        probe_idx, build_idx, counts = join_indices(probe, build)
        pairs = sorted(zip(probe[probe_idx], build[build_idx]))
        assert pairs == [(2, 2), (2, 2), (3, 3)]
        assert list(counts) == [0, 2, 1]

    def test_join_indices_empty(self):
        probe_idx, build_idx, counts = join_indices(np.asarray([1, 2]),
                                                    np.asarray([]))
        assert probe_idx.size == 0
        assert list(counts) == [0, 0]

    def test_combine_two_int_columns_exact(self):
        a = np.asarray([1, 1, 2], dtype=np.int64)
        b = np.asarray([7, 8, 7], dtype=np.int64)
        keys = combine_key_columns([a, b])
        assert len(np.unique(keys)) == 3

    def test_combine_object_columns(self):
        a = np.asarray(["x", "y"], dtype=object)
        b = np.asarray([1, 1], dtype=np.int64)
        keys = combine_key_columns([a, b])
        assert keys[0] != keys[1]

    def _batches(self):
        probe = Batch({"p.k": np.asarray([1, 2, 3, 4]),
                       "p.v": np.asarray([10, 20, 30, 40])})
        build = Batch({"b.k": np.asarray([2, 4, 4]),
                       "b.w": np.asarray([200, 400, 401])})
        clause = JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))
        return probe, build, [clause]

    def test_inner_join(self):
        probe, build, clauses = self._batches()
        joined = equi_join(probe, build, clauses, JoinType.INNER)
        assert joined.num_rows == 3
        assert sorted(joined.column("b.w")) == [200, 400, 401]

    def test_semi_and_anti_join(self):
        probe, build, clauses = self._batches()
        semi = equi_join(probe, build, clauses, JoinType.SEMI)
        anti = equi_join(probe, build, clauses, JoinType.ANTI)
        assert sorted(semi.column("p.k")) == [2, 4]
        assert sorted(anti.column("p.k")) == [1, 3]
        assert semi.num_rows + anti.num_rows == probe.num_rows

    def test_left_join_pads_unmatched(self):
        probe, build, clauses = self._batches()
        left = equi_join(probe, build, clauses, JoinType.LEFT)
        assert left.num_rows == 5  # 3 matches + 2 unmatched probe rows
        assert sorted(left.column("p.k")) == [1, 2, 3, 4, 4]

    def test_full_join_preserves_both_sides(self):
        """Regression: FULL previously reused the LEFT path and silently
        dropped unmatched build rows."""
        probe = Batch({"p.k": np.asarray([1, 2, 3]),
                       "p.v": np.asarray([10, 20, 30])})
        build = Batch({"b.k": np.asarray([2, 2, 7, 9]),
                       "b.w": np.asarray([200, 201, 700, 900])})
        clause = JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))
        full = equi_join(probe, build, [clause], JoinType.FULL)
        # 2 matches (k=2 twice) + 2 unmatched probe rows + 2 unmatched build.
        assert full.num_rows == 6
        bw_null = full.null_mask("b.w")
        pk_null = full.null_mask("p.k")
        assert bw_null is not None and int(bw_null.sum()) == 2
        assert pk_null is not None and int(pk_null.sum()) == 2
        assert sorted(full.column("b.w")[~bw_null]) == [200, 201, 700, 900]
        assert sorted(full.column("p.k")[~pk_null]) == [1, 2, 2, 3]
        # Every unmatched build row is padded on ALL probe columns.
        pv_null = full.null_mask("p.v")
        assert np.array_equal(pv_null, pk_null)
        assert sorted(full.column("b.w")[pk_null]) == [700, 900]

    def test_full_join_without_unmatched_build_rows(self):
        probe, build, clauses = self._batches()
        full = equi_join(probe, build, clauses, JoinType.FULL)
        left = equi_join(probe, build, clauses, JoinType.LEFT)
        assert full.num_rows == left.num_rows  # build side fully matched

    def test_full_join_matches_brute_force(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            probe_keys = rng.integers(0, 8, size=rng.integers(0, 15))
            build_keys = rng.integers(0, 8, size=rng.integers(0, 15))
            probe = Batch({"p.k": probe_keys.astype(np.int64)})
            build = Batch({"b.k": build_keys.astype(np.int64)})
            clause = JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))
            if probe.num_rows == 0 or build.num_rows == 0:
                continue
            full = equi_join(probe, build, [clause], JoinType.FULL)
            matches = sum(list(build_keys).count(k) for k in probe_keys)
            unmatched_probe = sum(1 for k in probe_keys
                                  if k not in set(build_keys))
            unmatched_build = sum(1 for k in build_keys
                                  if k not in set(probe_keys))
            assert full.num_rows == matches + unmatched_probe + unmatched_build

    def test_outer_join_padding_keeps_dtypes(self):
        """Regression: string pads were built as dtype=object, silently
        promoting numpy string columns on the padded path."""
        probe = Batch({"p.k": np.asarray([1, 2], dtype=np.int64),
                       "p.s": np.asarray(["x", "y"]),
                       "p.o": np.asarray(["ox", "oy"], dtype=object)})
        build = Batch({"b.k": np.asarray([2, 7], dtype=np.int64),
                       "b.s": np.asarray(["bb", "cc"]),
                       "b.f": np.asarray([1.5, 2.5]),
                       "b.o": np.asarray(["bo", "co"], dtype=object)})
        clause = JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))
        for join_type in (JoinType.LEFT, JoinType.FULL):
            joined = equi_join(probe, build, [clause], join_type)
            assert joined.column("p.k").dtype == probe.column("p.k").dtype
            assert joined.column("b.k").dtype == build.column("b.k").dtype
            assert joined.column("p.s").dtype.kind == "U"
            assert joined.column("b.s").dtype.kind == "U"
            assert joined.column("b.f").dtype == np.dtype(np.float64)
            assert joined.column("p.o").dtype == np.dtype(object)
            assert joined.column("b.o").dtype == np.dtype(object)

    def test_cross_join(self):
        left = Batch({"l.a": np.asarray([1, 2])})
        right = Batch({"r.b": np.asarray([10, 20, 30])})
        assert cross_join(left, right).num_rows == 6

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=0,
                    max_size=50),
           st.lists(st.integers(min_value=0, max_value=4), min_size=0,
                    max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_join_indices_matches_nested_loop(self, probe_keys, build_keys):
        """Property test on duplicate-heavy keys (tiny domain → many dups):
        the sort/search kernel must produce exactly the nested-loop pairs and
        per-probe match counts."""
        probe = np.asarray(probe_keys, dtype=np.int64)
        build = np.asarray(build_keys, dtype=np.int64)
        probe_idx, build_idx, counts = join_indices(probe, build)
        kernel_pairs = sorted(zip(probe_idx.tolist(), build_idx.tolist()))
        brute_pairs = sorted((i, j) for i in range(len(probe_keys))
                             for j in range(len(build_keys))
                             if probe_keys[i] == build_keys[j])
        assert kernel_pairs == brute_pairs
        brute_counts = [build_keys.count(k) for k in probe_keys]
        assert counts.tolist() == brute_counts

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=0,
                    max_size=60),
           st.lists(st.integers(min_value=0, max_value=20), min_size=0,
                    max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_inner_join_matches_brute_force(self, probe_keys, build_keys):
        probe = Batch({"p.k": np.asarray(probe_keys, dtype=np.int64)})
        build = Batch({"b.k": np.asarray(build_keys, dtype=np.int64)})
        clause = JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))
        joined = equi_join(probe, build, [clause])
        expected = sum(build_keys.count(k) for k in probe_keys)
        assert joined.num_rows == expected


class TestAggregation:
    def test_group_by_sum_count(self):
        batch = Batch({"t.g": np.asarray(["a", "b", "a", "a"], dtype=object),
                       "t.v": np.asarray([1.0, 2.0, 3.0, 4.0])})
        items = [
            OutputItem(ColumnRef("t", "g"), "g"),
            OutputItem(AggregateCall(AggregateFunction.SUM, ColumnRef("t", "v")), "s"),
            OutputItem(AggregateCall(AggregateFunction.COUNT, None), "c"),
        ]
        result = aggregate(batch, [ColumnRef("t", "g")], items)
        by_group = dict(zip(result.column("g"), zip(result.column("s"),
                                                    result.column("c"))))
        assert by_group["a"] == (8.0, 3.0)
        assert by_group["b"] == (2.0, 1.0)

    def test_min_max_avg(self):
        batch = Batch({"t.g": np.asarray([1, 1, 2]),
                       "t.v": np.asarray([5.0, 1.0, 7.0])})
        items = [
            OutputItem(AggregateCall(AggregateFunction.MIN, ColumnRef("t", "v")), "lo"),
            OutputItem(AggregateCall(AggregateFunction.MAX, ColumnRef("t", "v")), "hi"),
            OutputItem(AggregateCall(AggregateFunction.AVG, ColumnRef("t", "v")), "avg"),
        ]
        result = aggregate(batch, [ColumnRef("t", "g")], items)
        assert sorted(result.column("lo")) == [1.0, 7.0]
        assert sorted(result.column("hi")) == [5.0, 7.0]
        assert sorted(result.column("avg")) == [3.0, 7.0]

    def test_count_distinct(self):
        batch = Batch({"t.g": np.asarray([1, 1, 1, 2]),
                       "t.v": np.asarray([7, 7, 8, 9])})
        items = [OutputItem(AggregateCall(AggregateFunction.COUNT,
                                          ColumnRef("t", "v"), distinct=True),
                            "d")]
        result = aggregate(batch, [ColumnRef("t", "g")], items)
        assert sorted(result.column("d")) == [1.0, 2.0]

    def test_global_aggregate_without_group_by(self):
        batch = Batch({"t.v": np.asarray([1.0, 2.0, 3.0])})
        items = [OutputItem(AggregateCall(AggregateFunction.SUM,
                                          ColumnRef("t", "v")), "s")]
        result = aggregate(batch, [], items)
        assert result.num_rows == 1
        assert result.column("s")[0] == 6.0

    def test_aggregate_over_expression(self):
        batch = Batch({"t.p": np.asarray([10.0, 20.0]),
                       "t.d": np.asarray([0.1, 0.5])})
        expr = Arithmetic(ArithmeticOp.MUL, ColumnRef("t", "p"),
                          Arithmetic(ArithmeticOp.SUB, Literal(1.0),
                                     ColumnRef("t", "d")))
        items = [OutputItem(AggregateCall(AggregateFunction.SUM, expr), "rev")]
        result = aggregate(batch, [], items)
        assert result.column("rev")[0] == pytest.approx(9.0 + 10.0)

    def test_empty_input(self):
        batch = Batch({"t.g": np.asarray([]), "t.v": np.asarray([])})
        items = [OutputItem(AggregateCall(AggregateFunction.SUM,
                                          ColumnRef("t", "v")), "s")]
        result = aggregate(batch, [ColumnRef("t", "g")], items)
        assert result.num_rows == 0


class TestOrderByNonProjected:
    """ORDER BY on columns the projection drops: hidden sort-key carry."""

    def _database(self):
        from repro.api import Database
        from repro.storage import Catalog

        db = Database(Catalog())
        db.register_table("t", {
            "id": np.asarray([1, 2, 3, 4], dtype=np.int64),
            "score": np.asarray([30.0, 10.0, 40.0, 20.0]),
            "grp": np.asarray([1, 1, 2, 2], dtype=np.int64),
        }, primary_key=["id"])
        return db

    def test_sort_key_carried_and_dropped(self):
        session = self._database().connect()
        result = session.execute("select id from t order by score")
        assert result.columns == ["id"]
        assert list(result.column("id")) == [2, 4, 1, 3]

    def test_qualified_ref_to_aliased_projection_reused(self):
        session = self._database().connect()
        result = session.execute(
            "select t.score as points from t order by t.score desc")
        assert result.columns == ["points"]
        assert list(result.column("points")) == [40.0, 30.0, 20.0, 10.0]

    def test_aggregate_order_by_non_projected_aggregate(self):
        session = self._database().connect()
        result = session.execute(
            "select grp from t group by grp order by sum(score) desc")
        assert result.columns == ["grp"]
        assert list(result.column("grp")) == [2, 1]

    def test_order_by_output_aggregate_without_alias_ref(self):
        session = self._database().connect()
        result = session.execute(
            "select grp, count(*) as cnt from t group by grp "
            "order by count(*) desc, grp")
        assert list(result.column("grp")) == [1, 2]

    def test_hidden_keys_in_plan_not_in_result(self):
        session = self._database().connect()
        result = session.execute(
            "select id from t order by score desc, grp")
        from repro.core.plans import ProjectNode, SortNode

        sort = next(node for node in result.execution.plan.walk()
                    if isinstance(node, SortNode))
        assert set(sort.drop_keys) == {"t.score", "t.grp"}
        project = next(node for node in result.execution.plan.walk()
                       if isinstance(node, ProjectNode))
        assert [item.name for item in project.items] == \
            ["id", "t.score", "t.grp"]
        assert result.columns == ["id"]

    def test_covered_order_by_unchanged(self):
        session = self._database().connect()
        result = session.execute("select id, score from t order by score")
        sort = next(node for node in result.execution.plan.walk()
                    if type(node).__name__ == "SortNode")
        assert sort.drop_keys == ()
        assert list(result.column("id")) == [2, 4, 1, 3]

    def test_limit_above_pruned_sort(self):
        session = self._database().connect()
        result = session.execute(
            "select id from t order by score desc limit 2")
        assert list(result.column("id")) == [3, 1]

    def test_ungrouped_order_key_rejected_under_group_by(self):
        from repro.errors import PlanningError, ReproError

        session = self._database().connect()
        # score is neither grouped nor aggregated: no well-defined value
        # per group, so the carry must refuse instead of sorting by an
        # arbitrary representative row.
        with pytest.raises((PlanningError, ReproError)):
            session.execute("select grp from t group by grp order by score")


class TestExchangeAccounting:
    @pytest.mark.parametrize("dop", [2, 8, 16])
    def test_broadcast_bytes_use_the_cost_model_dop(self, dop):
        """The executor charges broadcasts at the DOP the optimizer priced."""
        from repro.api import Database, OptimizerMode
        from repro.core.cost import DEFAULT_COST_PARAMETERS
        from repro.core.plans import ExchangeKind, ExchangeNode

        db = Database.from_tpch(
            0.005, cost_parameters=DEFAULT_COST_PARAMETERS.with_dop(dop))
        result = db.connect().execute(db.tpch_query(12), OptimizerMode.BF_CBO)
        actual = result.execution.metrics.actual_rows_by_node()
        stack, expected, broadcasts = [result.optimization.plan], 0.0, 0
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if isinstance(node, ExchangeNode):
                copies = 1
                if node.kind is ExchangeKind.BROADCAST:
                    copies, broadcasts = dop, broadcasts + 1
                expected += actual[id(node)] * node.row_width * copies
        assert broadcasts
        assert result.execution.metrics.bytes_exchanged == expected
