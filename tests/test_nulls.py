"""NULL semantics end to end: three-valued logic, IS [NOT] NULL, null-aware
storage, mask-driven outer-join padding and null-skipping aggregates.

The outer-join round-trips double as the regression suite for the seed's
sentinel-collision bug: padding used ``-1`` / NaN / ``""`` literals, so a
legitimate ``-1`` key or empty string in the data was indistinguishable from
"no match"."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Database
from repro.core import (
    AggregateCall,
    AggregateFunction,
    And,
    ColumnRef,
    Comparison,
    ComparisonOp,
    IsNotNull,
    IsNull,
    JoinClause,
    JoinType,
    Literal,
    Not,
    Or,
    OutputItem,
)
from repro.core.expressions import Arithmetic, ArithmeticOp, InList
from repro.executor import Batch, aggregate_batch, equi_join, join_indices
from repro.sql import ast
from repro.sql.parser import parse_select
from repro.storage import Catalog, Table, make_schema
from repro.storage.column import ColumnData, ColumnDef
from repro.storage.statistics import collect_statistics
from repro.storage.types import FLOAT64, INT64, STRING


def masked_resolver(columns):
    """Resolver over ``{name: (values, mask)}`` dicts for expression tests."""

    def resolve(ref):
        values, mask = columns[ref.column]
        return np.asarray(values), (None if mask is None
                                    else np.asarray(mask, dtype=bool))

    return resolve


def values_of(expr, resolve):
    """The values of ``expr`` over a resolver that returns no null masks."""
    return expr.evaluate_masked(lambda ref: (resolve(ref), None))[0]


class TestThreeValuedLogic:
    """Kleene truth tables.  Encoding: (value, null) with null dominant."""

    # Rows: a over [T, F, N]; columns the same for b.  The resolver holds a
    # and b as int columns with masks marking the N positions.
    TRUTH = {
        "a": (np.asarray([1, 1, 1, 0, 0, 0, 0, 0, 0]),
              np.asarray([0, 0, 0, 0, 0, 0, 1, 1, 1], dtype=bool)),
        "b": (np.asarray([1, 0, 0, 1, 0, 0, 1, 0, 0]),
              np.asarray([0, 0, 1, 0, 0, 1, 0, 0, 1], dtype=bool)),
    }

    def _eval(self, predicate):
        resolve = masked_resolver(self.TRUTH)
        is_true, null = predicate.evaluate_masked(resolve)
        null = np.zeros(9, dtype=bool) if null is None else null
        out = []
        for t, n in zip(is_true, null):
            out.append("N" if n else ("T" if t else "F"))
        return out

    def _pred(self, name):
        return Comparison(ComparisonOp.EQ, ColumnRef("t", name), Literal(1))

    def test_and_truth_table(self):
        result = self._eval(And((self._pred("a"), self._pred("b"))))
        #      a=T:          a=F:          a=N:
        assert result == ["T", "F", "N", "F", "F", "F", "N", "F", "N"]

    def test_or_truth_table(self):
        result = self._eval(Or((self._pred("a"), self._pred("b"))))
        assert result == ["T", "T", "T", "T", "F", "N", "T", "N", "N"]

    def test_not_truth_table(self):
        result = self._eval(Not(self._pred("a")))
        assert result == ["F", "F", "F", "T", "T", "T", "N", "N", "N"]

    def test_is_null_never_unknown(self):
        is_true, null = IsNull(ColumnRef("t", "a")).evaluate_masked(
            masked_resolver(self.TRUTH))
        assert null is None
        assert list(is_true) == [False] * 6 + [True] * 3
        is_true, null = IsNotNull(ColumnRef("t", "a")).evaluate_masked(
            masked_resolver(self.TRUTH))
        assert null is None
        assert list(is_true) == [True] * 6 + [False] * 3


class TestScalarNullPropagation:
    COLUMNS = {
        "x": (np.asarray([1.0, 2.0, 0.0]), np.asarray([0, 0, 1], dtype=bool)),
        "y": (np.asarray([10.0, 0.0, 30.0]), np.asarray([0, 1, 0], dtype=bool)),
        "s": (np.asarray(["ab", "", "cd"]), np.asarray([0, 1, 0], dtype=bool)),
    }

    def test_arithmetic_propagates_null(self):
        expr = Arithmetic(ArithmeticOp.ADD, ColumnRef("t", "x"),
                          ColumnRef("t", "y"))
        values, mask = expr.evaluate_masked(masked_resolver(self.COLUMNS))
        assert values[0] == 11.0
        assert list(mask) == [False, True, True]

    def test_comparison_with_null_literal_is_unknown(self):
        pred = Comparison(ComparisonOp.EQ, ColumnRef("t", "x"), Literal(None))
        is_true, null = pred.evaluate_masked(masked_resolver(self.COLUMNS))
        assert not is_true.any()
        assert null.all()
        # Also for a string column with an incomparable operator.
        pred = Comparison(ComparisonOp.LT, ColumnRef("t", "s"), Literal(None))
        is_true, null = pred.evaluate_masked(masked_resolver(self.COLUMNS))
        assert not is_true.any() and null.all()

    def test_comparison_propagates_operand_null(self):
        pred = Comparison(ComparisonOp.GT, ColumnRef("t", "x"), Literal(1.5))
        is_true, null = pred.evaluate_masked(masked_resolver(self.COLUMNS))
        assert list(is_true) == [False, True, False]
        assert list(null) == [False, False, True]

    def test_in_list_with_null_element(self):
        pred = InList(ColumnRef("t", "x"), (1.0, None))
        is_true, null = pred.evaluate_masked(masked_resolver(self.COLUMNS))
        # x=1 matches; x=2 is UNKNOWN (could equal the NULL element); x=NULL
        # is UNKNOWN.
        assert list(is_true) == [True, False, False]
        assert list(null) == [False, True, True]

    def test_mask_free_resolver_evaluates(self):
        resolve = lambda ref: np.asarray([1.0, 2.0, 3.0])
        pred = Comparison(ComparisonOp.LE, ColumnRef("t", "x"), Literal(2.0))
        assert list(values_of(pred, resolve)) == [True, True, False]


class TestSqlFrontend:
    def test_parse_is_null(self):
        stmt = parse_select("select a from t where a is null")
        assert stmt.where == ast.IsNullExpr(operand=ast.ColumnName("a"),
                                            negated=False)

    def test_parse_is_not_null(self):
        stmt = parse_select("select a from t where a is not null")
        assert stmt.where == ast.IsNullExpr(operand=ast.ColumnName("a"),
                                            negated=True)

    def test_parse_null_literal(self):
        stmt = parse_select("select a from t where a = null")
        assert stmt.where == ast.ComparisonExpr(
            op="=", left=ast.ColumnName("a"), right=ast.NullLiteral())

    def test_bind_is_null_roundtrip(self):
        db = Database(Catalog())
        db.register_table("t", {"a": np.asarray([1.0, np.nan, 3.0])})
        block = db.bind("select a from t where a is null")
        [predicate] = block.predicates_for("t")
        assert isinstance(predicate, IsNull)
        assert str(predicate) == "t.a is null"
        block = db.bind("select a from t where a is not null")
        [predicate] = block.predicates_for("t")
        assert isinstance(predicate, IsNotNull)
        assert str(predicate) == "t.a is not null"

    def test_null_literal_folds_through_arithmetic(self):
        db = Database(Catalog())
        db.register_table("t", {"a": np.arange(3)})
        block = db.bind("select a from t where a < null + 1")
        [predicate] = block.predicates_for("t")
        assert predicate.right == Literal(None)


class TestStorageMasks:
    def test_non_nullable_mask_rejected(self):
        definition = ColumnDef("c", INT64, nullable=False)
        with pytest.raises(ValueError):
            ColumnData(definition, np.arange(3),
                       np.asarray([True, False, False]))

    def test_all_false_mask_normalised_away(self):
        definition = ColumnDef("c", INT64, nullable=False)
        data = ColumnData(definition, np.arange(3), np.zeros(3, dtype=bool))
        assert data.null_mask is None

    def test_table_infers_mask_for_nullable_float(self):
        schema = make_schema("t", [("v", FLOAT64, True)])
        table = Table(schema, {"v": np.asarray([1.0, np.nan, 3.0])})
        assert list(table.null_mask("v")) == [False, True, False]
        assert table.null_mask("v")[1]

    def test_from_rows_with_none_cells(self):
        schema = make_schema("t", [("k", INT64), ("v", FLOAT64, True),
                                   ("s", STRING, True)])
        table = Table.from_rows(schema, [(1, 2.5, "x"), (2, None, None)])
        assert table.null_mask("k") is None
        assert list(table.null_mask("v")) == [False, True]
        assert list(table.rows()) == [(1, 2.5, "x"), (2, None, None)]

    def test_statistics_exclude_nulls(self):
        schema = make_schema("t", [("v", FLOAT64, True)])
        table = Table(schema, {"v": np.asarray([1.0, np.nan, 3.0, np.nan])})
        stats = collect_statistics(table).column("v")
        assert stats.null_fraction == pytest.approx(0.5)
        assert stats.ndv == 2
        assert stats.min_value == 1.0 and stats.max_value == 3.0

    def test_selectivity_scales_by_valid_fraction(self):
        """Range/equality estimates on a 90%-NULL column must not pretend
        every row can match."""
        schema = make_schema("t", [("v", FLOAT64, True)])
        values = np.full(100, np.nan)
        values[:10] = np.arange(10, dtype=np.float64) + 100.0
        table = Table(schema, {"v": values})
        stats = collect_statistics(table).column("v")
        assert stats.valid_fraction == pytest.approx(0.1)
        # All valid values are >= 100, but 90% of rows are NULL.
        assert stats.range_selectivity(low=0.0, high=None) <= 0.1 + 1e-9
        assert stats.equality_selectivity() <= 0.1

    def test_select_rows_preserves_masks(self):
        schema = make_schema("t", [("v", FLOAT64, True)])
        table = Table(schema, {"v": np.asarray([1.0, np.nan, 3.0])})
        subset = table.select_rows(np.asarray([1, 2]))
        assert list(subset.null_mask("v")) == [True, False]


class TestRegisterTableInference:
    def test_nan_floats_become_nullable(self):
        db = Database(Catalog())
        table = db.register_table("t", {"v": np.asarray([1.0, np.nan, 3.0])})
        assert table.column_def("v").nullable
        assert list(table.null_mask("v")) == [False, True, False]

    def test_none_objects_become_nullable_strings(self):
        db = Database(Catalog())
        table = db.register_table(
            "t", {"s": np.asarray(["a", None, "c"], dtype=object)})
        assert table.column_def("s").nullable
        assert list(table.null_mask("s")) == [False, True, False]
        # The filler under the mask is not None (analysable by numpy).
        assert table.column("s")[1] == ""

    def test_explicit_null_masks(self):
        db = Database(Catalog())
        table = db.register_table(
            "t", {"k": np.asarray([7, -1, 9])},
            null_masks={"k": [False, True, False]})
        assert table.column_def("k").nullable
        assert list(table.null_mask("k")) == [False, True, False]

    def test_all_valid_stays_fast_path(self):
        db = Database(Catalog())
        table = db.register_table("t", {"v": np.asarray([1.0, 2.0])})
        assert not table.column_def("v").nullable
        assert table.null_mask("v") is None


class TestJoinNullSemantics:
    def test_null_keys_never_match(self):
        probe = np.asarray([1, 2, 3])
        build = np.asarray([1, 2, 3])
        probe_null = np.asarray([False, True, False])
        build_null = np.asarray([False, False, True])
        probe_idx, build_idx, counts = join_indices(probe, build,
                                                    probe_null, build_null)
        assert list(zip(probe_idx, build_idx)) == [(0, 0)]
        assert list(counts) == [1, 0, 0]

    def test_inner_join_drops_null_keys(self):
        probe = Batch({"p.k": np.asarray([1, 2])},
                      {"p.k": np.asarray([False, True])})
        build = Batch({"b.k": np.asarray([1, 2])},
                      {"b.k": np.asarray([False, True])})
        clause = JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))
        joined = equi_join(probe, build, [clause], JoinType.INNER)
        assert joined.num_rows == 1
        assert joined.column("p.k")[0] == 1

    def test_semi_anti_with_null_probe_keys(self):
        probe = Batch({"p.k": np.asarray([1, 2])},
                      {"p.k": np.asarray([False, True])})
        build = Batch({"b.k": np.asarray([1, 2])})
        clause = JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))
        semi = equi_join(probe, build, [clause], JoinType.SEMI)
        anti = equi_join(probe, build, [clause], JoinType.ANTI)
        assert semi.num_rows == 1 and semi.column("p.k")[0] == 1
        assert anti.num_rows == 1 and bool(anti.null_mask("p.k")[0])

    def test_left_join_null_key_rows_are_preserved_padded(self):
        probe = Batch({"p.k": np.asarray([1, 2]),
                       "p.v": np.asarray([10, 20])},
                      {"p.k": np.asarray([False, True])})
        build = Batch({"b.k": np.asarray([1, 2]),
                       "b.w": np.asarray([100, 200])})
        clause = JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))
        joined = equi_join(probe, build, [clause], JoinType.LEFT)
        assert joined.num_rows == 2
        mask = joined.null_mask("b.w")
        assert mask is not None and int(mask.sum()) == 1
        padded = joined.filter(mask)
        assert padded.column("p.v")[0] == 20  # probe values survive intact

    def test_sentinel_collision_regression(self):
        """A legitimate -1 key and "" string survive outer-join padding."""
        probe = Batch({"p.k": np.asarray([-1, 5], dtype=np.int64),
                       "p.s": np.asarray(["", "hello"])})
        build = Batch({"b.k": np.asarray([-1, 7], dtype=np.int64),
                       "b.s": np.asarray(["", "world"])})
        clause = JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))
        full = equi_join(probe, build, [clause], JoinType.FULL)
        # -1 = -1 matches (it is real data, not padding!); 5 and 7 pad out.
        assert full.num_rows == 3
        pk_mask = full.null_mask("p.k")
        bk_mask = full.null_mask("b.k")
        matched = (~pk_mask if pk_mask is not None else np.ones(3, bool)) \
            & (~bk_mask if bk_mask is not None else np.ones(3, bool))
        assert int(matched.sum()) == 1
        row = int(np.flatnonzero(matched)[0])
        assert full.column("p.k")[row] == -1
        assert full.column("b.s")[row] == ""  # empty string is data
        # The padded rows are flagged by mask, not by value.
        assert int(pk_mask.sum()) == 1 and int(bk_mask.sum()) == 1

    def test_composite_key_with_null_component_never_matches(self):
        probe = Batch({"p.a": np.asarray([1, 1]), "p.b": np.asarray([2, 2])},
                      {"p.b": np.asarray([False, True])})
        build = Batch({"b.a": np.asarray([1]), "b.b": np.asarray([2])})
        clauses = [JoinClause(ColumnRef("p", "a"), ColumnRef("b", "a")),
                   JoinClause(ColumnRef("p", "b"), ColumnRef("b", "b"))]
        joined = equi_join(probe, build, clauses, JoinType.INNER)
        assert joined.num_rows == 1


class TestAggregateNullSemantics:
    def _batch(self):
        return Batch(
            {"t.g": np.asarray([1, 1, 2, 2, 3]),
             "t.v": np.asarray([10.0, 0.0, 30.0, 40.0, 0.0])},
            {"t.v": np.asarray([False, True, False, False, True])})

    def test_count_star_vs_count_col(self):
        items = [
            OutputItem(AggregateCall(AggregateFunction.COUNT, None), "all"),
            OutputItem(AggregateCall(AggregateFunction.COUNT,
                                     ColumnRef("t", "v")), "valid"),
        ]
        result = aggregate_batch(self._batch(), [ColumnRef("t", "g")], items)
        assert sorted(zip(result.column("all"), result.column("valid"))) == \
            [(1.0, 0.0), (2.0, 1.0), (2.0, 2.0)]

    def test_sum_avg_min_max_skip_nulls(self):
        items = [
            OutputItem(ColumnRef("t", "g"), "g"),
            OutputItem(AggregateCall(AggregateFunction.SUM,
                                     ColumnRef("t", "v")), "s"),
            OutputItem(AggregateCall(AggregateFunction.AVG,
                                     ColumnRef("t", "v")), "a"),
            OutputItem(AggregateCall(AggregateFunction.MIN,
                                     ColumnRef("t", "v")), "lo"),
            OutputItem(AggregateCall(AggregateFunction.MAX,
                                     ColumnRef("t", "v")), "hi"),
        ]
        result = aggregate_batch(self._batch(), [ColumnRef("t", "g")], items)
        by_group = {g: i for i, g in enumerate(result.column("g"))}
        s, a = result.column("s"), result.column("a")
        assert s[by_group[1]] == 10.0 and a[by_group[1]] == 10.0
        assert s[by_group[2]] == 70.0 and a[by_group[2]] == 35.0
        # Group 3 has no valid input: every aggregate is NULL.
        for name in ("s", "a", "lo", "hi"):
            mask = result.null_mask(name)
            assert mask is not None
            assert bool(mask[by_group[3]])
            assert int(mask.sum()) == 1

    def test_group_by_null_is_its_own_group(self):
        batch = Batch(
            {"t.g": np.asarray([0.0, 1.0, 0.0, 1.0]),
             "t.v": np.asarray([1.0, 2.0, 3.0, 4.0])},
            {"t.g": np.asarray([True, False, True, False])})
        items = [
            OutputItem(ColumnRef("t", "g"), "g"),
            OutputItem(AggregateCall(AggregateFunction.SUM,
                                     ColumnRef("t", "v")), "s"),
        ]
        result = aggregate_batch(batch, [ColumnRef("t", "g")], items)
        assert result.num_rows == 2
        g_mask = result.null_mask("g")
        assert g_mask is not None and int(g_mask.sum()) == 1
        null_row = int(np.flatnonzero(g_mask)[0])
        assert result.column("s")[null_row] == 4.0  # both NULL rows together

    def test_group_by_nullable_object_column(self):
        """Regression: None filler in an object group key must not reach
        np.unique (sorting None against str raises)."""
        batch = Batch(
            {"t.s": np.asarray(["x", None, "", None], dtype=object),
             "t.v": np.asarray([1.0, 2.0, 3.0, 4.0])},
            {"t.s": np.asarray([False, True, False, True])})
        items = [
            OutputItem(ColumnRef("t", "s"), "s"),
            OutputItem(AggregateCall(AggregateFunction.SUM,
                                     ColumnRef("t", "v")), "sv"),
        ]
        result = aggregate_batch(batch, [ColumnRef("t", "s")], items)
        assert result.num_rows == 3  # "x", "" and the NULL group
        s_mask = result.null_mask("s")
        assert s_mask is not None and int(s_mask.sum()) == 1
        null_row = int(np.flatnonzero(s_mask)[0])
        assert result.column("sv")[null_row] == 6.0
        # The empty string is a real group, distinct from NULL.
        valid = {s: v for s, v, m in zip(result.column("s"),
                                         result.column("sv"), s_mask) if not m}
        assert valid == {"x": 1.0, "": 3.0}

    def test_global_aggregate_over_zero_rows(self):
        """SQL: scalar aggregates over an empty input yield one row with
        COUNT = 0 and NULL for SUM/AVG/MIN/MAX."""
        batch = Batch({"t.v": np.asarray([], dtype=np.float64)})
        items = [
            OutputItem(AggregateCall(AggregateFunction.COUNT, None), "n"),
            OutputItem(AggregateCall(AggregateFunction.COUNT,
                                     ColumnRef("t", "v")), "nv"),
            OutputItem(AggregateCall(AggregateFunction.SUM,
                                     ColumnRef("t", "v")), "s"),
            OutputItem(AggregateCall(AggregateFunction.MIN,
                                     ColumnRef("t", "v")), "lo"),
        ]
        result = aggregate_batch(batch, [], items)
        assert result.num_rows == 1
        assert result.column("n")[0] == 0.0
        assert result.column("nv")[0] == 0.0
        for name in ("s", "lo"):
            mask = result.null_mask(name)
            assert mask is not None and bool(mask[0])
        # With a GROUP BY, zero input rows still mean zero groups.
        grouped = aggregate_batch(batch, [ColumnRef("t", "v")], items)
        assert grouped.num_rows == 0

    def test_distinct_count_ignores_nulls(self):
        batch = Batch({"t.v": np.asarray([7.0, 7.0, 8.0, 0.0])},
                      {"t.v": np.asarray([False, False, False, True])})
        items = [OutputItem(AggregateCall(AggregateFunction.COUNT,
                                          ColumnRef("t", "v"), distinct=True),
                            "d")]
        result = aggregate_batch(batch, [], items)
        assert result.column("d")[0] == 2.0


class TestEndToEnd:
    def _database(self):
        db = Database(Catalog())
        db.register_table("users", {
            "id": np.arange(6, dtype=np.int64),
            "score": np.asarray([1.0, np.nan, 3.0, np.nan, 5.0, 6.0]),
            "name": np.asarray(["a", None, "c", "d", None, "f"], dtype=object),
        }, primary_key=["id"])
        return db

    def test_is_null_executes(self):
        session = self._database().connect()
        result = session.execute("select id from users where score is null")
        assert sorted(result.column("id")) == [1, 3]

    def test_is_not_null_executes(self):
        session = self._database().connect()
        result = session.execute(
            "select id from users where score is not null and name is not null")
        assert sorted(result.column("id")) == [0, 2, 5]

    def test_comparison_never_matches_nulls(self):
        session = self._database().connect()
        # NULL scores satisfy neither the predicate nor its negation.
        low = session.execute("select id from users where score < 4")
        high = session.execute("select id from users where not (score < 4)")
        assert sorted(low.column("id")) == [0, 2]
        assert sorted(high.column("id")) == [4, 5]

    def test_count_star_vs_count_col_sql(self):
        session = self._database().connect()
        result = session.execute(
            "select count(*) as rows, count(score) as scored, "
            "sum(score) as total from users")
        assert result.column("rows")[0] == 6.0
        assert result.column("scored")[0] == 4.0
        assert result.column("total")[0] == 15.0

    def test_order_by_puts_nulls_last(self):
        session = self._database().connect()
        result = session.execute(
            "select id, score from users order by score desc")
        ids = list(result.column("id"))
        assert ids[:4] == [5, 4, 2, 0]  # 6.0, 5.0, 3.0, 1.0
        assert sorted(ids[4:]) == [1, 3]
        mask = result.null_mask("score")
        assert mask is not None and list(mask[4:]) == [True, True]
        assert result.null_mask("id") is None

    def test_result_masks_reach_the_facade(self):
        """Regression: a NULL aggregate must be distinguishable from its
        0.0 filler at the QueryResult level, without touching internals."""
        session = self._database().connect()
        result = session.execute(
            "select name, sum(score) as total from users "
            "group by name order by name")
        mask = result.null_mask("total")
        assert mask is not None
        # The NULL-name group holds ids 1 and 4 with scores NaN and 5.0 →
        # total 5.0; group "d" (id 3) has only a NULL score → total NULL.
        rows = result.to_pylist()
        by_name = {row["name"]: row["total"] for row in rows}
        assert by_name["d"] is None
        assert by_name[None] == 5.0

    def test_ordering_predicate_on_null_padded_strings(self):
        """Regression: comparators must never order None filler against a
        string (object columns padded by outer joins / None input)."""
        db = Database(Catalog())
        db.register_table("t", {
            "s": np.asarray(["apple", None, "zebra"], dtype=object),
        })
        session = db.connect()
        result = session.execute("select s from t where s < 'm'")
        assert list(result.column("s")) == ["apple"]
        result = session.execute("select s from t where s in ('zebra')")
        assert list(result.column("s")) == ["zebra"]
        result = session.execute(
            "select s from t where s between 'a' and 'm'")
        assert list(result.column("s")) == ["apple"]

    def test_ordering_comparator_with_none_filler(self):
        """The None filler written by outer-join padding (object columns)
        must not reach the < comparator."""
        columns = {"s": (np.asarray(["apple", None, "zebra"], dtype=object),
                         np.asarray([False, True, False]))}
        pred = Comparison(ComparisonOp.LT, ColumnRef("t", "s"),
                          Literal("m"))
        is_true, null = pred.evaluate_masked(masked_resolver(columns))
        assert list(is_true) == [True, False, False]
        assert list(null) == [False, True, False]

    def test_join_skips_null_keys_end_to_end(self):
        db = Database(Catalog())
        db.register_table("l", {
            "k": np.asarray([1.0, np.nan, 3.0]),
            "lv": np.asarray([10, 20, 30], dtype=np.int64),
        })
        db.register_table("r", {
            "k": np.asarray([1.0, np.nan, 4.0]),
            "rv": np.asarray([100, 200, 400], dtype=np.int64),
        })
        result = db.connect().execute(
            "select lv, rv from l, r where l.k = r.k")
        assert result.num_rows == 1
        assert result.column("lv")[0] == 10 and result.column("rv")[0] == 100

    def test_is_not_null_restores_mask_free_results(self):
        """Once a filter drops every NULL, downstream results are mask-free
        (the kernels short-circuit on all-False masks)."""
        session = self._database().connect()
        result = session.execute(
            "select score, count(*) as c from users "
            "where score is not null group by score order by score")
        assert sorted(result.column("score")) == [1.0, 3.0, 5.0, 6.0]
        assert result.null_mask("score") is None
        assert result.null_mask("c") is None
        assert not result.execution.batch.has_masks()

    def test_tpch_stays_mask_free(self):
        """The all-valid fast path: no masks anywhere in a TPC-H result."""
        db = Database.from_tpch(scale_factor=0.001)
        session = db.connect()
        result = session.execute(db.tpch_query(12))
        assert result.execution is not None
        assert not result.execution.batch.has_masks()


class TestOrderByNullsModifiers:
    """NULLS FIRST / NULLS LAST through parser, binder and executor."""

    def _database(self):
        db = Database(Catalog())
        db.register_table("users", {
            "id": np.arange(6, dtype=np.int64),
            "score": np.asarray([1.0, np.nan, 3.0, np.nan, 5.0, 6.0]),
        }, primary_key=["id"])
        return db

    def test_parser_accepts_modifiers(self):
        statement = parse_select(
            "select a from t order by a desc nulls first, b nulls last, c")
        assert [item.nulls_first for item in statement.order_by] == \
            [True, False, None]
        assert [item.descending for item in statement.order_by] == \
            [True, False, False]

    def test_parser_rejects_bare_nulls(self):
        from repro.sql.errors import ParseError

        with pytest.raises(ParseError):
            parse_select("select a from t order by a nulls")

    def test_nulls_and_first_stay_usable_as_identifiers(self):
        # The modifier words are matched contextually, not lexed as
        # keywords, so columns/aliases may still use them.
        statement = parse_select("select nulls, first from last")
        assert statement.from_tables[0].table == "last"

    def test_nulls_first_executes(self):
        session = self._database().connect()
        result = session.execute(
            "select id, score from users order by score nulls first")
        ids = list(result.column("id"))
        assert sorted(ids[:2]) == [1, 3]           # the NULL scores lead
        assert ids[2:] == [0, 2, 4, 5]             # then ascending values
        mask = result.null_mask("score")
        assert mask is not None and list(mask[:2]) == [True, True]

    def test_nulls_first_with_desc(self):
        session = self._database().connect()
        result = session.execute(
            "select id, score from users order by score desc nulls first")
        ids = list(result.column("id"))
        assert sorted(ids[:2]) == [1, 3]
        assert ids[2:] == [5, 4, 2, 0]

    def test_explicit_nulls_last_matches_default(self):
        session = self._database().connect()
        explicit = session.execute(
            "select id, score from users order by score desc nulls last")
        default = session.execute(
            "select id, score from users order by score desc")
        assert list(explicit.column("id")) == list(default.column("id"))

    def test_desc_orders_strings(self):
        # Regression: DESC used to be silently dropped for non-numeric sort
        # keys (the old negation only handled numeric dtypes).
        db = Database(Catalog())
        db.register_table("t", {
            "id": np.arange(3, dtype=np.int64),
            "name": np.asarray(["a", "c", "b"], dtype=object),
        })
        result = db.connect().execute(
            "select id, name from t order by name desc")
        assert list(result.column("name")) == ["c", "b", "a"]
        assert list(result.column("id")) == [1, 2, 0]

    def test_desc_preserves_large_int_precision(self):
        # Regression: DESC keys used to round-trip through float64, which
        # collapses 2**53 and 2**53 + 1 onto the same key.
        db = Database(Catalog())
        db.register_table("t", {
            "id": np.arange(3, dtype=np.int64),
            "v": np.asarray([2**53, 2**53 + 1, 2**53 - 1], dtype=np.int64),
        })
        result = db.connect().execute("select id, v from t order by v desc")
        assert list(result.column("id")) == [1, 0, 2]

    def test_modifier_is_part_of_the_fingerprint(self):
        db = self._database()
        first = db.bind("select id from users order by score nulls first")
        last = db.bind("select id from users order by score nulls last")
        default = db.bind("select id from users order by score")
        assert first.fingerprint() != last.fingerprint()
        # Explicit NULLS LAST is the default: identical plans, shared cache.
        assert last.fingerprint() == default.fingerprint()


class TestDatetimeNaT:
    """NaT in datetime64 input must populate the null mask, not leak as a
    days-since-epoch sentinel."""

    def test_nat_becomes_nullable(self):
        db = Database(Catalog())
        table = db.register_table("events", {
            "id": np.arange(3, dtype=np.int64),
            "day": np.asarray(["2024-01-01", "NaT", "2024-03-01"],
                              dtype="datetime64[D]"),
        })
        assert table.column_def("day").nullable
        assert list(table.null_mask("day")) == [False, True, False]
        # The filler under the mask is the epoch, not int64-min.
        assert table.column("day")[1] == 0

    def test_nat_merges_with_explicit_mask(self):
        db = Database(Catalog())
        table = db.register_table("events", {
            "day": np.asarray(["2024-01-01", "NaT", "2024-03-01"],
                              dtype="datetime64[D]"),
        }, null_masks={"day": [True, False, False]})
        assert list(table.null_mask("day")) == [True, True, False]

    def test_nat_free_datetimes_stay_fast_path(self):
        db = Database(Catalog())
        table = db.register_table("events", {
            "day": np.asarray(["2024-01-01", "2024-02-01"],
                              dtype="datetime64[D]"),
        })
        assert not table.column_def("day").nullable
        assert table.null_mask("day") is None

    def test_nat_rows_behave_as_sql_nulls(self):
        db = Database(Catalog())
        db.register_table("events", {
            "id": np.arange(4, dtype=np.int64),
            "day": np.asarray(["2024-01-05", "NaT", "2024-03-01", "NaT"],
                              dtype="datetime64[D]"),
        }, primary_key=["id"])
        session = db.connect()
        null_days = session.execute("select id from events where day is null")
        assert sorted(null_days.column("id")) == [1, 3]
        counted = session.execute(
            "select count(*) as rows, count(day) as days from events")
        assert counted.column("rows")[0] == 4.0
        assert counted.column("days")[0] == 2.0


class TestCoalesceNullif:
    """COALESCE / NULLIF over the mask representation (docs/nulls.md)."""

    def _database(self):
        db = Database(Catalog())
        db.register_table("m", {
            "id": np.arange(5, dtype=np.int64),
            "a": np.asarray([1.0, np.nan, np.nan, 4.0, np.nan]),
            "b": np.asarray([np.nan, 2.0, np.nan, 40.0, np.nan]),
            "c": np.asarray([9, 9, 9, 9, 9], dtype=np.int64),
        }, primary_key=["id"])
        return db

    def test_coalesce_first_valid_wins(self):
        session = self._database().connect()
        result = session.execute("select coalesce(a, b, c) as v from m "
                                 "order by id")
        assert result.null_mask("v") is None
        assert list(result.column("v")) == [1.0, 2.0, 9.0, 4.0, 9.0]

    def test_coalesce_all_null_rows_stay_null(self):
        session = self._database().connect()
        result = session.execute("select coalesce(a, b) as v from m "
                                 "order by id")
        assert list(result.null_mask("v")) == [False, False, True, False, True]
        assert result.to_pylist()[2]["v"] is None

    def test_coalesce_mask_free_fast_path(self):
        session = self._database().connect()
        result = session.execute("select coalesce(c, id) as v from m")
        assert result.null_mask("v") is None
        assert list(result.column("v")) == [9] * 5

    def test_coalesce_in_where_and_group_by(self):
        session = self._database().connect()
        result = session.execute(
            "select coalesce(a, 0.0) as bucket, count(*) as n from m "
            "where coalesce(a, b, 0.0) >= 0.0 group by bucket "
            "order by bucket")
        assert list(result.column("bucket")) == [0.0, 1.0, 4.0]
        assert list(result.column("n")) == [3.0, 1.0, 1.0]

    def test_nullif_nulls_matching_rows_only(self):
        session = self._database().connect()
        result = session.execute("select nullif(c, 9) as v from m")
        assert list(result.null_mask("v")) == [True] * 5
        result = session.execute("select nullif(a, 1.0) as v from m "
                                 "order by id")
        # Row 0 matches (-> NULL); NULL inputs stay NULL; others unchanged.
        assert list(result.null_mask("v")) == [True, True, True, False, True]
        assert result.column("v")[3] == 4.0

    def test_nullif_against_null_literal_is_identity(self):
        session = self._database().connect()
        result = session.execute("select nullif(c, null) as v from m")
        assert result.null_mask("v") is None
        assert list(result.column("v")) == [9] * 5

    def test_nested_coalesce_nullif(self):
        session = self._database().connect()
        # nullif(c, 9) is NULL everywhere, so coalesce falls through to b.
        result = session.execute(
            "select coalesce(nullif(c, 9), b, -1.0) as v from m order by id")
        assert list(result.column("v")) == [-1.0, 2.0, -1.0, 40.0, -1.0]
        assert result.null_mask("v") is None
