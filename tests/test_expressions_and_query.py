"""Tests for the bound expression model and the query block / join graph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    And,
    Arithmetic,
    ArithmeticOp,
    BaseRelation,
    Between,
    ColumnRef,
    Comparison,
    ComparisonOp,
    ExtractYear,
    InList,
    JoinClause,
    JoinGraph,
    JoinType,
    Like,
    Literal,
    Not,
    Or,
    QueryBlock,
    conjunction,
    conjuncts,
)
from repro.storage.types import date_to_int


def resolver_for(columns):
    def resolve(ref):
        return np.asarray(columns["%s.%s" % (ref.relation, ref.column)])
    return resolve


def values_of(expr, resolve):
    """The values of ``expr`` over a resolver that returns no null masks."""
    return expr.evaluate_masked(lambda ref: (resolve(ref), None))[0]


class TestScalarExpressions:
    def test_column_and_literal(self):
        resolve = resolver_for({"t.a": [1, 2, 3]})
        assert list(values_of(ColumnRef("t", "a"), resolve)) == [1, 2, 3]
        assert values_of(Literal(7), resolve) == 7

    def test_arithmetic(self):
        resolve = resolver_for({"t.a": [1.0, 2.0], "t.b": [10.0, 20.0]})
        expr = Arithmetic(ArithmeticOp.MUL, ColumnRef("t", "a"),
                          Arithmetic(ArithmeticOp.SUB, Literal(1.0),
                                     ColumnRef("t", "b")))
        assert list(values_of(expr, resolve)) == [-9.0, -38.0]

    def test_division_by_zero_is_zero(self):
        resolve = resolver_for({"t.a": [4.0], "t.b": [0.0]})
        expr = Arithmetic(ArithmeticOp.DIV, ColumnRef("t", "a"), ColumnRef("t", "b"))
        assert values_of(expr, resolve)[0] == 0.0

    def test_extract_year(self):
        days = [date_to_int(1995, 6, 1), date_to_int(1996, 1, 1)]
        resolve = resolver_for({"t.d": days})
        years = values_of(ExtractYear(ColumnRef("t", "d")), resolve)
        assert list(years) == [1995, 1996]

    def test_referenced_relations(self):
        expr = Arithmetic(ArithmeticOp.ADD, ColumnRef("a", "x"), ColumnRef("b", "y"))
        assert expr.referenced_relations() == frozenset({"a", "b"})


class TestPredicates:
    def test_comparison_operators(self):
        resolve = resolver_for({"t.a": [1, 2, 3, 4]})
        col = ColumnRef("t", "a")
        assert list(values_of(Comparison(ComparisonOp.LT, col, Literal(3)), resolve)) == \
            [True, True, False, False]
        assert list(values_of(Comparison(ComparisonOp.GE, col, Literal(3)), resolve)) == \
            [False, False, True, True]
        assert list(values_of(Comparison(ComparisonOp.NE, col, Literal(2)), resolve)) == \
            [True, False, True, True]

    def test_between_and_in(self):
        resolve = resolver_for({"t.a": [1, 5, 10]})
        col = ColumnRef("t", "a")
        between = Between(col, Literal(2), Literal(9))
        assert list(values_of(between, resolve)) == [False, True, False]
        inlist = InList(col, (1, 10))
        assert list(values_of(inlist, resolve)) == [True, False, True]

    def test_like(self):
        resolve = resolver_for({"t.s": np.asarray(["MEDIUM BRASS", "SMALL TIN"],
                                                  dtype=object)})
        like = Like(ColumnRef("t", "s"), "%BRASS")
        assert list(values_of(like, resolve)) == [True, False]
        not_like = Like(ColumnRef("t", "s"), "SMALL%", negated=True)
        assert list(values_of(not_like, resolve)) == [True, False]

    def test_boolean_combinators(self):
        resolve = resolver_for({"t.a": [1, 2, 3, 4]})
        col = ColumnRef("t", "a")
        low = Comparison(ComparisonOp.LE, col, Literal(2))
        high = Comparison(ComparisonOp.GE, col, Literal(4))
        assert list(values_of(Or((low, high)), resolve)) == [True, True, False, True]
        assert list(values_of(And((low, Not(high))), resolve)) == \
            [True, True, False, False]

    def test_is_equi_join(self):
        join = Comparison(ComparisonOp.EQ, ColumnRef("a", "x"), ColumnRef("b", "y"))
        local = Comparison(ComparisonOp.EQ, ColumnRef("a", "x"), Literal(1))
        same_rel = Comparison(ComparisonOp.EQ, ColumnRef("a", "x"), ColumnRef("a", "y"))
        assert join.is_equi_join()
        assert not local.is_equi_join()
        assert not same_rel.is_equi_join()

    def test_conjuncts_flattening(self):
        a = Comparison(ComparisonOp.EQ, ColumnRef("t", "a"), Literal(1))
        b = Comparison(ComparisonOp.EQ, ColumnRef("t", "b"), Literal(2))
        c = Comparison(ComparisonOp.EQ, ColumnRef("t", "c"), Literal(3))
        nested = And((a, And((b, c))))
        assert conjuncts(nested) == [a, b, c]
        assert conjunction([]) is None
        assert conjunction([a]) is a
        assert isinstance(conjunction([a, b]), And)


class TestQueryBlock:
    def _block(self):
        return QueryBlock(
            relations=[BaseRelation("a", "ta"), BaseRelation("b", "tb"),
                       BaseRelation("c", "tc")],
            join_clauses=[
                JoinClause(ColumnRef("a", "x"), ColumnRef("b", "x")),
                JoinClause(ColumnRef("b", "y"), ColumnRef("c", "y")),
            ])

    def test_alias_lookup(self):
        block = self._block()
        assert block.aliases == ["a", "b", "c"]
        assert block.table_name("b") == "tb"

    def test_clauses_between(self):
        block = self._block()
        clauses = block.clauses_between(frozenset({"a"}), frozenset({"b", "c"}))
        assert len(clauses) == 1
        assert clauses[0].relations == frozenset({"a", "b"})

    def test_join_clause_helpers(self):
        clause = JoinClause(ColumnRef("a", "x"), ColumnRef("b", "y"))
        assert clause.column_for("a") == ColumnRef("a", "x")
        assert clause.other("a") == ColumnRef("b", "y")
        with pytest.raises(KeyError):
            clause.column_for("z")

    def test_join_clause_same_relation_rejected(self):
        with pytest.raises(ValueError):
            JoinClause(ColumnRef("a", "x"), ColumnRef("a", "y"))

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ValueError):
            QueryBlock(relations=[BaseRelation("a", "t"), BaseRelation("a", "t")])

    def test_unknown_predicate_alias_rejected(self):
        with pytest.raises(ValueError):
            QueryBlock(relations=[BaseRelation("a", "t")],
                       local_predicates={"zzz": []})

    def test_hashable_join_types(self):
        inner = JoinClause(ColumnRef("a", "x"), ColumnRef("b", "x"))
        anti = JoinClause(ColumnRef("a", "x"), ColumnRef("b", "x"),
                          join_type=JoinType.ANTI)
        assert inner.is_hashable
        assert not anti.is_hashable


class TestJoinGraph:
    def _query(self):
        return QueryBlock(
            relations=[BaseRelation(a, a) for a in ("a", "b", "c", "d")],
            join_clauses=[
                JoinClause(ColumnRef("a", "k"), ColumnRef("b", "k")),
                JoinClause(ColumnRef("b", "k"), ColumnRef("c", "k")),
            ])

    def test_connectivity(self):
        graph = JoinGraph(self._query())
        assert graph.is_connected_set(frozenset({"a", "b", "c"}))
        assert not graph.is_connected_set(frozenset({"a", "c"}))
        assert not graph.is_connected_set(frozenset({"a", "d"}))
        assert graph.is_connected_set(frozenset({"d"}))

    def test_connected_components(self):
        graph = JoinGraph(self._query())
        components = {frozenset(c) for c in graph.connected_components()}
        assert components == {frozenset({"a", "b", "c"}), frozenset({"d"})}

    def test_equivalence_classes(self):
        graph = JoinGraph(self._query())
        columns = graph.equivalent_columns(ColumnRef("a", "k"))
        assert columns == {ColumnRef("a", "k"), ColumnRef("b", "k"),
                           ColumnRef("c", "k")}

    def test_neighbours(self):
        graph = JoinGraph(self._query())
        assert graph.neighbours("b") == {"a", "c"}
        assert graph.neighbours("d") == set()

    def test_are_connected(self):
        graph = JoinGraph(self._query())
        assert graph.are_connected(frozenset({"a"}), frozenset({"b", "d"}))
        assert not graph.are_connected(frozenset({"a"}), frozenset({"d"}))
