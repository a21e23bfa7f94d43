"""Tests for the SQL lexer, parser and binder."""

from __future__ import annotations

import pytest

from repro.core import (
    AggregateCall,
    AggregateFunction,
    Between,
    ColumnRef,
    Comparison,
    ComparisonOp,
    InList,
    Like,
    Literal,
    Or,
)
from repro.sql import (
    BindError,
    LexerError,
    ParseError,
    bind_sql,
    parse_select,
    tokenize,
)
from repro.sql.lexer import TokenType
from repro.storage.types import date_to_int


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("select foo from bar")
        assert [t.type for t in tokens[:-1]] == [TokenType.KEYWORD,
                                                 TokenType.IDENTIFIER,
                                                 TokenType.KEYWORD,
                                                 TokenType.IDENTIFIER]

    def test_numbers_and_strings(self):
        tokens = tokenize("42 3.14 'hello world'")
        assert tokens[0].type is TokenType.NUMBER
        assert tokens[1].type is TokenType.NUMBER
        assert tokens[2].type is TokenType.STRING
        assert tokens[2].text == "hello world"

    def test_operators(self):
        tokens = tokenize("a <> b >= c <= d")
        operators = [t.text for t in tokens if t.type is TokenType.OPERATOR]
        assert operators == ["<>", ">=", "<="]

    def test_comments_skipped(self):
        tokens = tokenize("select a -- comment\n from t")
        texts = [t.text for t in tokens if t.type is not TokenType.END]
        assert "comment" not in texts

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize("select 'oops")

    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("select a @ b")

    def test_ends_with_end_token(self):
        assert tokenize("select 1")[-1].type is TokenType.END


class TestParser:
    def test_simple_select(self):
        stmt = parse_select("select a, b from t where a = 1")
        assert len(stmt.select_items) == 2
        assert len(stmt.from_tables) == 1
        assert stmt.where is not None

    def test_star(self):
        stmt = parse_select("select * from t1, t2")
        assert stmt.select_items[0].star
        assert len(stmt.from_tables) == 2

    def test_aliases(self):
        stmt = parse_select("select n1.n_name as supp from nation n1, nation n2")
        assert stmt.select_items[0].alias == "supp"
        assert stmt.from_tables[0].effective_alias == "n1"
        assert stmt.from_tables[1].effective_alias == "n2"

    def test_group_order_limit(self):
        stmt = parse_select(
            "select a, count(*) as c from t group by a order by c desc limit 5")
        assert len(stmt.group_by) == 1
        assert stmt.order_by[0].descending
        assert stmt.limit == 5

    def test_between_and_in(self):
        stmt = parse_select(
            "select a from t where a between 1 and 10 and b in (1, 2, 3)")
        assert stmt.where is not None

    def test_date_and_interval(self):
        stmt = parse_select(
            "select a from t where d >= date '1994-01-01' and "
            "d < date '1994-01-01' + interval '1' year")
        assert stmt.where is not None

    def test_extract(self):
        stmt = parse_select("select extract(year from d) as y from t")
        assert stmt.select_items[0].alias == "y"

    def test_like_and_not_like(self):
        stmt = parse_select(
            "select a from t where a like '%x%' and b not like 'y%'")
        assert stmt.where is not None

    def test_missing_from_raises(self):
        with pytest.raises(ParseError):
            parse_select("select a")

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_select("select a from t where a = 1 1")

    def test_unbalanced_parenthesis_raises(self):
        with pytest.raises(ParseError):
            parse_select("select a from t where (a = 1")


class TestBinder:
    def test_join_classification(self, tpch_catalog):
        query = bind_sql(tpch_catalog, """
            select count(*) from orders, lineitem
            where o_orderkey = l_orderkey and l_shipmode in ('MAIL', 'SHIP')
        """, name="mini")
        assert len(query.join_clauses) == 1
        assert query.join_clauses[0].relations == frozenset({"orders", "lineitem"})
        assert len(query.predicates_for("lineitem")) == 1
        assert not query.predicates_for("orders")

    def test_local_predicate_types(self, tpch_catalog):
        query = bind_sql(tpch_catalog, """
            select count(*) from part
            where p_size = 15 and p_type like '%BRASS'
              and p_retailprice between 100 and 200
        """)
        predicates = query.predicates_for("part")
        types = {type(p) for p in predicates}
        assert types == {Comparison, Like, Between}

    def test_residual_predicate(self, tpch_catalog):
        query = bind_sql(tpch_catalog, """
            select count(*) from nation n1, nation n2, supplier
            where s_nationkey = n1.n_nationkey
              and ((n1.n_name = 'FRANCE' and n2.n_name = 'GERMANY')
                   or (n1.n_name = 'GERMANY' and n2.n_name = 'FRANCE'))
        """)
        assert len(query.residual_predicates) == 1
        assert isinstance(query.residual_predicates[0], Or)
        assert query.residual_predicates[0].referenced_relations() == \
            frozenset({"n1", "n2"})

    def test_date_literal_binding(self, tpch_catalog):
        query = bind_sql(tpch_catalog, """
            select count(*) from orders where o_orderdate < date '1995-03-15'
        """)
        predicate = query.predicates_for("orders")[0]
        assert isinstance(predicate, Comparison)
        assert predicate.right == Literal(date_to_int(1995, 3, 15))

    def test_interval_constant_folding(self, tpch_catalog):
        query = bind_sql(tpch_catalog, """
            select count(*) from orders
            where o_orderdate < date '1994-01-01' + interval '1' year
        """)
        predicate = query.predicates_for("orders")[0]
        assert isinstance(predicate.right, Literal)
        assert predicate.right.value == date_to_int(1994, 1, 1) + 365

    def test_arithmetic_constant_folding(self, tpch_catalog):
        query = bind_sql(tpch_catalog, """
            select count(*) from orders where o_orderkey < 2 * 3 + 1
        """)
        predicate = query.predicates_for("orders")[0]
        # Arithmetic evaluates in float64; the folded literal is a plain
        # Python scalar, not a numpy one.
        assert predicate.right == Literal(7.0)
        assert type(predicate.right.value) is float

    def test_aggregate_binding(self, tpch_catalog):
        query = bind_sql(tpch_catalog, """
            select l_shipmode, count(*) as cnt, sum(l_quantity) as qty
            from lineitem group by l_shipmode
        """)
        assert query.has_aggregation
        aggregates = [item for item in query.output if item.is_aggregate]
        assert {item.expression.func for item in aggregates} == \
            {AggregateFunction.COUNT, AggregateFunction.SUM}

    def test_group_by_alias(self, tpch_catalog):
        query = bind_sql(tpch_catalog, """
            select extract(year from o_orderdate) as o_year, count(*) as c
            from orders group by o_year
        """)
        assert len(query.group_by) == 1
        assert not isinstance(query.group_by[0], ColumnRef)

    def test_ambiguous_column_raises(self, tpch_catalog):
        with pytest.raises(BindError):
            bind_sql(tpch_catalog, "select n_name from nation n1, nation n2")

    def test_unknown_table_raises(self, tpch_catalog):
        with pytest.raises(BindError):
            bind_sql(tpch_catalog, "select 1 from nonexistent")

    def test_unknown_column_raises(self, tpch_catalog):
        with pytest.raises(BindError):
            bind_sql(tpch_catalog, "select zzz from nation")

    def test_duplicate_alias_raises(self, tpch_catalog):
        with pytest.raises(BindError):
            bind_sql(tpch_catalog, "select 1 from nation n, region n")

    def test_unqualified_resolution(self, tpch_catalog):
        query = bind_sql(tpch_catalog, """
            select count(*) from customer, orders where c_custkey = o_custkey
        """)
        clause = query.join_clauses[0]
        assert {clause.left.relation, clause.right.relation} == \
            {"customer", "orders"}


class TestScalarFunctionBinding:
    """COALESCE / NULLIF lower through the generic function-call syntax."""

    def test_coalesce_binds(self, tpch_catalog):
        query = bind_sql(tpch_catalog,
                         "select coalesce(o_orderstatus, 'none') as c from orders")
        expression = query.output[0].expression
        assert type(expression).__name__ == "Coalesce"
        assert str(expression) == "coalesce(orders.o_orderstatus, 'none')"

    def test_nullif_binds(self, tpch_catalog):
        query = bind_sql(tpch_catalog,
                         "select nullif(o_orderkey, 0) from orders")
        expression = query.output[0].expression
        assert type(expression).__name__ == "NullIf"
        assert query.output[0].name == "nullif"

    def test_coalesce_arity_enforced(self, tpch_catalog):
        with pytest.raises(BindError):
            bind_sql(tpch_catalog, "select coalesce(o_orderkey) from orders")
        with pytest.raises(BindError):
            bind_sql(tpch_catalog,
                     "select nullif(o_orderkey, 1, 2) from orders")

    def test_functions_fingerprint_distinctly(self, tpch_catalog):
        a = bind_sql(tpch_catalog,
                     "select coalesce(o_totalprice, 1) from orders")
        b = bind_sql(tpch_catalog,
                     "select coalesce(o_totalprice, 2) from orders")
        assert a.fingerprint() != b.fingerprint()
