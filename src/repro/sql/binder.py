"""The binder: lowers the syntactic AST into a bound query block.

Binding resolves table and column names against the catalog, constant-folds
date/interval arithmetic, converts aggregate calls, and — most importantly for
the optimizer — classifies every WHERE conjunct as either an equi-join clause,
a single-relation local predicate, or a multi-relation residual predicate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.expressions import (
    AggregateCall,
    AggregateFunction,
    And,
    Arithmetic,
    ArithmeticOp,
    Between,
    Coalesce,
    ColumnRef,
    Comparison,
    ComparisonOp,
    ExtractYear,
    NullIf,
    InList,
    IsNotNull,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Predicate,
    ScalarExpression,
    conjuncts,
)
from ..core.query import (
    BaseRelation,
    JoinClause,
    OrderItem,
    OutputItem,
    QueryBlock,
)
from ..storage.catalog import Catalog
from ..storage.types import parse_date
from . import ast
from .errors import BindError
from .parser import parse_select

_INTERVAL_DAYS = {"day": 1, "month": 30, "year": 365}

_AGG_FUNCTIONS = {
    "count": AggregateFunction.COUNT,
    "sum": AggregateFunction.SUM,
    "avg": AggregateFunction.AVG,
    "min": AggregateFunction.MIN,
    "max": AggregateFunction.MAX,
}

_ARITHMETIC_OPS = {
    "+": ArithmeticOp.ADD,
    "-": ArithmeticOp.SUB,
    "*": ArithmeticOp.MUL,
    "/": ArithmeticOp.DIV,
}

_COMPARISON_OPS = {
    "=": ComparisonOp.EQ,
    "<>": ComparisonOp.NE,
    "<": ComparisonOp.LT,
    "<=": ComparisonOp.LE,
    ">": ComparisonOp.GT,
    ">=": ComparisonOp.GE,
}


class Binder:
    """Binds one parsed SELECT statement against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._aliases: Dict[str, str] = {}  # alias -> table name

    # ------------------------------------------------------------------

    def bind(self, statement: ast.SelectStatement, name: str = "query") -> QueryBlock:
        """Produce a bound :class:`QueryBlock` from a parsed statement."""
        relations = self._bind_from(statement.from_tables)

        join_clauses: List[JoinClause] = []
        local_predicates: Dict[str, List[Predicate]] = {}
        residual_predicates: List[Predicate] = []
        if statement.where is not None:
            predicate = self._bind_predicate(statement.where)
            for conjunct in conjuncts(predicate):
                self._classify(conjunct, join_clauses, local_predicates,
                               residual_predicates)

        output = self._bind_select_list(statement.select_items)
        group_by = [self._bind_group_by(expr, output)
                    for expr in statement.group_by]
        order_by = self._bind_order_by(statement.order_by, output)

        return QueryBlock(relations=relations, join_clauses=join_clauses,
                          local_predicates=local_predicates,
                          residual_predicates=residual_predicates,
                          output=output, group_by=group_by, order_by=order_by,
                          limit=statement.limit, name=name)

    # -- FROM ------------------------------------------------------------

    def _bind_from(self, table_refs: List[ast.TableRef]) -> List[BaseRelation]:
        relations: List[BaseRelation] = []
        self._aliases = {}
        for ref in table_refs:
            if not self.catalog.has_table(ref.table):
                raise BindError("unknown table %r" % ref.table)
            alias = ref.effective_alias
            if alias in self._aliases:
                raise BindError("duplicate relation alias %r" % alias)
            self._aliases[alias] = ref.table.lower()
            relations.append(BaseRelation(alias=alias, table_name=ref.table.lower()))
        return relations

    # -- name resolution -----------------------------------------------------

    def _resolve_column(self, column: ast.ColumnName) -> ColumnRef:
        if column.qualifier is not None:
            alias = column.qualifier
            if alias not in self._aliases:
                raise BindError("unknown relation alias %r" % alias)
            schema = self.catalog.schema(self._aliases[alias])
            if not schema.has_column(column.name):
                raise BindError("table %r has no column %r"
                                % (self._aliases[alias], column.name))
            return ColumnRef(relation=alias, column=column.name)
        matches = [alias for alias, table in self._aliases.items()
                   if self.catalog.schema(table).has_column(column.name)]
        if not matches:
            raise BindError("column %r not found in any FROM relation"
                            % column.name)
        if len(matches) > 1:
            raise BindError("column %r is ambiguous (relations: %s)"
                            % (column.name, ", ".join(sorted(matches))))
        return ColumnRef(relation=matches[0], column=column.name)

    # -- scalar expressions ------------------------------------------------------

    def _bind_scalar(self, node: ast.SyntaxNode) -> ScalarExpression:
        if isinstance(node, ast.ColumnName):
            return self._resolve_column(node)
        if isinstance(node, ast.NumberLiteral):
            return Literal(node.value)
        if isinstance(node, ast.StringLiteral):
            return Literal(node.value)
        if isinstance(node, ast.NullLiteral):
            return Literal(None)
        if isinstance(node, ast.DateLiteral):
            return Literal(parse_date(node.text))
        if isinstance(node, ast.IntervalLiteral):
            if node.unit not in _INTERVAL_DAYS:
                raise BindError("unsupported interval unit %r" % node.unit)
            return Literal(node.amount * _INTERVAL_DAYS[node.unit])
        if isinstance(node, ast.BinaryOp):
            left = self._bind_scalar(node.left)
            right = self._bind_scalar(node.right)
            if node.op not in _ARITHMETIC_OPS:
                raise BindError("unsupported operator %r" % node.op)
            op = _ARITHMETIC_OPS[node.op]
            # Constant folding keeps date +/- interval arithmetic as literals,
            # which the selectivity estimator can then reason about directly.
            if isinstance(left, Literal) and isinstance(right, Literal):
                if left.value is None or right.value is None:
                    return Literal(None)  # NULL propagates through arithmetic
                value = Arithmetic(op, left, right).evaluate_masked(
                    lambda _: None)[0]  # literal operands: never resolves
                return Literal(value.item() if hasattr(value, "item") else value)
            return Arithmetic(op, left, right)
        if isinstance(node, ast.ExtractExpr):
            if node.field_name != "year":
                raise BindError("only EXTRACT(YEAR ...) is supported")
            return ExtractYear(self._bind_scalar(node.operand))
        if isinstance(node, ast.FunctionCall):
            return self._bind_function(node)
        raise BindError("unsupported scalar expression %r" % type(node).__name__)

    def _bind_function(self, node: ast.FunctionCall) -> ScalarExpression:
        name = node.name.lower()
        if name in _AGG_FUNCTIONS:
            if node.star:
                return AggregateCall(func=_AGG_FUNCTIONS[name], operand=None,
                                     distinct=node.distinct)
            if len(node.args) != 1:
                raise BindError("aggregate %r takes exactly one argument" % name)
            return AggregateCall(func=_AGG_FUNCTIONS[name],
                                 operand=self._bind_scalar(node.args[0]),
                                 distinct=node.distinct)
        if name in ("coalesce", "nullif"):
            if node.star or node.distinct:
                raise BindError("%s does not take * or DISTINCT" % name)
            args = [self._bind_scalar(arg) for arg in node.args]
            if name == "coalesce":
                if len(args) < 2:
                    raise BindError("coalesce takes at least two arguments")
                return Coalesce(tuple(args))
            if len(args) != 2:
                raise BindError("nullif takes exactly two arguments")
            return NullIf(args[0], args[1])
        raise BindError("unsupported function %r" % name)

    # -- predicates ---------------------------------------------------------------

    def _bind_predicate(self, node: ast.SyntaxNode) -> Predicate:
        if isinstance(node, ast.AndExpr):
            return And(tuple(self._bind_predicate(op) for op in node.operands))
        if isinstance(node, ast.OrExpr):
            return Or(tuple(self._bind_predicate(op) for op in node.operands))
        if isinstance(node, ast.NotExpr):
            return Not(self._bind_predicate(node.operand))
        if isinstance(node, ast.ComparisonExpr):
            return Comparison(op=_COMPARISON_OPS[node.op],
                              left=self._bind_scalar(node.left),
                              right=self._bind_scalar(node.right))
        if isinstance(node, ast.BetweenExpr):
            return Between(operand=self._bind_scalar(node.operand),
                           low=self._bind_scalar(node.low),
                           high=self._bind_scalar(node.high))
        if isinstance(node, ast.InExpr):
            values = []
            for value in node.values:
                bound = self._bind_scalar(value)
                if not isinstance(bound, Literal):
                    raise BindError("IN list elements must be literals")
                values.append(bound.value)
            return InList(operand=self._bind_scalar(node.operand),
                          values=tuple(values))
        if isinstance(node, ast.LikeExpr):
            return Like(operand=self._bind_scalar(node.operand),
                        pattern=node.pattern, negated=node.negated)
        if isinstance(node, ast.IsNullExpr):
            operand = self._bind_scalar(node.operand)
            return IsNotNull(operand) if node.negated else IsNull(operand)
        raise BindError("unsupported predicate %r" % type(node).__name__)

    # -- classification -----------------------------------------------------------

    @staticmethod
    def _classify(predicate: Predicate, join_clauses: List[JoinClause],
                  local_predicates: Dict[str, List[Predicate]],
                  residual_predicates: List[Predicate]) -> None:
        """Sort a WHERE conjunct into join clause / local / residual buckets."""
        if isinstance(predicate, Comparison) and predicate.is_equi_join():
            join_clauses.append(JoinClause(left=predicate.left,
                                           right=predicate.right))
            return
        relations = predicate.referenced_relations()
        if len(relations) == 1:
            alias = next(iter(relations))
            local_predicates.setdefault(alias, []).append(predicate)
        else:
            residual_predicates.append(predicate)

    # -- SELECT / ORDER BY ------------------------------------------------------------

    def _bind_select_list(self, items: List[ast.SelectItem]) -> List[OutputItem]:
        output: List[OutputItem] = []
        for index, item in enumerate(items):
            if item.star:
                continue  # SELECT * keeps all join columns; no projection needed
            expression = self._bind_scalar(item.expression)
            name = item.alias or self._default_name(item.expression, index)
            output.append(OutputItem(expression=expression, name=name))
        return output

    @staticmethod
    def _default_name(expression: ast.SyntaxNode, index: int) -> str:
        if isinstance(expression, ast.ColumnName):
            return expression.name
        if isinstance(expression, ast.FunctionCall):
            return expression.name
        return "col%d" % index

    def _bind_group_by(self, expression: ast.SyntaxNode,
                       output: List[OutputItem]) -> ScalarExpression:
        """Bind a GROUP BY expression, allowing SELECT-list aliases.

        ``GROUP BY l_year`` where ``l_year`` is a SELECT alias groups by the
        aliased expression, matching standard SQL behaviour.
        """
        if (isinstance(expression, ast.ColumnName)
                and expression.qualifier is None):
            for item in output:
                if item.name == expression.name and not item.is_aggregate:
                    return item.expression
        return self._bind_scalar(expression)

    def _bind_order_by(self, items: List[ast.OrderByItem],
                       output: List[OutputItem]) -> List[OrderItem]:
        output_names = {item.name for item in output}
        order_by: List[OrderItem] = []
        for item in items:
            expression = item.expression
            # ORDER BY may reference a SELECT-list alias; represent it as an
            # unqualified column so the executor resolves it by output name.
            if (isinstance(expression, ast.ColumnName)
                    and expression.qualifier is None
                    and expression.name in output_names):
                bound: ScalarExpression = ColumnRef(relation="", column=expression.name)
            else:
                bound = self._bind_scalar(expression)
            order_by.append(OrderItem(expression=bound,
                                      descending=item.descending,
                                      nulls_first=bool(item.nulls_first)))
        return order_by


def bind_sql(catalog: Catalog, sql: str, name: str = "query") -> QueryBlock:
    """Parse and bind a SQL string into a query block."""
    statement = parse_select(sql)
    return Binder(catalog).bind(statement, name=name)
