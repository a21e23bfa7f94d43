"""The plan-contract verifier: proving executor invariants at plan time.

Every bug class PRs 1–5 fixed was an *invariant violation* between the
optimizer and the executor that no tool could see until a golden-file diff
caught it at run time: hash-seed-dependent plan choices, Bloom filters
published past their barrier, sentinel values masquerading as NULLs, hidden
sort keys leaking into results.  This module makes those contracts explicit
and machine-checkable: :func:`verify_plan` walks a finished physical plan
(and optionally the bound :class:`~repro.core.query.QueryBlock` it came
from) and checks everything the executor silently assumes.

Contract catalogue (ids match ``docs/analysis.md``):

``column-resolution``
    Every :class:`~repro.core.expressions.ColumnRef` reachable from the plan
    (scan predicates, join clauses, residuals, projections, group-by keys,
    sort keys, exchange hash keys) resolves against the columns its input
    actually produces, with one stable dtype.
``join-key-dtype``
    Equi-join clauses bind one side to each join input and both sides carry
    join-compatible dtypes (identical numpy dtype, or both numeric).
``mask-closure``
    Null-mask propagation is closed: a column that may carry a null mask is
    only ever consumed by operators registered mask-aware — an unregistered
    operator over maskable input is rejected instead of silently reading
    filler as data (the PR 3 sentinel bug class).
``hidden-sort-keys``
    Hidden ORDER BY carrier columns are produced below the sort, dropped
    exactly once, and never collide with a visible output name (PR 5).
``bloom-barrier``
    Every consumed Bloom filter spec has exactly one producing join, the
    build column lives on that join's build (inner) side, and the consuming
    scan sits in the producer's probe (outer) subtree — the only placement
    for which "build completes before any probe morsel is dispatched" holds
    (PR 2's publication barrier).  Built filters must be consumed, and a
    complete plan carries no pending specs.
``cardinality``
    Estimated cardinalities are finite, non-negative, and monotone under
    selection: Bloom filters and LIMIT never increase rows, aggregation
    never exceeds ``max(input, 1)`` groups, row-preserving operators
    preserve rows.

The verifier is wired behind the ``verify_plans`` knob on
:class:`repro.api.Database` (``None`` defers to the ``REPRO_VERIFY_PLANS``
environment default).  The test suite turns it on globally, so every plan
any test produces is verified; production keeps it off by default.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from ..core.expressions import (
    AggregateCall,
    AggregateFunction,
    Arithmetic,
    Coalesce,
    ColumnRef,
    ExtractYear,
    Literal,
    NullIf,
    Predicate,
    ScalarExpression,
)
from ..core.plans import (
    AggregateNode,
    ExchangeNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from ..core.query import JoinType, QueryBlock
from ..errors import PlanContractError
from ..storage.catalog import Catalog
from ..storage.types import BOOL, DataType, FLOAT64, INT64, STRING

#: Relative tolerance for cardinality monotonicity checks: estimates are
#: floats accumulated through multiplications, so exact comparisons would
#: flag rounding noise as violations.
REL_TOL = 1e-6

#: Environment variable consulted by :func:`verify_plans_default`.
VERIFY_PLANS_ENV = "REPRO_VERIFY_PLANS"

#: Operators certified to propagate ``(values, null_mask)`` pairs correctly.
#: A new physical operator must be registered here (after actually handling
#: masks) before plans may route maskable columns through it — the
#: ``mask-closure`` contract fails otherwise.
MASK_AWARE_OPERATORS: Tuple[Type[PlanNode], ...] = (
    ScanNode, JoinNode, ExchangeNode, AggregateNode, SortNode, LimitNode,
    ProjectNode,
)


def verify_plans_default() -> bool:
    """The engine-wide ``verify_plans`` default, read from the environment.

    ``REPRO_VERIFY_PLANS=1`` (or ``true`` / ``on`` / ``yes``) turns plan
    verification on for every :class:`repro.api.Database` that does not
    override the knob; anything else leaves it off.  Tests and CI export the
    variable, production deployments do not — verification is a debugging
    net, not a per-query tax.
    """
    value = os.environ.get(VERIFY_PLANS_ENV, "")
    return value.strip().lower() in ("1", "true", "on", "yes")


@dataclass(frozen=True)
class ContractViolation:
    """One broken plan contract.

    Attributes:
        contract: Contract id (see the module docstring catalogue).
        node_path: ``/``-joined path from the plan root to the offending
            node, labelling join children ``outer``/``inner``.
        message: Human-readable description of the violation.
    """

    contract: str
    node_path: str
    message: str

    def __str__(self) -> str:
        return "[%s] %s (at %s)" % (self.contract, self.message,
                                    self.node_path)


@dataclass(frozen=True)
class _ColumnInfo:
    """What the verifier knows about one column a sub-plan emits."""

    dtype: Optional[DataType]
    nullable: bool


#: Column scope of a sub-plan: ``alias.column`` (or bare output name after a
#: projection/aggregation) mapped to dtype + nullability.
_Scope = Dict[str, _ColumnInfo]


def _literal_dtype(value: object) -> Optional[DataType]:
    """Best-effort dtype of a literal (None for the NULL literal)."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT64
    if isinstance(value, float):
        return FLOAT64
    if isinstance(value, str):
        return STRING
    return None


def _join_compatible(left: DataType, right: DataType) -> bool:
    """True if an equi-join between the two dtypes is well defined.

    Identical physical dtypes always compare exactly; distinct numeric types
    (int64 / float64 / date-as-int64) compare through numpy's promotion
    rules.  Everything else — string against number, bool against date —
    silently matches nothing in numpy, so the contract rejects it.
    """
    if left.numpy_dtype == right.numpy_dtype:
        return True
    return left.is_numeric and right.is_numeric


class PlanContractVerifier:
    """Walks one physical plan and collects contract violations.

    The verifier is read-only and side-effect free: it never mutates the
    plan, and one instance can verify any number of plans against the same
    catalog.  ``query`` is optional — when provided, query-level facts
    (visible output names) sharpen the hidden-sort-key contract.
    """

    def __init__(self, catalog: Catalog,
                 query: Optional[QueryBlock] = None) -> None:
        self.catalog = catalog
        self.query = query
        self._violations: List[ContractViolation] = []
        #: filter_id -> (producing JoinNode, its path)
        self._producers: Dict[str, List[Tuple[JoinNode, str]]] = {}
        #: filter_id -> (consuming ScanNode, spec, path)
        self._consumers: Dict[str, List[Tuple[ScanNode, object, str]]] = {}
        #: hidden sort-key name -> paths of the SortNodes that dropped it
        self._dropped: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------

    def check(self, plan: PlanNode) -> List[ContractViolation]:
        """All contract violations in ``plan`` (empty when it verifies)."""
        self._violations = []
        self._producers = {}
        self._consumers = {}
        self._dropped = {}
        root_scope = self._visit(plan, type(plan).__name__)
        self._check_bloom_edges(plan)
        self._check_root(plan, root_scope)
        return list(self._violations)

    def verify(self, plan: PlanNode) -> None:
        """Raise :class:`~repro.errors.PlanContractError` on any violation."""
        violations = self.check(plan)
        if violations:
            name = self.query.name if self.query is not None else "plan"
            raise PlanContractError(
                "%s violates %d plan contract%s: %s"
                % (name, len(violations),
                   "" if len(violations) == 1 else "s", violations[0]),
                violations=tuple(violations))

    # ------------------------------------------------------------------

    def _report(self, contract: str, path: str, message: str) -> None:
        self._violations.append(ContractViolation(contract=contract,
                                                  node_path=path,
                                                  message=message))

    # -- scope construction ---------------------------------------------------

    def _visit(self, node: PlanNode, path: str) -> _Scope:
        """Dispatch on node type; returns the node's output column scope."""
        self._check_cardinality(node, path)
        if isinstance(node, ScanNode):
            return self._visit_scan(node, path)
        if isinstance(node, JoinNode):
            return self._visit_join(node, path)
        if isinstance(node, ExchangeNode):
            return self._visit_exchange(node, path)
        if isinstance(node, AggregateNode):
            return self._visit_aggregate(node, path)
        if isinstance(node, ProjectNode):
            return self._visit_project(node, path)
        if isinstance(node, SortNode):
            return self._visit_sort(node, path)
        if isinstance(node, LimitNode):
            return self._visit_passthrough(node, path)
        return self._visit_unknown(node, path)

    def _child_path(self, path: str, node: PlanNode, index: int) -> str:
        child = node.children[index]
        if isinstance(node, JoinNode):
            label = "outer" if node.children[index] is node.outer else "inner"
            suffix = ".%s" % label
        elif len(node.children) > 1:
            suffix = "[%d]" % index
        else:
            suffix = ""
        name = type(child).__name__
        if isinstance(child, ScanNode):
            name += "(%s)" % child.alias
        return "%s%s/%s" % (path, suffix, name)

    def _visit_scan(self, node: ScanNode, path: str) -> _Scope:
        scope: _Scope = {}
        if not self.catalog.has_table(node.table_name):
            self._report("column-resolution", path,
                         "scan references unknown table %r" % node.table_name)
            return scope
        schema = self.catalog.schema(node.table_name)
        for column in schema.columns:
            scope["%s.%s" % (node.alias, column.name)] = _ColumnInfo(
                dtype=column.dtype, nullable=column.nullable)
        for predicate in node.predicates:
            self._check_refs(predicate, scope, path,
                             within_alias=node.alias)
        for spec in node.bloom_filters:
            if spec.apply_alias != node.alias:
                self._report(
                    "bloom-barrier", path,
                    "scan of %r consumes filter %r applying to alias %r"
                    % (node.alias, spec.filter_id, spec.apply_alias))
            elif not self._resolve(spec.apply_column, scope):
                self._report(
                    "column-resolution", path,
                    "Bloom filter %r probes unresolvable column %s"
                    % (spec.filter_id, spec.apply_column))
            self._consumers.setdefault(spec.filter_id, []).append(
                (node, spec, path))
        return scope

    def _visit_join(self, node: JoinNode, path: str) -> _Scope:
        if node.outer is None or node.inner is None:
            self._report("column-resolution", path,
                         "join is missing an input")
            return {}
        outer_scope = self._visit(node.outer, self._child_path(path, node, 0))
        inner_scope = self._visit(node.inner, self._child_path(path, node, 1))
        for clause in node.clauses:
            sides = []
            for ref in (clause.left, clause.right):
                if self._resolve(ref, outer_scope):
                    sides.append("outer")
                elif self._resolve(ref, inner_scope):
                    sides.append("inner")
                else:
                    sides.append("dangling")
                    self._report("column-resolution", path,
                                 "join key %s resolves on neither input" % ref)
            if sides == ["outer", "outer"] or sides == ["inner", "inner"]:
                self._report("join-key-dtype", path,
                             "both sides of %s bind to the %s input"
                             % (clause, sides[0]))
            left_info = (self._resolve(clause.left, outer_scope)
                         or self._resolve(clause.left, inner_scope))
            right_info = (self._resolve(clause.right, outer_scope)
                          or self._resolve(clause.right, inner_scope))
            if (left_info is not None and right_info is not None
                    and left_info.dtype is not None
                    and right_info.dtype is not None
                    and not _join_compatible(left_info.dtype,
                                             right_info.dtype)):
                self._report(
                    "join-key-dtype", path,
                    "join key dtypes are incompatible: %s is %s, %s is %s"
                    % (clause.left, left_info.dtype,
                       clause.right, right_info.dtype))
        for spec in node.built_filters:
            self._producers.setdefault(spec.filter_id, []).append((node, path))
            if spec.build_alias not in node.inner.relations:
                self._report(
                    "bloom-barrier", path,
                    "filter %r builds from %s but alias %r is not on this "
                    "join's build (inner) side"
                    % (spec.filter_id, spec.build_column, spec.build_alias))
        # Output scope: SEMI / ANTI joins emit probe rows only; outer joins
        # make the non-preserved side's columns nullable (pad batches carry
        # an all-null mask — PR 3 replaced the sentinel padding).
        scope: _Scope = {}
        nullable_outer = node.join_type is JoinType.FULL
        nullable_inner = node.join_type in (JoinType.LEFT, JoinType.FULL)
        for key, info in outer_scope.items():
            scope[key] = _ColumnInfo(info.dtype,
                                     info.nullable or nullable_outer)
        if node.join_type not in (JoinType.SEMI, JoinType.ANTI):
            for key, info in inner_scope.items():
                if key in scope:
                    self._report("column-resolution", path,
                                 "column %r is produced by both join inputs"
                                 % key)
                    continue
                scope[key] = _ColumnInfo(info.dtype,
                                         info.nullable or nullable_inner)
        for predicate in node.residual_predicates:
            self._check_refs(predicate, scope, path)
        return scope

    def _visit_exchange(self, node: ExchangeNode, path: str) -> _Scope:
        if node.child is None:
            self._report("column-resolution", path, "exchange has no input")
            return {}
        scope = self._visit(node.child, self._child_path(path, node, 0))
        for key in node.hash_keys:
            if not self._resolve(key, scope):
                self._report("column-resolution", path,
                             "exchange hash key %s does not resolve" % key)
        self._check_mask_closure(node, scope, path)
        return scope

    def _visit_aggregate(self, node: AggregateNode, path: str) -> _Scope:
        if node.child is None:
            self._report("column-resolution", path, "aggregate has no input")
            return {}
        child_scope = self._visit(node.child, self._child_path(path, node, 0))
        self._check_mask_closure(node, child_scope, path)
        for expression in node.group_by:
            self._check_refs(expression, child_scope, path)
        scope: _Scope = {}
        for item in node.aggregates:
            self._check_refs(item.expression, child_scope, path)
            scope[item.name] = _ColumnInfo(
                dtype=self._expr_dtype(item.expression, child_scope),
                nullable=self._expr_nullable(item.expression, child_scope))
        return scope

    def _visit_project(self, node: ProjectNode, path: str) -> _Scope:
        if node.child is None:
            self._report("column-resolution", path, "projection has no input")
            return {}
        child_scope = self._visit(node.child, self._child_path(path, node, 0))
        self._check_mask_closure(node, child_scope, path)
        scope: _Scope = {}
        for item in node.items:
            self._check_refs(item.expression, child_scope, path)
            scope[item.name] = _ColumnInfo(
                dtype=self._expr_dtype(item.expression, child_scope),
                nullable=self._expr_nullable(item.expression, child_scope))
        return scope

    def _visit_sort(self, node: SortNode, path: str) -> _Scope:
        if node.child is None:
            self._report("column-resolution", path, "sort has no input")
            return {}
        scope = self._visit(node.child, self._child_path(path, node, 0))
        self._check_mask_closure(node, scope, path)
        for item in node.order_by:
            self._check_sort_key(item.expression, scope, path)
        seen = set()
        for name in node.drop_keys:
            if name in seen:
                self._report("hidden-sort-keys", path,
                             "hidden sort key %r is dropped twice by the "
                             "same sort" % name)
                continue
            seen.add(name)
            self._dropped.setdefault(name, []).append(path)
            if name not in scope:
                self._report(
                    "hidden-sort-keys", path,
                    "hidden sort key %r is not produced by the sort input "
                    "(already dropped, or never carried)" % name)
        return {key: info for key, info in scope.items()
                if key not in seen}

    def _visit_passthrough(self, node: PlanNode, path: str) -> _Scope:
        children = node.children
        if not children:
            self._report("column-resolution", path,
                         "%s has no input" % type(node).__name__)
            return {}
        scope = self._visit(children[0], self._child_path(path, node, 0))
        self._check_mask_closure(node, scope, path)
        return scope

    def _visit_unknown(self, node: PlanNode, path: str) -> _Scope:
        """An operator the verifier has no model for: merge child scopes."""
        scope: _Scope = {}
        for index, child in enumerate(node.children):
            scope.update(self._visit(child, self._child_path(path, node,
                                                             index)))
        self._check_mask_closure(node, scope, path)
        return scope

    # -- individual contracts -------------------------------------------------

    def _resolve(self, ref: ColumnRef, scope: _Scope) -> Optional[_ColumnInfo]:
        """Resolve a column reference in ``scope`` (qualified, then bare)."""
        info = scope.get("%s.%s" % (ref.relation, ref.column))
        if info is not None:
            return info
        if not ref.relation:
            return scope.get(ref.column)
        return None

    def _check_refs(self, expression: object, scope: _Scope, path: str,
                    within_alias: Optional[str] = None) -> None:
        """``column-resolution``: every reference binds inside ``scope``."""
        assert isinstance(expression, (ScalarExpression, Predicate))
        for ref in expression.referenced_columns():
            if within_alias is not None and ref.relation != within_alias:
                self._report(
                    "column-resolution", path,
                    "expression over relation %r references foreign column %s"
                    % (within_alias, ref))
                continue
            if self._resolve(ref, scope) is None:
                self._report("column-resolution", path,
                             "column %s does not resolve against this "
                             "operator's input (available: %s)"
                             % (ref, ", ".join(sorted(scope)) or "<none>"))

    def _check_sort_key(self, expression: ScalarExpression, scope: _Scope,
                        path: str) -> None:
        """Sort keys resolve qualified, bare, or by rendered output name.

        Mirrors the executor's tolerant sort-key lookup: after a projection
        or aggregation the batch is keyed by output names, so an ORDER BY
        item may reference a column qualified, by bare output name, or by
        the rendering of the whole expression.
        """
        refs = expression.referenced_columns()
        if all(self._resolve(ref, scope) is not None for ref in refs):
            return
        if isinstance(expression, ColumnRef) and expression.column in scope:
            return
        if str(expression) in scope:
            return
        self._report("column-resolution", path,
                     "sort key %s does not resolve against the sort input "
                     "(available: %s)"
                     % (expression, ", ".join(sorted(scope)) or "<none>"))

    def _check_mask_closure(self, node: PlanNode, input_scope: _Scope,
                            path: str) -> None:
        """``mask-closure``: maskable columns only flow into aware operators."""
        if isinstance(node, MASK_AWARE_OPERATORS):
            return
        nullable = sorted(key for key, info in input_scope.items()
                          if info.nullable)
        if nullable:
            self._report(
                "mask-closure", path,
                "operator %s is not registered mask-aware but consumes "
                "maskable column(s) %s — register it in "
                "repro.analysis.contracts.MASK_AWARE_OPERATORS after "
                "implementing null-mask propagation"
                % (type(node).__name__, ", ".join(nullable)))

    def _check_cardinality(self, node: PlanNode, path: str) -> None:
        """``cardinality``: non-negative, finite, monotone under selection."""
        rows = node.rows
        if not math.isfinite(rows) or rows < 0:
            self._report("cardinality", path,
                         "estimated rows %r is not a finite non-negative "
                         "number" % rows)
            return
        bound = None
        if isinstance(node, ScanNode) and node.is_bloom_scan:
            if not math.isfinite(node.pre_bloom_rows) \
                    or node.pre_bloom_rows < 0:
                self._report("cardinality", path,
                             "pre-Bloom rows %r is not a finite non-negative "
                             "number" % node.pre_bloom_rows)
            elif rows > node.pre_bloom_rows * (1 + REL_TOL):
                self._report(
                    "cardinality", path,
                    "Bloom-filtered scan grows its input: %g rows out of %g "
                    "pre-Bloom rows (filters only ever drop rows)"
                    % (rows, node.pre_bloom_rows))
        elif isinstance(node, LimitNode) and node.child is not None:
            bound = min(node.child.rows, float(node.limit))
        elif isinstance(node, AggregateNode) and node.child is not None:
            bound = max(node.child.rows, 1.0)
        elif isinstance(node, (SortNode, ExchangeNode, ProjectNode)) \
                and node.children:
            # Row-preserving operators must neither invent nor lose rows.
            child_rows = node.children[0].rows
            if abs(rows - child_rows) > max(child_rows, 1.0) * REL_TOL:
                self._report(
                    "cardinality", path,
                    "row-preserving operator changes cardinality: %g rows "
                    "over a %g-row input" % (rows, child_rows))
        if bound is not None and rows > bound * (1 + REL_TOL) + REL_TOL:
            self._report(
                "cardinality", path,
                "cardinality is not monotone under selection: %g rows "
                "exceeds the operator's input bound %g" % (rows, bound))

    def _check_bloom_edges(self, plan: PlanNode) -> None:
        """``bloom-barrier``: producer/consumer edges respect the barrier."""
        for filter_id, consumers in self._consumers.items():
            producers = self._producers.get(filter_id, [])
            for scan, spec, scan_path in consumers:
                if not producers:
                    self._report(
                        "bloom-barrier", scan_path,
                        "filter %r is consumed but no join builds it"
                        % filter_id)
                    continue
                if len(producers) > 1:
                    self._report(
                        "bloom-barrier", scan_path,
                        "filter %r has %d producing joins (%s); the executor "
                        "publishes the first build and silently skips the "
                        "rest" % (filter_id, len(producers),
                                  ", ".join(p for _, p in producers)))
                join, join_path = producers[0]
                if join.outer is None \
                        or all(node is not scan for node in join.outer.walk()):
                    self._report(
                        "bloom-barrier", scan_path,
                        "scan consuming filter %r is not in the probe "
                        "(outer) subtree of its producing join at %s — the "
                        "filter would be probed before its build completes"
                        % (filter_id, join_path))
        for filter_id, producers in self._producers.items():
            if filter_id not in self._consumers:
                for _, join_path in producers:
                    self._report(
                        "bloom-barrier", join_path,
                        "filter %r is built but no scan consumes it"
                        % filter_id)

    def _check_root(self, plan: PlanNode, root_scope: _Scope) -> None:
        """Whole-plan contracts evaluated once the walk is complete."""
        if plan.properties.pending_blooms:
            pending = sorted(spec.filter_id
                             for spec in plan.properties.pending_blooms)
            self._report(
                "bloom-barrier", type(plan).__name__,
                "complete plan still carries pending Bloom specs: %s"
                % ", ".join(pending))
        if self.query is not None and self.query.output:
            visible = {item.name for item in self.query.output}
            hidden = visible.intersection(self._dropped)
            for name in sorted(hidden):
                self._report(
                    "hidden-sort-keys", self._dropped[name][0],
                    "drop key %r is a visible output column of the query"
                    % name)
            for name, paths in sorted(self._dropped.items()):
                if len(paths) > 1:
                    self._report(
                        "hidden-sort-keys", paths[-1],
                        "hidden sort key %r is dropped by %d sort nodes"
                        % (name, len(paths)))
            missing = visible.difference(root_scope)
            if root_scope and missing:
                self._report(
                    "column-resolution", type(plan).__name__,
                    "plan output is missing visible column(s): %s"
                    % ", ".join(sorted(missing)))

    # -- dtype / nullability inference ---------------------------------------

    def _expr_dtype(self, expression: ScalarExpression,
                    scope: _Scope) -> Optional[DataType]:
        """Best-effort output dtype of an expression (None when unknown)."""
        if isinstance(expression, ColumnRef):
            info = self._resolve(expression, scope)
            return info.dtype if info is not None else None
        if isinstance(expression, Literal):
            return _literal_dtype(expression.value)
        if isinstance(expression, Arithmetic):
            return FLOAT64
        if isinstance(expression, ExtractYear):
            return INT64
        if isinstance(expression, Coalesce):
            return self._expr_dtype(expression.operands[0], scope)
        if isinstance(expression, NullIf):
            return self._expr_dtype(expression.left, scope)
        if isinstance(expression, AggregateCall):
            if expression.func is AggregateFunction.COUNT:
                return INT64
            if expression.func in (AggregateFunction.SUM,
                                   AggregateFunction.AVG):
                return FLOAT64
            if expression.operand is not None:
                return self._expr_dtype(expression.operand, scope)
        return None

    def _expr_nullable(self, expression: ScalarExpression,
                       scope: _Scope) -> bool:
        """May the expression's output carry a null mask?"""
        if isinstance(expression, Literal):
            return expression.value is None
        if isinstance(expression, AggregateCall):
            # Every aggregate except COUNT yields NULL for empty groups.
            return expression.func is not AggregateFunction.COUNT
        if isinstance(expression, ColumnRef):
            info = self._resolve(expression, scope)
            return info.nullable if info is not None else False
        if isinstance(expression, Coalesce):
            return all(self._expr_nullable(op, scope)
                       for op in expression.operands)
        if isinstance(expression, NullIf):
            return True
        refs = expression.referenced_columns()
        return any(self._expr_nullable(ref, scope) for ref in refs)


def check_plan(plan: PlanNode, catalog: Catalog,
               query: Optional[QueryBlock] = None) -> List[ContractViolation]:
    """All contract violations in ``plan`` (empty list when it verifies)."""
    return PlanContractVerifier(catalog, query).check(plan)


def verify_plan(plan: PlanNode, catalog: Catalog,
                query: Optional[QueryBlock] = None) -> None:
    """Verify ``plan``; raises :class:`~repro.errors.PlanContractError`."""
    PlanContractVerifier(catalog, query).verify(plan)
