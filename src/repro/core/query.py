"""The bound query block: base relations, join clauses and predicates.

A :class:`QueryBlock` is the unit of optimization in the paper ("a single
select-project-join block", Section 3.7/3.8).  It is produced either by the
SQL binder or constructed programmatically (the running example of Section 3
and the synthetic workloads do the latter), and consumed by every optimizer
variant (plain CBO, BF-Post, BF-CBO, naïve).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .expressions import (
    AggregateCall,
    ColumnRef,
    Predicate,
    ScalarExpression,
)


class JoinType(enum.Enum):
    """Join types relevant to Bloom filter legality (Section 3.3)."""

    INNER = "inner"
    LEFT = "left"        # row-preserving side is the left input
    FULL = "full"
    SEMI = "semi"
    ANTI = "anti"


@dataclass(frozen=True)
class BaseRelation:
    """A FROM-list entry: a base table under an alias."""

    alias: str
    table_name: str

    def __str__(self) -> str:
        if self.alias == self.table_name:
            return self.table_name
        return "%s %s" % (self.table_name, self.alias)


@dataclass(frozen=True)
class JoinClause:
    """A single-column equi-join clause ``left = right``.

    Attributes:
        left: Column reference on one relation.
        right: Column reference on the other relation.
        join_type: Logical join type connecting the two relations.  For
            non-inner joins, ``left`` belongs to the row-preserving (outer
            spelled in SQL order) side.
    """

    left: ColumnRef
    right: ColumnRef
    join_type: JoinType = JoinType.INNER

    def __post_init__(self) -> None:
        if self.left.relation == self.right.relation:
            raise ValueError("join clause must reference two distinct relations")

    @property
    def relations(self) -> FrozenSet[str]:
        """The two relation aliases this clause connects."""
        return frozenset((self.left.relation, self.right.relation))

    def column_for(self, alias: str) -> ColumnRef:
        """The side of the clause belonging to relation ``alias``."""
        if self.left.relation == alias:
            return self.left
        if self.right.relation == alias:
            return self.right
        raise KeyError("relation %r not part of join clause %s" % (alias, self))

    def other(self, alias: str) -> ColumnRef:
        """The side of the clause *not* belonging to relation ``alias``."""
        if self.left.relation == alias:
            return self.right
        if self.right.relation == alias:
            return self.left
        raise KeyError("relation %r not part of join clause %s" % (alias, self))

    def connects(self, left_set: FrozenSet[str], right_set: FrozenSet[str]) -> bool:
        """True if this clause joins a relation in each of the two sets."""
        return ((self.left.relation in left_set and self.right.relation in right_set)
                or (self.left.relation in right_set and self.right.relation in left_set))

    @property
    def is_hashable(self) -> bool:
        """True if a hash join (and hence a Bloom filter) can use this clause."""
        return self.join_type in (JoinType.INNER, JoinType.SEMI, JoinType.LEFT)

    def __str__(self) -> str:
        suffix = "" if self.join_type is JoinType.INNER else " [%s]" % self.join_type.value
        return "%s = %s%s" % (self.left, self.right, suffix)


def join_type_between(clauses: Sequence[JoinClause],
                      outer: AbstractSet[str]) -> Optional[JoinType]:
    """Join type of the ``clauses`` connecting an outer (probe) relation set
    to an inner one; None if this orientation is illegal.

    For left-outer/semi/anti joins the row-preserving (left in SQL order)
    side must be on the probe/outer side of our physical join.  FULL
    joins preserve *both* sides and the executor's FULL kernel pads
    unmatched rows from either input, so both orientations are legal —
    the DP is free to pick whichever side is the cheaper build side.
    Clauses carrying *conflicting* non-inner types (e.g. one LEFT and one
    FULL between the same relation sets) have no well-defined single-join
    semantics and are rejected outright.
    """
    join_type = JoinType.INNER
    for clause in clauses:
        if clause.join_type is JoinType.INNER:
            continue
        if join_type is not JoinType.INNER \
                and clause.join_type is not join_type:
            return None
        join_type = clause.join_type
        if clause.join_type is not JoinType.FULL \
                and clause.left.relation not in outer:
            return None
    return join_type


@dataclass(frozen=True)
class OutputItem:
    """One SELECT-list item: an expression plus its output name."""

    expression: ScalarExpression
    name: str

    @property
    def is_aggregate(self) -> bool:
        """True if the item is an aggregate call."""
        return isinstance(self.expression, AggregateCall)


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY item.

    ``nulls_first`` defaults to False — the engine's historical nulls-last
    ordering — so queries without an explicit ``NULLS FIRST`` modifier sort
    (and fingerprint) exactly as before.
    """

    expression: ScalarExpression
    descending: bool = False
    nulls_first: bool = False


@dataclass
class QueryBlock:
    """A bound select-project-join query block.

    Attributes:
        relations: FROM-list base relations, in syntactic order.
        join_clauses: Equi-join clauses extracted from the WHERE clause.
        local_predicates: Per-relation filters, keyed by relation alias.
        residual_predicates: Predicates referencing two or more relations that
            are not simple equi-joins (e.g. the nation-pair OR in TPC-H Q7);
            they are applied once all referenced relations have been joined.
        output: SELECT-list items (may include aggregates).
        group_by: GROUP BY expressions.
        order_by: ORDER BY items.
        limit: Optional LIMIT row count.
        name: Optional human-readable name (e.g. ``"Q7"``), used in reports.
    """

    relations: List[BaseRelation]
    join_clauses: List[JoinClause] = field(default_factory=list)
    local_predicates: Dict[str, List[Predicate]] = field(default_factory=dict)
    residual_predicates: List[Predicate] = field(default_factory=list)
    output: List[OutputItem] = field(default_factory=list)
    group_by: List[ScalarExpression] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    name: str = "query"

    def __post_init__(self) -> None:
        aliases = [rel.alias for rel in self.relations]
        if len(set(aliases)) != len(aliases):
            raise ValueError("duplicate relation aliases in query block")
        self._by_alias = {rel.alias: rel for rel in self.relations}
        self._fingerprint: Optional[str] = None
        self._fingerprint_shape: Optional[Tuple] = None
        for alias in self.local_predicates:
            if alias not in self._by_alias:
                raise ValueError("local predicate on unknown relation %r" % alias)
        for clause in self.join_clauses:
            for alias in clause.relations:
                if alias not in self._by_alias:
                    raise ValueError("join clause references unknown relation %r"
                                     % alias)

    # -- lookups -------------------------------------------------------------

    @property
    def aliases(self) -> List[str]:
        """All relation aliases in FROM order."""
        return [rel.alias for rel in self.relations]

    def relation(self, alias: str) -> BaseRelation:
        """The base relation registered under ``alias``."""
        return self._by_alias[alias]

    def table_name(self, alias: str) -> str:
        """Catalog table name behind ``alias``."""
        return self._by_alias[alias].table_name

    def predicates_for(self, alias: str) -> List[Predicate]:
        """Local predicates attached to relation ``alias``."""
        return list(self.local_predicates.get(alias, []))

    def clauses_between(self, left: FrozenSet[str],
                        right: FrozenSet[str]) -> List[JoinClause]:
        """All join clauses connecting the two relation sets."""
        return [c for c in self.join_clauses if c.connects(left, right)]

    def clauses_for_relation(self, alias: str) -> List[JoinClause]:
        """All join clauses that touch relation ``alias``."""
        return [c for c in self.join_clauses if alias in c.relations]

    def residuals_applicable(self, relations: FrozenSet[str]) -> List[Predicate]:
        """Residual predicates fully covered by ``relations``."""
        return [p for p in self.residual_predicates
                if p.referenced_relations() <= relations]

    @property
    def has_aggregation(self) -> bool:
        """True if the SELECT list or GROUP BY implies aggregation."""
        return bool(self.group_by) or any(item.is_aggregate for item in self.output)

    @property
    def all_relations(self) -> FrozenSet[str]:
        """The full set of relation aliases."""
        return frozenset(self.aliases)

    # -- identity --------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable textual identity of the bound query.

        Two query blocks with equal fingerprints describe the same logical
        query (same relations, join clauses and types, predicates, output,
        grouping, ordering and limit) and therefore optimize to the same plan
        under the same mode and settings — the fingerprint keys the
        :class:`repro.api.Database` plan cache.  Every component renders
        through the deterministic ``__str__`` of the expression tree, so the
        fingerprint is independent of object identity and hash seeds.  The
        query ``name`` is deliberately excluded: renaming a query must not
        defeat the cache.  Memoized: blocks are bound once and treated as
        immutable afterwards, and re-executing a prepared query must not
        re-stringify the whole tree just to hit the cache.  As a guard
        against callers that nevertheless append predicates or output items
        after binding, the memo is keyed on the component counts and
        recomputed when they change (in-place *replacement* of an element
        remains undetected — don't do that to a block you already executed).
        """
        shape = (len(self.relations), len(self.join_clauses),
                 sum(len(preds) for preds in self.local_predicates.values()),
                 len(self.residual_predicates), len(self.output),
                 len(self.group_by), len(self.order_by), self.limit)
        if self._fingerprint is not None and shape == self._fingerprint_shape:
            return self._fingerprint
        parts: List[str] = ["R:" + ";".join(str(rel) for rel in self.relations)]
        parts.append("J:" + ";".join(str(c) for c in self.join_clauses))
        parts.append("L:" + ";".join(
            "%s(%s)" % (alias, "&".join(str(p) for p in
                                        self.local_predicates[alias]))
            for alias in sorted(self.local_predicates)
            if self.local_predicates[alias]))
        parts.append("P:" + ";".join(str(p) for p in self.residual_predicates))
        parts.append("O:" + ";".join("%s=%s" % (item.name, item.expression)
                                     for item in self.output))
        parts.append("G:" + ";".join(str(e) for e in self.group_by))
        parts.append("S:" + ";".join(
            "%s%s%s" % (item.expression, " desc" if item.descending else "",
                        " nulls first" if item.nulls_first else "")
            for item in self.order_by))
        parts.append("T:%s" % self.limit)
        self._fingerprint = "|".join(parts)
        self._fingerprint_shape = shape
        return self._fingerprint

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "QueryBlock(%s: %d relations, %d join clauses)" % (
            self.name, len(self.relations), len(self.join_clauses))
