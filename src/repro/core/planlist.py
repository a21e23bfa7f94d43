"""Plan lists with property-aware pruning.

A relation (base or join relation) keeps the lowest cost sub-plan *per property
signature* — a higher-cost sub-plan survives only if it carries a property that
cheaper sub-plans lack.  On top of the per-signature minimum, a dominance check
removes sub-plans that are worse on every axis the paper cares about:

* a sub-plan requiring *more* δ relations (a superset of pending Bloom filters)
  is pruned unless it also promises *fewer* rows (Section 3.5);
* a sub-plan that is more expensive, produces at least as many rows, has the
  same distribution and needs a superset of pending Bloom filters is dominated.

Heuristic 7 (Section 3.10 / Table 3) is implemented here as an optional cap on
the number of Bloom filter sub-plans kept per relation.

The DP memo itself is a :class:`PlanTable`: plan lists keyed by the integer
bitmask of their relation set (see :class:`~repro.core.joingraph.JoinGraph`
for the alias↔bit mapping).  Frozenset-keyed dictionaries appear only at the
public seams via :meth:`PlanTable.to_alias_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .joingraph import JoinGraph
from .plans import PlanNode


@dataclass
class PlanList:
    """The set of retained sub-plans for one relation set.

    Plans are additionally bucketed by distribution signature: dominance can
    only hold between plans with the same distribution, so :meth:`add` scans
    one bucket instead of the whole list.  A bucket holds, next to each plan,
    the scalars the dominance rule reads: ``(pending, total, rows, plan)``.
    """

    plans: List[PlanNode] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rebuild_buckets()

    def _rebuild_buckets(self) -> None:
        self._buckets: Dict[
            Tuple, List[Tuple[FrozenSet, float, float, PlanNode]]] = {}
        for plan in self.plans:
            self._buckets.setdefault(
                plan.properties.distribution.signature(), []).append(
                    (plan.properties.pending_blooms, plan.cost.total,
                     plan.rows, plan))

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self.plans)

    # -- pruning rules -----------------------------------------------------

    @staticmethod
    def _dominates(keeper_pending: FrozenSet, keeper_total: float,
                   keeper_rows: float, pending: FrozenSet, total: float,
                   rows: float) -> bool:
        """The dominance rule, on the scalars of two plans with the same
        distribution: True if the keeper makes the challenger redundant."""
        if keeper_pending == pending:
            return keeper_total <= total + 1e-9 and keeper_rows <= rows + 1e-9
        # A keeper that needs something the challenger doesn't leaves the
        # challenger interesting.  A challenger requiring strictly more δ
        # relations than the keeper is only worth keeping if it promises
        # strictly fewer rows (Section 3.5's immediate pruning rule).
        return keeper_pending <= pending and rows >= keeper_rows - 1e-9

    def rejects(self, signature: Tuple, pending: FrozenSet, total: float,
                rows: float) -> bool:
        """Would :meth:`add` turn away a plan with these scalars?

        ``signature`` is the plan's distribution signature.  The join
        enumerator asks this before it builds the plan node.
        """
        dominates = self._dominates
        for keeper_pending, keeper_total, keeper_rows, _ in \
                self._buckets.get(signature, ()):
            if dominates(keeper_pending, keeper_total, keeper_rows,
                         pending, total, rows):
                return True
        return False

    def add(self, plan: PlanNode) -> bool:
        """Try to add ``plan``; returns True if it was retained."""
        signature = plan.properties.distribution.signature()
        pending, total, rows = (plan.properties.pending_blooms,
                                plan.cost.total, plan.rows)
        if self.rejects(signature, pending, total, rows):
            return False
        bucket = self._buckets.setdefault(signature, [])
        dominated = {
            id(other)
            for other_pending, other_total, other_rows, other in bucket
            if self._dominates(pending, total, rows,
                               other_pending, other_total, other_rows)}
        if dominated:
            self.plans = [p for p in self.plans if id(p) not in dominated]
            bucket[:] = [entry for entry in bucket
                         if id(entry[3]) not in dominated]
        self.plans.append(plan)
        bucket.append((pending, total, rows, plan))
        return True

    # -- queries --------------------------------------------------------------

    def best(self) -> Optional[PlanNode]:
        """The cheapest sub-plan without pending Bloom filters, if any;
        otherwise the cheapest overall."""
        complete = [p for p in self.plans if not p.properties.has_pending_blooms]
        pool = complete or self.plans
        if not pool:
            return None
        return min(pool, key=lambda p: p.cost.total)

    def best_any(self) -> Optional[PlanNode]:
        """The cheapest sub-plan regardless of pending Bloom filters."""
        if not self.plans:
            return None
        return min(self.plans, key=lambda p: p.cost.total)

    def bloom_plans(self) -> List[PlanNode]:
        """Sub-plans that still carry pending Bloom filters."""
        return [p for p in self.plans if p.properties.has_pending_blooms]

    def non_bloom_plans(self) -> List[PlanNode]:
        """Sub-plans with no pending Bloom filters."""
        return [p for p in self.plans if not p.properties.has_pending_blooms]

    # -- Heuristic 7 ------------------------------------------------------------

    def apply_heuristic7(self, max_bloom_subplans: int) -> int:
        """Cap the number of Bloom filter sub-plans kept for this relation.

        If the relation has accumulated more than ``max_bloom_subplans``
        Bloom filter sub-plans, keep only the one with the fewest estimated
        rows (ties broken by total cost).  Returns the number of pruned plans.
        """
        bloom_plans = self.bloom_plans()
        if len(bloom_plans) <= max_bloom_subplans:
            return 0
        keeper = min(bloom_plans, key=lambda p: (p.rows, p.cost.total))
        pruned = [p for p in bloom_plans if p is not keeper]
        self.plans = self.non_bloom_plans() + [keeper]
        self._rebuild_buckets()
        return len(pruned)


@dataclass
class PlanTable:
    """The bottom-up DP memo: one :class:`PlanList` per relation-set bitmask."""

    lists: Dict[int, PlanList] = field(default_factory=dict)

    def get(self, mask: int) -> Optional[PlanList]:
        """The plan list for ``mask``, or None if the set was never planned."""
        return self.lists.get(mask)

    def target(self, mask: int) -> PlanList:
        """The plan list for ``mask``, created empty on first use."""
        plan_list = self.lists.get(mask)
        if plan_list is None:
            plan_list = PlanList()
            self.lists[mask] = plan_list
        return plan_list

    def set(self, mask: int, plan_list: PlanList) -> None:
        """Install ``plan_list`` as the memo entry for ``mask``."""
        self.lists[mask] = plan_list

    def __len__(self) -> int:
        return len(self.lists)

    def __iter__(self) -> Iterator[int]:
        return iter(self.lists)

    def items(self) -> Iterable[Tuple[int, "PlanList"]]:
        return self.lists.items()

    def to_alias_dict(self, join_graph: JoinGraph) -> Dict:
        """Frozenset-keyed view for the public optimizer seams."""
        return {join_graph.aliases_of(mask): plan_list
                for mask, plan_list in self.lists.items()}

    @classmethod
    def from_alias_dict(cls, plan_lists: Dict,
                        join_graph: JoinGraph) -> "PlanTable":
        """Mask-keyed table from a frozenset-keyed dictionary."""
        return cls(lists={join_graph.mask_of(relations): plan_list
                          for relations, plan_list in plan_lists.items()})
