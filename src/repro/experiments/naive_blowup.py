"""Experiment E6: the naïve single-pass blow-up of Section 3.1.

The paper reports that carrying uncosted Bloom filter sub-plans through a
single bottom-up pass made optimization time explode with the number of joined
tables (28 ms / 375 ms / 56 s / >30 min for 3 / 4 / 5 / 6 tables) while the
two-phase approach stays fast.  This experiment builds chain-join queries of
increasing size over a synthetic star/chain schema, runs both the naïve
enumerator and the two-phase optimizer, and reports planning time and the
number of sub-plans maintained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.cardinality import CardinalityEstimator
from ..core.cost import CostModel
from ..core.expressions import ColumnRef, Comparison, ComparisonOp, Literal
from ..core.heuristics import BfCboSettings
from ..core.naive import NaiveBloomEnumerator, NaiveResult
from ..core.optimizer import Optimizer, OptimizerMode
from ..core.query import BaseRelation, JoinClause, QueryBlock
from ..storage.catalog import Catalog
from ..storage.schema import ForeignKey, make_schema
from ..storage.statistics import synthetic_statistics
from ..storage.types import INT64
from ..textutil import format_table


def build_chain_catalog(num_tables: int, base_rows: int = 10_000_000) -> Catalog:
    """A catalog of ``num_tables`` tables joined in a chain.

    Table sizes decrease along the chain so that every join clause has a larger
    and a smaller side (giving Heuristic 1 something to choose) and every table
    carries a filterable column so Bloom filters are worthwhile.
    """
    catalog = Catalog()
    for index in range(num_tables):
        name = "r%d" % index
        rows = max(1_000, int(base_rows / (3 ** index)))
        foreign_keys = []
        if index < num_tables - 1:
            foreign_keys.append(ForeignKey("fk", "r%d" % (index + 1), "pk"))
        schema = make_schema(name,
                             [("pk", INT64), ("fk", INT64), ("attr", INT64)],
                             primary_key=["pk"], foreign_keys=foreign_keys)
        catalog.register_schema(schema, synthetic_statistics(
            name, rows, {"pk": rows, "fk": max(1, rows // 3), "attr": 1_000},
            {"attr": (0.0, 999.0)}))
    return catalog


def build_chain_query(num_tables: int) -> QueryBlock:
    """``r0 ⋈ r1 ⋈ ... ⋈ r{n-1}`` joined on ``r{i}.fk = r{i+1}.pk``."""
    relations = [BaseRelation("r%d" % i, "r%d" % i) for i in range(num_tables)]
    clauses = [JoinClause(ColumnRef("r%d" % i, "fk"),
                          ColumnRef("r%d" % (i + 1), "pk"))
               for i in range(num_tables - 1)]
    # A mild filter on the last (smallest) table gives the Bloom filters a
    # predicate to transfer up the chain.
    local = {"r%d" % (num_tables - 1): [
        Comparison(ComparisonOp.LT,
                   ColumnRef("r%d" % (num_tables - 1), "attr"), Literal(100))]}
    return QueryBlock(relations=relations, join_clauses=clauses,
                      local_predicates=local,
                      name="chain-%d" % num_tables)


@dataclass
class BlowupPoint:
    """Measurements for one chain length."""

    num_tables: int
    naive_seconds: float
    naive_subplans: int
    naive_completed: bool
    two_phase_seconds: float
    two_phase_subplans: int = 0

    @property
    def slowdown(self) -> float:
        """Naïve planning time relative to two-phase planning time."""
        if self.two_phase_seconds <= 0:
            return float("inf")
        return self.naive_seconds / self.two_phase_seconds

    @property
    def subplan_blowup(self) -> float:
        """How many more sub-plans the naïve approach keeps than two-phase."""
        return self.naive_subplans / max(1, self.two_phase_subplans)


@dataclass
class BlowupResult:
    """The Section 3.1 growth curve."""

    points: List[BlowupPoint] = field(default_factory=list)

    def to_text(self) -> str:
        headers = ["tables", "naive (s)", "naive sub-plans", "completed",
                   "two-phase (s)", "two-phase sub-plans", "sub-plan blow-up"]
        rows = [[p.num_tables, "%.4f" % p.naive_seconds, p.naive_subplans,
                 "yes" if p.naive_completed else "budget exceeded",
                 "%.4f" % p.two_phase_seconds, p.two_phase_subplans,
                 "%.1fx" % p.subplan_blowup]
                for p in self.points]
        return format_table(headers, rows,
                            title="Naive vs two-phase planning (Section 3.1)")


def run_naive_blowup(table_counts: Optional[List[int]] = None,
                     naive_budget_seconds: float = 20.0,
                     naive_max_subplans: int = 100_000) -> BlowupResult:
    """Measure naïve vs two-phase planning time for growing chain joins."""
    table_counts = table_counts or [3, 4, 5, 6]
    # Candidates on both sides of every clause (Heuristic 9 style marking) make
    # the unresolved-sub-plan growth visible quickly, exactly the situation the
    # paper's Section 3.1 measurements describe.
    settings = BfCboSettings.paper_defaults().with_overrides(
        min_apply_rows=1.0, use_heuristic9=True)
    result = BlowupResult()
    for count in table_counts:
        catalog = build_chain_catalog(count)
        query = build_chain_query(count)
        estimator = CardinalityEstimator(catalog, query)
        naive = NaiveBloomEnumerator(catalog, query, estimator, CostModel(),
                                     settings,
                                     max_total_subplans=naive_max_subplans,
                                     max_seconds=naive_budget_seconds)
        naive_result = naive.run()

        optimizer = Optimizer(catalog)
        two_phase = optimizer.optimize(query, OptimizerMode.BF_CBO, settings)
        two_phase_subplans = two_phase.enumeration_stats.plans_retained + \
            sum(len(plan_list) for rel, plan_list in two_phase.plan_lists.items()
                if len(rel) == 1)
        result.points.append(BlowupPoint(
            num_tables=count,
            naive_seconds=naive_result.planning_time_seconds,
            naive_subplans=naive_result.subplans_maintained,
            naive_completed=naive_result.completed,
            two_phase_seconds=two_phase.planning_time_ms / 1e3,
            two_phase_subplans=two_phase_subplans))
    return result
