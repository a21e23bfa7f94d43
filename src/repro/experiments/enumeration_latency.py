"""Planner-latency microbenchmark on large synthetic join topologies.

The TPC-H queries top out at eight relations, which hides the asymptotic cost
of join enumeration.  This experiment builds statistics-only chain, star and
clique queries of 10+ relations — the shapes with the fewest, an intermediate
number, and the most connected subgraphs respectively — and measures

* the time to exhaust :meth:`JoinEnumerator.enumerate_join_pairs` (the
  structural walk both BF-CBO phases pay),
* full planning time through the :class:`Optimizer` facade, and
* the adaptive planner's behaviour (:func:`run_adaptive_latency` /
  :func:`run_adaptive_speedup`): which points run the exact DP, which fall
  back to the GOO/IKKBZ greedy ordering, and how large the resulting
  speedup is on clique shapes where the exact DP is intractable.

It is the benchmark used to validate the bitmask DPccp enumeration rewrite
and the budget/fallback work on top of it (see ``docs/enumeration.md``): the
pair walk must emit exactly the connected (csg, cmp) pairs without scanning
the 2^n disconnected subsets, and planning time must stay bounded past the
fallback regime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.cardinality import CardinalityEstimator
from ..core.cost import CostModel
from ..core.enumerator import JoinEnumerator
from ..core.expressions import ColumnRef
from ..core.heuristics import BfCboSettings
from ..core.optimizer import Optimizer, OptimizerMode
from ..core.query import BaseRelation, JoinClause, QueryBlock
from ..storage.catalog import Catalog
from ..storage.schema import make_schema
from ..storage.statistics import synthetic_statistics
from ..storage.types import INT64
from ..textutil import format_table

#: The topologies the benchmark understands.
TOPOLOGIES = ("chain", "star", "clique")


def build_topology_catalog(num_tables: int, topology: str,
                           base_rows: int = 10_000_000) -> Catalog:
    """Statistics-only catalog for one synthetic join topology.

    Every table carries a primary key ``pk`` plus one join column per edge it
    participates in, so each clause joins distinct columns and the estimator
    sees sensible per-column distinct counts.
    """
    catalog = Catalog()
    for index in range(num_tables):
        name = "r%d" % index
        rows = max(1_000, int(base_rows / (2 ** index)))
        columns = [("pk", INT64)]
        ndv = {"pk": rows}
        for other in _edge_partners(num_tables, topology, index):
            column = "j%d" % other
            columns.append((column, INT64))
            ndv[column] = max(1, rows // 2)
        schema = make_schema(name, columns, primary_key=["pk"])
        catalog.register_schema(schema, synthetic_statistics(name, rows, ndv))
    return catalog


def build_topology_query(num_tables: int, topology: str) -> QueryBlock:
    """Chain / star / clique query over the matching synthetic catalog."""
    relations = [BaseRelation("r%d" % i, "r%d" % i) for i in range(num_tables)]
    clauses = [JoinClause(ColumnRef("r%d" % i, "j%d" % j),
                          ColumnRef("r%d" % j, "j%d" % i))
               for i, j in _edges(num_tables, topology)]
    return QueryBlock(relations=relations, join_clauses=clauses,
                      name="%s-%d" % (topology, num_tables))


def _edges(num_tables: int, topology: str) -> List[Tuple[int, int]]:
    if topology == "chain":
        return [(i, i + 1) for i in range(num_tables - 1)]
    if topology == "star":
        return [(0, i) for i in range(1, num_tables)]
    if topology == "clique":
        return [(i, j) for i in range(num_tables)
                for j in range(i + 1, num_tables)]
    raise ValueError("unknown topology %r (expected one of %r)"
                     % (topology, TOPOLOGIES))


def _edge_partners(num_tables: int, topology: str, index: int) -> List[int]:
    partners = []
    for i, j in _edges(num_tables, topology):
        if i == index:
            partners.append(j)
        elif j == index:
            partners.append(i)
    return partners


@dataclass
class EnumerationLatencyPoint:
    """Measurements for one (topology, size) query."""

    query: str
    num_tables: int
    join_pairs: int
    enumeration_ms: float
    #: Full planning latency; 0.0 when planning was skipped for the point
    #: (the clique DP is orders of magnitude larger than its enumeration).
    planning_ms: float = 0.0
    #: Of the planned point's DP (0 when planning was skipped): physical
    #: variants priced as float pairs, and how many of them the plan lists
    #: let through to become plan nodes (docs/enumeration.md).
    variants_costed: int = 0
    variants_constructed: int = 0


@dataclass
class EnumerationLatencyResult:
    """All measured topology points."""

    points: List[EnumerationLatencyPoint] = field(default_factory=list)

    def point(self, query: str) -> EnumerationLatencyPoint:
        for point in self.points:
            if point.query == query:
                return point
        raise KeyError(query)

    def to_text(self) -> str:
        headers = ["query", "tables", "join pairs", "enumeration (ms)",
                   "planning (ms)", "variants costed", "constructed"]
        rows = [[p.query, p.num_tables, p.join_pairs,
                 "%.2f" % p.enumeration_ms, "%.2f" % p.planning_ms,
                 p.variants_costed, p.variants_constructed]
                for p in self.points]
        return format_table(headers, rows,
                            title="Join enumeration latency on synthetic topologies")


def measure_enumeration(catalog: Catalog, query: QueryBlock) -> Tuple[int, float]:
    """(pair count, milliseconds) to exhaust the structural pair walk.

    Runs under :data:`EXACT_DP_SETTINGS`: this harness validates the exact
    DPccp walk, so the adaptive budget/threshold must never swap in the
    greedy fallback here (it would quietly measure 2(n-1) greedy pairs).
    """
    estimator = CardinalityEstimator(catalog, query)
    enumerator = JoinEnumerator(catalog, query, estimator, CostModel(),
                                EXACT_DP_SETTINGS)
    started = time.perf_counter()
    pairs = sum(1 for _ in enumerator.enumerate_join_pairs())
    elapsed_ms = (time.perf_counter() - started) * 1e3
    return pairs, elapsed_ms


#: Settings that force the exact DPccp DP regardless of size — the baseline
#: the adaptive planner is compared against.
EXACT_DP_SETTINGS = BfCboSettings.disabled().with_overrides(
    enumeration_budget=0, fallback_relation_threshold=0)

#: The (topology, size) grid tracked across PRs by the planner-latency
#: benchmark's machine-readable output.
TRAJECTORY_GRID: Tuple[Tuple[str, int], ...] = tuple(
    (topology, size) for topology in TOPOLOGIES for size in (8, 12, 16, 20))

#: Settings the trajectory grid runs under: the default adaptive planner,
#: with a tighter pair budget so the heavyweight exact mid-points (a clique-8
#: DP alone costs minutes) fall back and the whole grid stays benchmarkable.
TRAJECTORY_SETTINGS = BfCboSettings.disabled().with_overrides(
    enumeration_budget=500)


@dataclass
class AdaptivePlanningPoint:
    """One full planning measurement under the adaptive planner."""

    query: str
    num_tables: int
    planning_ms: float
    #: "" when the exact DP ran; "budget" / "relations" when the greedy
    #: fallback supplied the join order.
    fallback_reason: str
    join_pairs: int
    estimated_cost: float


@dataclass
class AdaptiveLatencyResult:
    """Adaptive planning measurements over a (topology, size) grid."""

    points: List[AdaptivePlanningPoint] = field(default_factory=list)

    def point(self, query: str) -> AdaptivePlanningPoint:
        for point in self.points:
            if point.query == query:
                return point
        raise KeyError(query)

    def to_text(self) -> str:
        headers = ["query", "tables", "planning (ms)", "fallback",
                   "join pairs"]
        rows = [[p.query, p.num_tables, "%.2f" % p.planning_ms,
                 p.fallback_reason or "exact", p.join_pairs]
                for p in self.points]
        return format_table(headers, rows,
                            title="Adaptive planner latency")


@dataclass
class AdaptiveSpeedupResult:
    """Adaptive clique planning versus the exact DP baseline.

    The exact baseline deliberately runs at a *smaller* clique than the
    adaptive measurement: exact clique DP latency grows without bound (a
    clique-8 DP already takes minutes), and it is monotonically increasing in
    the relation count, so ``speedup`` is a **lower bound** on the true
    same-size ratio — if adaptive clique-20 beats exact clique-7 by 10x, it
    beats exact clique-20 by far more.
    """

    exact: AdaptivePlanningPoint
    adaptive: AdaptivePlanningPoint

    @property
    def speedup(self) -> float:
        return self.exact.planning_ms / max(self.adaptive.planning_ms, 1e-9)


def measure_planning(num_tables: int, topology: str,
                     settings: Optional[BfCboSettings] = None,
                     ) -> AdaptivePlanningPoint:
    """Full NO-BF planning latency of one synthetic topology point."""
    catalog = build_topology_catalog(num_tables, topology)
    query = build_topology_query(num_tables, topology)
    optimizer = Optimizer(catalog)
    result = optimizer.optimize(query, OptimizerMode.NO_BF, settings)
    stats = result.enumeration_stats
    return AdaptivePlanningPoint(
        query=query.name, num_tables=num_tables,
        planning_ms=result.planning_time_ms,
        fallback_reason=stats.fallback_reason,
        join_pairs=stats.join_pairs_considered,
        estimated_cost=result.estimated_cost)


def run_adaptive_latency(specs: Optional[Tuple[Tuple[str, int], ...]] = None,
                         settings: Optional[BfCboSettings] = None,
                         ) -> AdaptiveLatencyResult:
    """Measure full planning over a grid under the adaptive planner."""
    specs = specs if specs is not None else TRAJECTORY_GRID
    settings = settings if settings is not None else TRAJECTORY_SETTINGS
    result = AdaptiveLatencyResult()
    for topology, num_tables in specs:
        result.points.append(measure_planning(num_tables, topology, settings))
    return result


def run_adaptive_speedup(adaptive_spec: Tuple[str, int] = ("clique", 20),
                         exact_spec: Tuple[str, int] = ("clique", 7),
                         ) -> AdaptiveSpeedupResult:
    """Adaptive large-clique planning versus the exact-DP lower bound."""
    exact = measure_planning(exact_spec[1], exact_spec[0], EXACT_DP_SETTINGS)
    adaptive = measure_planning(adaptive_spec[1], adaptive_spec[0])
    return AdaptiveSpeedupResult(exact=exact, adaptive=adaptive)


def run_enumeration_latency(specs: Optional[List[Tuple[str, int]]] = None,
                            plan_topologies: Tuple[str, ...] = ("chain", "star"),
                            ) -> EnumerationLatencyResult:
    """Measure enumeration (and, for ``plan_topologies``, planning) latency.

    Clique queries are excluded from full planning by default: their DP has
    Θ(3^n) (csg, cmp) pairs, so end-to-end planning dwarfs the enumeration
    walk this experiment is about.
    """
    specs = specs or [("chain", 12), ("chain", 14), ("star", 12),
                      ("clique", 10)]
    result = EnumerationLatencyResult()
    for topology, num_tables in specs:
        catalog = build_topology_catalog(num_tables, topology)
        query = build_topology_query(num_tables, topology)
        pairs, enumeration_ms = measure_enumeration(catalog, query)
        point = EnumerationLatencyPoint(
            query=query.name, num_tables=num_tables, join_pairs=pairs,
            enumeration_ms=enumeration_ms)
        if topology in plan_topologies:
            optimizer = Optimizer(catalog)
            planned = optimizer.optimize(query, OptimizerMode.NO_BF)
            point.planning_ms = planned.planning_time_ms
            point.variants_costed = planned.enumeration_stats.variants_costed
            point.variants_constructed = \
                planned.enumeration_stats.variants_constructed
        result.points.append(point)
    return result


if __name__ == "__main__":  # pragma: no cover - manual benchmark entry point
    print(run_enumeration_latency().to_text())
    print()
    print(run_adaptive_latency().to_text())
    comparison = run_adaptive_speedup()
    print()
    print("clique-20 adaptive %.1f ms vs clique-7 exact %.1f ms "
          "(>= %.0fx speedup lower bound)"
          % (comparison.adaptive.planning_ms, comparison.exact.planning_ms,
             comparison.speedup))
