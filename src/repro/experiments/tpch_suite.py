"""The TPC-H suite: one pass behind every TPC-H artefact of the paper.

For every analysed TPC-H query :func:`run_tpch_suite` runs four
configurations once each through the session API — No-BF, BF-Post, BF-CBO
(paper defaults) and BF-CBO with Heuristic 7 — executing them when the
workload holds data and only planning them on a statistics-only catalog.
Every table and figure built from those runs is read off
:class:`SuiteResult`:

* Table 2 / Figure 5: per-query latencies normalised to No-BF, the
  percentage reduction of BF-CBO over BF-Post, and the workload totals;
* Table 3: the same for BF-CBO with Heuristic 7;
* the planner latencies of every configuration (cold: both planning caches
  are off);
* Section 4.2: the per-operator cardinality MAE of BF-Post and BF-CBO;
* Figures 1 and 6: the Q12 and Q7 rows' ``QueryResult.explain()``;
* the set of queries whose join order BF-CBO changed.

Latencies are the executor's deterministic work-unit model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from ..api.database import Database
from ..api.session import QueryResult
from ..core.explain import join_order_summary
from ..core.heuristics import BfCboSettings
from ..core.optimizer import OptimizerMode
from ..textutil import percent_reduction
from ..tpch.workload import TpchWorkload

#: The four runs the suite makes of every query, in execution order.
RUNS = ("no_bf", "bf_post", "bf_cbo", "bf_cbo_h7")


@dataclass
class SuiteRow:
    """The four runs of one query."""

    number: int
    no_bf: QueryResult
    bf_post: QueryResult
    bf_cbo: QueryResult
    bf_cbo_h7: QueryResult

    @property
    def query(self) -> str:
        return self.no_bf.query.name

    def changed(self, run: str = "bf_cbo") -> bool:
        """True when the run chose a different join order than BF-Post."""
        return (join_order_summary(getattr(self, run).optimization.join_plan)
                != join_order_summary(self.bf_post.optimization.join_plan))

    def normalized(self, run: str) -> float:
        """The run's latency relative to the No-BF run (Figure 5's bars)."""
        baseline = self.no_bf.simulated_latency
        return getattr(self, run).simulated_latency / baseline if baseline else 1.0

    def reduction(self, baseline: str, improved: str) -> float:
        """% latency reduction of ``improved`` over ``baseline`` (the "%↓")."""
        return percent_reduction(getattr(self, baseline).simulated_latency,
                                 getattr(self, improved).simulated_latency)

    def mae(self, run: str) -> float:
        """Mean absolute cardinality error over the run's plan operators."""
        return getattr(self, run).execution.metrics.mean_absolute_error()


@dataclass
class SuiteResult:
    """The four runs of every analysed query at one scale factor."""

    scale_factor: float
    rows: List[SuiteRow] = field(default_factory=list)

    def row(self, number: int) -> SuiteRow:
        """The row of TPC-H query ``number``."""
        return next(row for row in self.rows if row.number == number)

    def total(self, run: str) -> float:
        """Summed latency of one run over the workload (Table 2's totals)."""
        return sum(getattr(row, run).simulated_latency for row in self.rows)

    def reduction(self, baseline: str, improved: str) -> float:
        """% reduction of the workload total (paper: BF-Post 28.8 % and
        BF-CBO 52.2 % below No-BF; BF-CBO 32.8 % and, with Heuristic 7,
        31.4 % below BF-Post)."""
        return percent_reduction(self.total(baseline), self.total(improved))

    def planner_ms(self, run: str) -> float:
        """Summed cold planning time of one run (paper at SF100: BF-Post
        254.3 ms, BF-CBO 540.7 ms, BF-CBO with Heuristic 7 421.9 ms)."""
        return sum(getattr(row, run).optimization.planning_time_ms
                   for row in self.rows)

    def wall_ms(self, run: str) -> float:
        """Summed stopwatch execution time of one run."""
        return sum(getattr(row, run).execution.metrics.wall_time_seconds
                   for row in self.rows) * 1e3

    def mae(self, run: str) -> float:
        """Per-query MAE averaged over the workload (Section 4.2; paper:
        BF-Post 2.5e7, BF-CBO 5.3e6, a 78.8 % reduction)."""
        return (sum(row.mae(run) for row in self.rows) / len(self.rows)
                if self.rows else 0.0)

    @property
    def plan_changed(self) -> Set[int]:
        """Queries whose join order BF-CBO changed from BF-Post's."""
        return {row.number for row in self.rows if row.changed()}


def run_tpch_suite(workload: TpchWorkload) -> SuiteResult:
    """Run every analysed query once under each of :data:`RUNS`."""
    database = Database(workload.catalog, scale_factor=workload.scale_factor,
                        plan_cache_size=0, sequence_cache_size=0)
    session = database.connect(history_limit=0)
    run = session.execute if workload.has_data else session.plan
    configurations = (
        (OptimizerMode.NO_BF, None),
        (OptimizerMode.BF_POST, None),
        (OptimizerMode.BF_CBO, BfCboSettings.paper_defaults()),
        (OptimizerMode.BF_CBO, BfCboSettings.with_heuristic7()),
    )
    result = SuiteResult(scale_factor=workload.scale_factor)
    for number in workload.query_numbers:
        query = workload.query(number)
        result.rows.append(SuiteRow(number, *(
            run(query, mode, settings) for mode, settings in configurations)))
    return result
