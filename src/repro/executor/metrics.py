"""Runtime metrics: observed row counts and the simulated latency model.

The paper reports wall-clock latencies on a 48-core server running GaussDB.
Our substitution (docs/executor.md, "Benchmark artifact", describes how the
scaling curves ride it) is a deterministic *work-unit* latency model: during execution every operator charges work proportional to
the rows it actually processed, using the same constants as the optimizer's
cost model.  This keeps the latency measurements deterministic and scale-free
while preserving the property that matters for reproducing the paper's
results: plans that move fewer rows through joins and exchanges are faster.
Wall-clock time is also recorded for reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.plans import PlanNode


@dataclass
class OperatorMetrics:
    """Observed behaviour of a single plan node during execution."""

    node_id: int
    label: str
    estimated_rows: float
    actual_rows: float = 0.0
    work_units: float = 0.0
    input_rows: float = 0.0
    #: Plan-node class name (``"JoinNode"``, ``"AggregateNode"``, ...), used
    #: to slice the scaling model per operator kind.
    kind: str = ""
    #: The morsel-parallelisable share of :attr:`work_units` — derived from
    #: the cost model's row counts, so it is identical on serial and
    #: parallel executions of the same plan.
    parallel_work_units: float = 0.0
    #: Rows the parallel phase is spread over (determines how many morsels —
    #: and therefore how many effective workers — the operator can use).
    parallel_rows: float = 0.0


@dataclass
class ExecutionMetrics:
    """Aggregated metrics of one query execution."""

    operators: Dict[int, OperatorMetrics] = field(default_factory=dict)
    rows_scanned: float = 0.0
    rows_bloom_filtered: float = 0.0
    bloom_probes: float = 0.0
    rows_hash_built: float = 0.0
    rows_hash_probed: float = 0.0
    rows_exchanged: float = 0.0
    bytes_exchanged: float = 0.0
    total_work_units: float = 0.0
    wall_time_seconds: float = 0.0
    bloom_filters_built: int = 0
    bloom_filters_applied: int = 0

    def record(self, node: PlanNode, actual_rows: float, work_units: float,
               input_rows: float = 0.0, parallel_work: float = 0.0,
               parallel_rows: float = 0.0) -> None:
        """Record one operator's actuals (accumulates work in the totals).

        ``parallel_work`` is the share of ``work_units`` the morsel executor
        can spread across workers and ``parallel_rows`` the row count it is
        spread over; both are functions of observed row counts only, so a
        serial and a parallel execution of the same plan record identical
        metrics (the bit-identity contract of ``docs/executor.md``).
        """
        entry = self.operators.get(id(node))
        if entry is None:
            entry = OperatorMetrics(node_id=id(node), label=node.label(),
                                    estimated_rows=node.rows,
                                    kind=type(node).__name__)
            self.operators[id(node)] = entry
        entry.actual_rows = actual_rows
        entry.work_units += work_units
        entry.input_rows = input_rows
        entry.parallel_work_units += parallel_work
        entry.parallel_rows = max(entry.parallel_rows, parallel_rows)
        self.total_work_units += work_units

    # -- derived reports ---------------------------------------------------

    @property
    def simulated_latency(self) -> float:
        """The deterministic latency proxy (total work units)."""
        return self.total_work_units

    def simulated_latency_at(self, workers: int, morsel_size: int,
                             kind: Optional[str] = None) -> float:
        """Derived latency with the parallel share spread over workers.

        The deterministic scaling model behind the throughput benchmark's
        per-operator curves: each operator's ``parallel_work_units`` run on
        ``min(workers, ceil(parallel_rows / morsel_size))`` effective
        workers (an operator cannot use more workers than it has morsels);
        the serial remainder — hash-table builds, merge phases, Bloom
        builds — is charged in full.  ``workers <= 1`` reproduces
        :attr:`simulated_latency` exactly.  ``kind`` restricts the report to
        operators of one plan-node class (e.g. ``"JoinNode"``), excluding
        the non-operator extras.
        """
        workers = max(int(workers), 1)
        morsel = max(int(morsel_size), 1)
        ops = [op for op in self.operators.values()
               if kind is None or op.kind == kind]
        latency = (self.total_work_units if kind is None
                   else sum(op.work_units for op in ops))
        if workers <= 1:
            return latency
        for op in ops:
            parallel = min(op.parallel_work_units, op.work_units)
            if parallel <= 0.0:
                continue
            morsels = max(int(math.ceil(op.parallel_rows / morsel)), 1)
            effective = min(workers, morsels)
            latency -= parallel * (1.0 - 1.0 / effective)
        return latency

    def actual_rows_by_node(self) -> Dict[int, float]:
        """Mapping ``id(node) -> observed rows`` for EXPLAIN ANALYZE output."""
        return {node_id: op.actual_rows for node_id, op in self.operators.items()}

    def estimation_errors(self) -> List[float]:
        """Absolute estimation error per operator (for the MAE experiment).

        Exchange and limit-style operators inherit their child's cardinality,
        so every operator is included just as the paper's "all intermediate
        plan nodes" metric is.
        """
        return [abs(op.estimated_rows - op.actual_rows)
                for op in self.operators.values()]

    def mean_absolute_error(self) -> float:
        """Mean absolute error of cardinality estimates across operators."""
        errors = self.estimation_errors()
        return sum(errors) / len(errors) if errors else 0.0
