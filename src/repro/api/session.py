"""Sessions: per-connection execution state over a shared :class:`Database`.

A :class:`Session` owns an :class:`~repro.executor.context.ExecutionContext`
built from its executor knobs, optional per-session mode/settings defaults,
and a metrics history of every query it ran.  Plans come from the
database's shared plan cache; executions run in per-call filter scopes, so
any number of sessions can run concurrently against one catalog without
interfering.

All failures surface as typed :class:`~repro.errors.ReproError` subclasses:
``SqlError`` from parsing/binding, ``PlanningError`` from the optimizer and
``ExecutionError`` from the executor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.explain import explain as explain_plan
from ..core.cost import CostModel
from ..core.heuristics import BfCboSettings
from ..core.optimizer import OptimizationResult, OptimizerMode
from ..core.query import QueryBlock
from ..errors import ExecutionError, ReproError, SessionClosedError, raise_as
from ..storage.catalog import Catalog
from ..executor.cancel import CancelToken
from ..executor.context import (
    DEFAULT_MAX_CROSS_JOIN_ROWS,
    DEFAULT_MORSEL_SIZE,
    ExecutionContext,
)
from ..executor.runtime import ExecutionResult, Executor
from .database import Database

QueryLike = Union[str, QueryBlock]


@dataclass
class QueryResult:
    """Everything one :meth:`Session.execute` / :meth:`Session.plan` produced.

    ``planning_time_ms`` is the time *this call* spent obtaining a plan — a
    plan-cache hit makes it near zero, while
    ``optimization.planning_time_ms`` always reports the original cold
    optimization time.
    """

    query: QueryBlock
    mode: OptimizerMode
    settings: BfCboSettings
    optimization: OptimizationResult
    planning_time_ms: float
    from_plan_cache: bool
    execution: Optional[ExecutionResult] = None
    #: True when ``execution`` came from the database's shared result cache
    #: instead of running; cached batches are frozen (read-only arrays).
    from_result_cache: bool = False
    #: The typed error this query failed with, when it was part of an
    #: ``execute_many(return_errors=True)`` batch — partial-failure slots
    #: carry their error here instead of poisoning the whole batch.  Row
    #: accessors re-raise it.
    error: Optional[ReproError] = None

    # -- result rows ---------------------------------------------------------

    @property
    def executed(self) -> bool:
        """True if the plan was actually run (not just planned)."""
        return self.execution is not None

    @property
    def failed(self) -> bool:
        """True when this batch slot failed (see :attr:`error`)."""
        return self.error is not None

    def _live_execution(self) -> ExecutionResult:
        """The execution behind the row accessors, or the typed failure."""
        if self.error is not None:
            raise self.error
        if self.execution is None:
            raise RuntimeError("query %r was planned but not executed"
                               % self.query.name)
        return self.execution

    @property
    def num_rows(self) -> int:
        """Number of result rows (0 for plan-only results)."""
        return self.execution.num_rows if self.execution else 0

    @property
    def columns(self) -> List[str]:
        """Result column names, in batch order."""
        return self.execution.batch.keys if self.execution else []

    def column(self, name: str) -> np.ndarray:
        """One result column as a numpy array.

        Values at NULL positions (see :meth:`null_mask`) are deterministic
        filler, never data.  Raises ``RuntimeError`` (a caller-state error,
        deliberately outside the :class:`~repro.errors.ReproError`
        hierarchy) when the result was only planned, never executed — or
        re-raises :attr:`error` for a failed partial-batch slot.
        """
        return self._live_execution().batch.column(name)

    def null_mask(self, name: str) -> Optional[np.ndarray]:
        """Null mask of one result column (``None`` = every row valid).

        This is the only way to tell a NULL result cell from its filler —
        e.g. a ``SUM`` over an all-NULL group stores ``0.0`` in the value
        array and ``True`` here (``RuntimeError`` if plan-only).
        """
        return self._live_execution().batch.null_mask(name)

    def to_dict(self) -> Dict[str, np.ndarray]:
        """All result columns keyed by name (``RuntimeError`` if plan-only).

        NULL cells hold filler values; consult :meth:`null_mask` (or
        :meth:`to_pylist` for a ``None``-substituted view) to detect them.
        """
        return self._live_execution().batch.to_dict()

    def to_pylist(self) -> List[Dict[str, object]]:
        """Result rows as plain dicts with ``None`` at NULL positions.

        The mask-honouring convenience accessor for small result sets
        (``RuntimeError`` if plan-only).
        """
        batch = self._live_execution().batch
        columns = {key: (batch.column(key), batch.null_mask(key))
                   for key in batch.keys}
        rows: List[Dict[str, object]] = []
        for i in range(batch.num_rows):
            rows.append({
                key: None if mask is not None and mask[i]
                else (values[i].item() if hasattr(values[i], "item")
                      else values[i])
                for key, (values, mask) in columns.items()})
        return rows

    # -- metrics --------------------------------------------------------------

    @property
    def simulated_latency(self) -> Optional[float]:
        """Deterministic work-unit latency of the execution, if any."""
        return self.execution.simulated_latency if self.execution else None

    @property
    def num_bloom_filters(self) -> int:
        """Bloom filters applied anywhere in the chosen plan."""
        return self.optimization.num_bloom_filters

    @property
    def estimated_cost(self) -> float:
        """Optimizer's total cost estimate of the chosen plan."""
        return self.optimization.estimated_cost

    def explain(self) -> str:
        """EXPLAIN (ANALYZE when executed) rendering of the chosen plan."""
        actuals = (self.execution.metrics.actual_rows_by_node()
                   if self.execution else None)
        return explain_plan(self.optimization.plan, actuals)


class PreparedQuery:
    """A query bound once and executable many times on its session.

    Prepared queries skip re-parsing and re-binding; re-planning is already
    absorbed by the database plan cache, so repeated :meth:`execute` calls do
    catalog work only for the actual execution.
    """

    def __init__(self, session: "Session", query: QueryBlock) -> None:
        self.session = session
        self.query = query

    def execute(self, mode: Optional[OptimizerMode] = None,
                settings: Optional[BfCboSettings] = None,
                cancel: Optional[CancelToken] = None) -> QueryResult:
        """Run the prepared query (modes/settings may override per call)."""
        return self.session.execute(self.query, mode, settings, cancel=cancel)

    def plan(self, mode: Optional[OptimizerMode] = None,
             settings: Optional[BfCboSettings] = None) -> QueryResult:
        """Plan the prepared query without executing it."""
        return self.session.plan(self.query, mode, settings)

    def explain(self, mode: Optional[OptimizerMode] = None,
                settings: Optional[BfCboSettings] = None) -> str:
        """EXPLAIN rendering of the prepared query's plan."""
        return self.session.explain(self.query, mode, settings)


class Session:
    """One connection: execution context, settings defaults, metrics history.

    Args:
        database: The shared database this session plans and executes against.
        mode: Per-session default optimizer mode (falls back to the
            database's default).
        settings: Per-session default BF-CBO settings, adaptive-planner
            knobs included (falls back to the database's, then the paper
            defaults); a per-call ``settings`` argument beats it.
        history_limit: Maximum number of results retained in
            :attr:`history` (oldest dropped first); 0 disables recording
            entirely.  Results hold full batches and plans, so an unbounded
            history would grow with every query served.
        executor_workers: Morsel-execution worker count (<= 1 = serial
            operators; see ``docs/executor.md``).
        morsel_size: Maximum rows per execution morsel.
        executor_backend: How morsels escape the interpreter —
            ``"thread"``, ``"process"`` (shared-memory GIL-escape pool) or
            ``"auto"`` (see :func:`repro.executor.backend.resolve_backend`).
        max_cross_join_rows: Cross-join output guard (<= 0 disables it).
        max_memory_bytes: Per-query reserved-byte cap; a reservation above
            it degrades the operator to its spill path (see
            ``docs/memory.md``).
        max_spill_bytes: Per-query spill cap (exceeding it raises
            :class:`~repro.errors.ResourceExhaustedError`).
        max_rows: Per-query materialized-row cap.

    Invalid executor knobs raise ``ValueError`` here, not mid-query.  The
    memory governor, fault plan and spill directory come from the database.
    """

    def __init__(self, database: Database, *,
                 mode: Optional[OptimizerMode] = None,
                 settings: Optional[BfCboSettings] = None,
                 history_limit: int = 128,
                 executor_workers: int = 0,
                 morsel_size: int = DEFAULT_MORSEL_SIZE,
                 executor_backend: str = "thread",
                 max_cross_join_rows: int = DEFAULT_MAX_CROSS_JOIN_ROWS,
                 max_memory_bytes: Optional[int] = None,
                 max_spill_bytes: Optional[int] = None,
                 max_rows: Optional[int] = None) -> None:
        self.database = database
        self.mode = mode
        self.settings = settings
        self.history_limit = history_limit
        self.context = ExecutionContext(
            catalog=database.catalog,
            cost_model=CostModel(database.cost_parameters),
            executor_workers=executor_workers,
            morsel_size=morsel_size,
            max_cross_join_rows=max_cross_join_rows,
            executor_backend=executor_backend,
            fault_plan=database.fault_plan,
            memory_governor=database.memory_governor,
            max_memory_bytes=max_memory_bytes,
            max_spill_bytes=max_spill_bytes,
            max_rows=max_rows,
            spill_dir=database.spill_dir)
        #: The most recent results this session produced (every `plan`,
        #: `execute` and `explain` call), oldest first, capped at
        #: ``history_limit``.
        self.history: List[QueryResult] = []
        self._closed = False

    # ------------------------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        """The catalog behind the session's database."""
        return self.database.catalog

    @property
    def last(self) -> Optional[QueryResult]:
        """The most recent result, if any."""
        return self.history[-1] if self.history else None

    def clear_history(self) -> None:
        """Forget all recorded results."""
        self.history.clear()

    @property
    def total_simulated_latency(self) -> float:
        """Sum of the simulated latencies of the recorded executions."""
        return sum(result.simulated_latency or 0.0 for result in self.history)

    def executor_stats(self) -> Dict[str, object]:
        """Morsel-executor pool and dispatch counters of this session.

        See :meth:`ExecutionContext.executor_stats
        <repro.executor.context.ExecutionContext.executor_stats>`: pool
        creation counts (pinning the no-churn reuse across ``execute_many``
        calls), dispatched morsel / process / batch task totals,
        shared-memory bytes exported and the resolved backend.
        """
        return self.context.executor_stats()

    def _record(self, result: QueryResult) -> QueryResult:
        if self.history_limit > 0:
            self.history.append(result)
            if len(self.history) > self.history_limit:
                del self.history[:len(self.history) - self.history_limit]
        return result

    # ------------------------------------------------------------------
    # The query pipeline
    # ------------------------------------------------------------------

    def prepare(self, query: QueryLike, name: str = "query") -> PreparedQuery:
        """Parse and bind once, returning a re-executable handle."""
        return PreparedQuery(self, self._resolve_query(query, name))

    def plan(self, query: QueryLike,
             mode: Optional[OptimizerMode] = None,
             settings: Optional[BfCboSettings] = None,
             name: str = "query") -> QueryResult:
        """Plan a query (through the plan cache) without executing it."""
        self._check_open()
        block = self._resolve_query(query, name)
        return self._record(self._plan_block(block, mode, settings))

    def execute(self, query: QueryLike,
                mode: Optional[OptimizerMode] = None,
                settings: Optional[BfCboSettings] = None,
                name: str = "query",
                cancel: Optional[CancelToken] = None) -> QueryResult:
        """Plan (through the plan cache), then execute (through the result
        cache, when the database enables one).

        ``cancel`` is a cooperative :class:`~repro.executor.cancel.CancelToken`
        checked at operator and morsel boundaries; tripping it (explicitly or
        by deadline) raises :class:`~repro.errors.QueryCancelledError` within
        one morsel.  Works identically from sync callers and the async
        serving tier.
        """
        self._check_open()
        block = self._resolve_query(query, name)
        result = self._plan_block(block, mode, settings)
        return self._record(self._execute_result(result, cancel))

    def execute_many(self, queries: Sequence[QueryLike],
                     mode: Optional[OptimizerMode] = None,
                     settings: Optional[BfCboSettings] = None, *,
                     workers: Optional[int] = None,
                     deduplicate: bool = True,
                     return_errors: bool = False,
                     name: str = "batch") -> List[QueryResult]:
        """Execute a batch of queries; results come back in input order.

        The high-throughput serving entry point.  All queries are planned
        first (hitting the database's shared plan cache), then executed
        concurrently on a per-call thread pool — every execution runs in its
        own :class:`~repro.executor.context.FilterScope`, so in-flight
        queries never observe each other's Bloom filters.

        ``deduplicate=True`` additionally collapses *identical* requests
        (same bound-query fingerprint, optimizer mode and resolved settings)
        within the batch: the query is executed once and every duplicate's
        :class:`QueryResult` shares the same immutable
        :class:`~repro.executor.runtime.ExecutionResult` — the
        request-collapsing that makes serving traffic with repeated queries
        cheap.  Distinct queries are never collapsed.

        ``workers`` defaults to the session's ``executor_workers`` knob
        (minimum 1).  The batch pool is separate from the morsel pool, so
        per-query morsel parallelism composes with batch parallelism without
        deadlock.  By default the first failing query raises its typed
        error and results are recorded in :attr:`history` only when the
        whole batch succeeds.  With ``return_errors=True`` the batch has
        partial-failure semantics instead: every independent request runs
        to completion, a failing slot carries its typed error in
        ``QueryResult.error`` (row accessors re-raise it; collapsed
        duplicates share the slot's error), and every slot is recorded.

        A shared :class:`~repro.executor.runtime.ExecutionResult` (collapsed
        duplicates and result-cache hits alike) has its batch frozen: the
        arrays are marked read-only, so one caller mutating "its" result
        cannot corrupt another caller's view — mutation attempts raise
        ``ValueError`` instead of aliasing silently.
        """
        self._check_open()
        blocks = [self._resolve_query(query, "%s[%d]" % (name, index))
                  for index, query in enumerate(queries)]
        planned = [self._plan_block(block, mode, settings)
                   for block in blocks]

        # Collapse identical requests onto one execution slot each.
        slot_of: List[int] = []
        slots: List[QueryResult] = []
        seen: Dict[object, int] = {}
        for result in planned:
            key = ((result.query.fingerprint(), result.mode, result.settings)
                   if deduplicate else len(slots))
            slot = seen.get(key)
            if slot is None:
                slot = seen[key] = len(slots)
                slots.append(result)
            slot_of.append(slot)

        def run(result: QueryResult) -> QueryResult:
            try:
                return self._execute_result(result, None)
            except ReproError as exc:
                if not return_errors:
                    raise
                result.error = exc
                return result

        pool_size = workers if workers is not None \
            else self.context.executor_workers
        pool_size = max(int(pool_size), 1)
        if pool_size > 1 and len(slots) > 1:
            # The persistent batch pool: reused across execute_many calls
            # (no per-call pool churn — see MorselPools / executor_stats).
            pool = self.context.pools.batch_pool(pool_size)
            self.context.pools.count_batch_tasks(len(slots))
            list(pool.map(run, slots))
        else:
            for result in slots:
                run(result)

        # Freeze any execution shared by more than one caller before
        # handing the results out (result-cache hits are frozen already).
        shares = [0] * len(slots)
        for slot in slot_of:
            shares[slot] += 1
        for source, count in zip(slots, shares):
            if count > 1 and source.execution is not None:
                source.execution.batch.freeze()

        for result, slot in zip(planned, slot_of):
            source = slots[slot]
            result.execution = source.execution
            result.from_result_cache = source.from_result_cache
            result.error = source.error
            self._record(result)
        return planned

    def explain(self, query: QueryLike,
                mode: Optional[OptimizerMode] = None,
                settings: Optional[BfCboSettings] = None,
                analyze: bool = False, name: str = "query") -> str:
        """EXPLAIN (or, with ``analyze``, EXPLAIN ANALYZE) a query."""
        if analyze:
            return self.execute(query, mode, settings, name=name).explain()
        return self.plan(query, mode, settings, name=name).explain()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the session deterministically (idempotent).

        Shuts the context's morsel worker pool down and makes ``plan`` /
        ``execute`` / ``execute_many`` raise
        :class:`~repro.errors.SessionClosedError` from now on.  Already
        produced results (and :attr:`history`) stay usable.
        """
        if self._closed:
            return
        self._closed = True
        self.context.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("session is closed")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _execute_result(self, result: QueryResult,
                        cancel: Optional[CancelToken]) -> QueryResult:
        """Execute one planned query through the shared result cache.

        The catalog version is snapshotted before the lookup, mirroring the
        plan cache's race guards: a registration landing mid-execution makes
        the store a no-op, and the version inside the key makes stale
        entries unreachable.
        """
        database = self.database
        version = database.catalog.version
        cached = database.cached_result(result, version)
        if cached is not None:
            result.execution = cached
            result.from_result_cache = True
            return result
        with raise_as(ExecutionError,
                      "executing %s failed" % result.query.name):
            result.execution = Executor(self.context).execute(
                result.optimization.plan, cancel=cancel)
        database.store_result(result, version)
        return result

    def _resolve_query(self, query: QueryLike, name: str) -> QueryBlock:
        if isinstance(query, QueryBlock):
            return query
        return self.database.bind(query, name=name)

    def _plan_block(self, block: QueryBlock,
                    mode: Optional[OptimizerMode],
                    settings: Optional[BfCboSettings]) -> QueryResult:
        mode = mode or self.mode or self.database.default_mode
        started = time.perf_counter()
        optimization, from_cache = self.database.optimize(
            block, mode, settings or self.settings)
        planning_time_ms = (time.perf_counter() - started) * 1e3
        return QueryResult(query=block, mode=mode,
                           settings=optimization.settings,
                           optimization=optimization,
                           planning_time_ms=planning_time_ms,
                           from_plan_cache=from_cache)
