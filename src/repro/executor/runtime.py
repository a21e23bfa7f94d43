"""The plan interpreter.

:class:`Executor` walks a physical plan produced by the optimizer and runs it
against the catalog's materialised tables.  Hash joins execute their build
(inner) side first, build any Bloom filters the plan assigned to them and
publish those filters in the :class:`~repro.executor.context.ExecutionContext`
before the probe (outer) side — and therefore any Bloom-filtered scans below
it — is executed.  This mirrors the paper's runtime rule that "table scans
wait for all Bloom filter partitions to become available before scanning can
proceed" (Section 3.9).

Every operator fans its per-span work out through one dispatcher,
:meth:`Executor._map_spans`: one span runs inline, several spans run in the
spawn-based process pool when the operator has a worker kernel and
``executor_backend="process"`` is active (bulk arrays shipped once through
``multiprocessing.shared_memory``; see ``repro.executor.shm``), and on the
morsel thread pool or an inline loop otherwise.  Join probes, aggregate
partials and sort runs have process kernels; scans and projections have none
and never leave the process.  On every route the pieces recombine in
canonical span order, so output batches and all simulated metrics are
bit-identical to serial execution (the operator × route table is in
``docs/executor.md``).  The Bloom barrier is preserved: a scan fetches every
filter it depends on *before* dispatching its first span.

Every operator records its observed output cardinality and charges work units
using the optimizer's cost constants with *actual* row counts, which yields
the deterministic simulated latency used throughout the benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from ..bloom import BloomFilter
from ..errors import QueryCancelledError, TransientError
from ..faults import SITE_MORSEL_DISPATCH
from ..core.expressions import (
    ColumnRef,
    Predicate,
    ScalarExpression,
    fill_masked,
)
from ..core.plans import (
    AggregateNode,
    ExchangeKind,
    ExchangeNode,
    JoinMethod,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from ..core.properties import DistributionKind
from .aggregate import (
    CallData,
    Partial,
    aggregate_batch,
    compute_segment_partials,
    export_partials_task,
)
from .backend import resolve_backend
from .batch import Batch
from .cancel import CancelToken
from .context import ExecutionContext, FilterScope
from .joins import (
    build_probe_state,
    concat_pair_results,
    cross_join,
    estimate_build_bytes,
    export_probe_task,
    probe_span_pairs,
    spill_equi_join,
    stitch_equi_join,
)
from .memory import MemoryBudget
from .metrics import ExecutionMetrics
from .shm import ShmArena
from .sort import (
    combined_sort_key,
    estimate_sort_bytes,
    merge_run_list,
    sort_run,
    spill_sort_order,
)

#: A morsel's ``[start, stop)`` row range.
Span = Tuple[int, int]
S = TypeVar("S")
T = TypeVar("T")


@dataclass
class ExecutionResult:
    """Output rows plus runtime metrics of one plan execution."""

    batch: Batch
    metrics: ExecutionMetrics
    plan: PlanNode

    @property
    def num_rows(self) -> int:
        return self.batch.num_rows

    @property
    def simulated_latency(self) -> float:
        return self.metrics.simulated_latency


class Executor:
    """Interprets physical plans against materialised catalog tables."""

    def __init__(self, context: ExecutionContext) -> None:
        self.context = context
        self.metrics = ExecutionMetrics()
        #: The filter scope of the current/last execution; assigned by
        #: :meth:`execute` (pass ``filters=`` there to supply your own scope
        #: — anything registered on a scope created before ``execute`` would
        #: be discarded, so none is allocated here).
        self.filters: Optional[FilterScope] = None
        #: The cancel token of the current execution; assigned by
        #: :meth:`execute` (per-call token, falling back to the context's).
        self.cancel: Optional[CancelToken] = None
        #: Shared-memory arena of the current execution (process backend
        #: only); created lazily by :meth:`_arena`, closed by
        #: :meth:`execute` when the query finishes.
        self._shm_arena: Optional[ShmArena] = None
        #: The current execution's memory budget — its grant from the
        #: context's governor plus the runaway watchdog; created and closed
        #: by :meth:`execute` (see :mod:`repro.executor.memory`).
        self._budget: Optional[MemoryBudget] = None

    # ------------------------------------------------------------------

    def execute(self, plan: PlanNode,
                filters: Optional[FilterScope] = None,
                cancel: Optional[CancelToken] = None) -> ExecutionResult:
        """Execute ``plan`` and return its result batch and metrics.

        Each call runs in a fresh :class:`FilterScope` by default, so
        concurrent executions sharing one context never see each other's
        published Bloom filters.  Pass ``filters`` to supply a pre-populated
        scope (e.g. filters built by an earlier run you want reused).

        ``cancel`` is the request's cooperative
        :class:`~repro.executor.cancel.CancelToken` (falling back to the
        context's default token): it is polled at every operator boundary
        and before every morsel, so a tripped token stops the query within
        one morsel of work with a typed
        :class:`~repro.errors.QueryCancelledError`.
        """
        self.metrics = ExecutionMetrics()
        self.filters = filters if filters is not None \
            else self.context.new_filter_scope()
        self.cancel = cancel if cancel is not None \
            else self.context.cancel_token
        self._budget = MemoryBudget(
            governor=self.context.governor(),
            max_memory_bytes=self.context.max_memory_bytes,
            max_spill_bytes=self.context.max_spill_bytes,
            max_rows=self.context.max_rows,
            spill_dir=self.context.spill_dir,
            faults=self.context.fault_plan,
            stats=self.context.memory_stats)
        started = time.perf_counter()
        try:
            batch = self._execute(plan)
        finally:
            if self._shm_arena is not None:
                self.context.pools.count_shm_bytes(
                    self._shm_arena.bytes_exported)
                self.context.pools.count_shm_fallbacks(
                    self._shm_arena.fallback_count)
                self._shm_arena.close()
                self._shm_arena = None
            # The budget's close releases every grant and removes the
            # spill directory — also on error paths, so a failed query
            # leaves neither governor bytes nor spill files behind.
            self._budget.close()
            self._budget = None
        self.metrics.wall_time_seconds = time.perf_counter() - started
        return ExecutionResult(batch=batch, metrics=self.metrics, plan=plan)

    # ------------------------------------------------------------------

    def _execute(self, node: PlanNode) -> Batch:
        if self.cancel is not None:
            # The operator-boundary cancellation checkpoint: one event check
            # per plan node on the live path.
            self.cancel.check()
        if isinstance(node, ScanNode):
            batch = self._execute_scan(node)
        elif isinstance(node, JoinNode):
            batch = self._execute_join(node)
        elif isinstance(node, ExchangeNode):
            batch = self._execute_exchange(node)
        elif isinstance(node, AggregateNode):
            batch = self._execute_aggregate(node)
        elif isinstance(node, ProjectNode):
            batch = self._execute_project(node)
        elif isinstance(node, SortNode):
            batch = self._execute_sort(node)
        elif isinstance(node, LimitNode):
            batch = self._execute_limit(node)
        else:
            raise TypeError("executor does not support plan node %r"
                            % type(node))
        if self._budget is not None:
            # The runaway watchdog: every materialized operator output is
            # checked against the per-query max_rows limit.
            self._budget.check_rows(batch.num_rows, type(node).__name__)
        return batch

    def _poll(self) -> None:
        """Per-spill-chunk cancellation checkpoint for degraded operators."""
        if self.cancel is not None:
            self.cancel.check()

    # -- span dispatch -----------------------------------------------------

    def _morsel_workers(self) -> int:
        """Effective morsel worker count (``<= 1`` = serial operators)."""
        return max(int(self.context.executor_workers), 0)

    def _process_backend_active(self) -> bool:
        """True when a fan-out should run in the GIL-escape process pool.

        One call is one dispatch decision for the context's circuit
        breaker, so only :meth:`_map_spans` asks, and only for an operator
        about to send several spans to a worker kernel: while the breaker
        is open the operator silently runs on the thread backend instead
        (identical results, different parallelism substrate), and the call
        that exhausts the cooldown admits the half-open probe.
        """
        if self._morsel_workers() <= 1 \
                or resolve_backend(self.context.executor_backend) != "process":
            return False
        return self.context.breaker.allow()

    def _process_map(self, kernel: str, args_list: Sequence[tuple]) -> List:
        """Supervised process dispatch, reporting outcome to the breaker.

        Transient failures (worker crash that supervision could not absorb,
        shm pressure in a worker, injected faults) count toward tripping the
        breaker; cancellation and programming errors do not.
        """
        breaker = self.context.breaker
        try:
            results = self.context.pools.process_map(
                kernel, args_list, self.cancel, self._morsel_workers(),
                faults=self.context.fault_plan)
        except QueryCancelledError:
            raise
        except TransientError:
            breaker.record_failure()
            raise
        breaker.record_success()
        return results

    def _arena(self) -> ShmArena:
        """This execution's shared-memory arena (created on first use)."""
        if self._shm_arena is None:
            self._shm_arena = ShmArena(faults=self.context.fault_plan)
        return self._shm_arena

    def _map_spans(self, spans: Sequence[Span], local: Callable[[Span], T],
                   kernel: Optional[str] = None,
                   export: Optional[Callable[[ShmArena], object]] = None,
                   ) -> List[T]:
        """Run one operator's per-span work on its route, in span order.

        The only place a route is picked.  One span runs ``local`` inline
        with no checkpoint.  Several spans go to the process pool when the
        operator names a worker ``kernel`` and the process backend is active
        (``export(arena)`` ships the operands once; each task receives
        ``(payload, start, stop)``), and through :meth:`_segment_map`
        otherwise.
        """
        if len(spans) == 1:
            return [local(spans[0])]
        if kernel is not None and self._process_backend_active():
            assert export is not None  # a kernel needs its operands shipped
            payload = export(self._arena())
            return self._process_map(
                kernel, [(payload, start, stop) for start, stop in spans])
        return self._segment_map(local, spans)

    def _segment_map(self, fn: Callable[[S], T], items: Sequence[S],
                     ) -> List[T]:
        """Map ``fn`` over ``items`` on the thread pool or inline, in order.

        Parallel executions dispatch to the shared thread pool (results in
        submission order; the first worker exception propagates).  Serial
        executions run inline but still poll the cancel token and the
        ``morsel-dispatch`` fault site per item, so "stops within one
        morsel" holds on every route even at ``executor_workers <= 1``.
        """
        faults = self.context.fault_plan
        if self._morsel_workers() > 1 and len(items) > 1:
            return self.context.pools.thread_map(
                fn, items, self.cancel, self._morsel_workers(), faults=faults)
        results = []
        for item in items:
            if self.cancel is not None:
                self.cancel.check()
            if faults is not None:
                faults.check(SITE_MORSEL_DISPATCH)
            results.append(fn(item))
        return results

    # -- scans ------------------------------------------------------------

    def _execute_scan(self, node: ScanNode) -> Batch:
        """Filter and Bloom-probe a table, span by span.

        The Bloom barrier sits in front of the dispatch: every filter this
        scan applies is fetched *before* the first span starts (the paper's
        "table scans wait for all Bloom filter partitions" rule, Section
        3.9); a missing filter raises on every route.  Serial is one span
        over the whole table; morsels only pay off when there is per-row
        work to spread, so a bare scan stays one zero-copy span.  Work
        units and probe counters are charged from the per-stage row totals,
        which equal the serial stage row counts because predicate and Bloom
        filtering are row-local.
        """
        cost_model = self.context.cost_model
        table = self.context.catalog.table(node.table_name)
        blooms = [(spec, self.filters.get_filter(spec.filter_id))
                  for spec in node.bloom_filters]
        spans = (table.morsel_spans(self.context.morsel_size)
                 if self._morsel_workers() > 1
                 and (node.predicates or blooms) else [])

        def scan_span(span: Span) -> Tuple[Batch, int, List[int]]:
            batch = Batch.from_table(node.alias, table, span[0], span[1])
            for predicate in node.predicates:
                batch = self._apply_predicate(batch, predicate)
            pre_rows = batch.num_rows
            stage_rows = []
            for spec, bloom in blooms:
                stage_rows.append(batch.num_rows)
                values, null_mask = batch.resolve_masked(spec.apply_column)
                mask = bloom.contains_many(values)
                if null_mask is not None:
                    # A NULL key can never match the transferred predicate.
                    mask = mask & ~null_mask
                batch = batch.filter(mask)
            return batch, pre_rows, stage_rows

        results = self._map_spans(spans or [(0, table.num_rows)], scan_span)
        base_rows = table.num_rows
        work = cost_model.seq_scan(base_rows, node.row_width,
                                   len(node.predicates)).total
        self.metrics.rows_scanned += base_rows
        pre_bloom_rows = sum(pre for _, pre, _ in results)
        for stage, _ in enumerate(blooms):
            stage_total = sum(stages[stage] for _, _, stages in results)
            work += cost_model.bloom_apply(stage_total, 1).total
            self.metrics.bloom_probes += stage_total
            self.metrics.bloom_filters_applied += 1
        batch = Batch.concat([piece for piece, _, _ in results])
        self.metrics.rows_bloom_filtered += pre_bloom_rows - batch.num_rows
        # Scan filtering and Bloom probing are row-local: all of the work
        # spreads over morsels.
        self.metrics.record(node, batch.num_rows, work, input_rows=base_rows,
                            parallel_work=work, parallel_rows=base_rows)
        return batch

    # -- joins ---------------------------------------------------------------

    def _execute_join(self, node: JoinNode) -> Batch:
        cost_model = self.context.cost_model
        inner_batch = self._execute(node.inner)
        self._build_bloom_filters(node, inner_batch)
        outer_batch = self._execute(node.outer)

        if node.clauses:
            # Hash, merge and (clause-carrying) nested-loop joins all run
            # the factorized equi-join kernel; they differ only in charged
            # cost.  The probe side is morselised below.
            joined = self._equi_join_morsels(outer_batch, inner_batch, node)
        else:
            joined = cross_join(outer_batch, inner_batch,
                                self.context.max_cross_join_rows)

        for predicate in node.residual_predicates:
            joined = self._apply_predicate(joined, predicate)

        build_rows = inner_batch.num_rows
        if (node.inner is not None
                and node.inner.properties.distribution.kind is DistributionKind.BROADCAST):
            build_rows *= cost_model.params.degree_of_parallelism
        if node.method is JoinMethod.HASH:
            cost = cost_model.hash_join(build_rows, outer_batch.num_rows,
                                        joined.num_rows, len(node.clauses))
        elif node.method is JoinMethod.MERGE:
            cost = cost_model.merge_join(outer_batch.num_rows,
                                         inner_batch.num_rows,
                                         joined.num_rows)
        else:
            cost = cost_model.nested_loop(outer_batch.num_rows,
                                          inner_batch.num_rows,
                                          joined.num_rows)
        # The probe + emit share spreads over probe morsels; the build
        # (startup) share stays serial.  Both derive from row counts alone,
        # so serial and parallel runs record identical metrics.
        parallel_work = (cost.total - cost.startup) if node.clauses else 0.0
        self.metrics.rows_hash_built += build_rows
        self.metrics.rows_hash_probed += outer_batch.num_rows
        self.metrics.record(node, joined.num_rows, cost.total,
                            input_rows=outer_batch.num_rows + inner_batch.num_rows,
                            parallel_work=parallel_work,
                            parallel_rows=outer_batch.num_rows)
        return joined

    def _equi_join_morsels(self, outer: Batch, inner: Batch,
                           node: JoinNode) -> Batch:
        """Equi-join with the probe side morselised.

        The build side is factorized exactly once (memoized on the inner
        batch); probe morsels run through :meth:`_map_spans` (inline, on
        the thread pool, or in worker processes over shared-memory
        columns).  Per-span pair results concatenate to the whole-batch pair
        list bit-for-bit, and the serial stitch tail handles SEMI/ANTI
        filtering and LEFT/FULL padding identically on every path.

        The build side's bytes are reserved from the query's memory budget
        first; a denied reservation (cap, pool pressure or the scripted
        ``memory-pressure`` fault) degrades to the Grace-style partitioned
        :func:`~repro.executor.joins.spill_equi_join`, which is
        bit-identical by construction.
        """
        budget = self._budget
        build_bytes = estimate_build_bytes(inner)
        reserved = budget.try_reserve(build_bytes) \
            if budget is not None else True
        if not reserved:
            assert budget is not None  # a denial implies a budget
            return spill_equi_join(outer, inner, node.clauses,
                                   node.join_type, budget, poll=self._poll)
        try:
            index, probe_cols, probe_null = build_probe_state(outer, inner,
                                                              node.clauses)
            results = self._map_spans(
                outer.spans(self.context.morsel_size),
                lambda span: probe_span_pairs(index, probe_cols, probe_null,
                                              *span),
                kernel="repro.executor.joins:probe_morsel_kernel",
                export=lambda arena: export_probe_task(
                    index, probe_cols, probe_null, arena))
            return stitch_equi_join(outer, inner, node.join_type,
                                    *concat_pair_results(results))
        finally:
            if budget is not None:
                budget.release(build_bytes)

    def _build_bloom_filters(self, node: JoinNode, inner_batch: Batch) -> None:
        """Build and publish the Bloom filters this hash join is charged with.

        Filters are populated from the batch's memoized *distinct* valid
        build keys (:meth:`Batch.unique_valid`): a Bloom filter is a set, so
        inserting each distinct key once produces the identical bit vector —
        the filter is already sized by the distinct count — while a build
        column shared by several filters (or reused by the join kernel's
        factorization) is deduplicated only once per batch.  Work units keep
        charging the full valid row count, exactly as the row-at-a-time
        build would.
        """
        for spec in node.built_filters:
            if self.filters.has_filter(spec.filter_id):
                continue
            key = "%s.%s" % (spec.build_column.relation,
                             spec.build_column.column)
            null_mask = inner_batch.null_mask(key)
            valid_rows = (inner_batch.num_rows if null_mask is None
                          else int((~null_mask).sum()))
            values = inner_batch.unique_valid(key)
            self.filters.register_filter(spec.filter_id,
                                         BloomFilter.from_values(values))
            self.metrics.bloom_filters_built += 1
            build_work = self.context.cost_model.bloom_build(valid_rows, 1).total
            self.metrics.total_work_units += build_work

    # -- exchanges --------------------------------------------------------------

    def _execute_exchange(self, node: ExchangeNode) -> Batch:
        cost_model = self.context.cost_model
        batch = self._execute(node.child)
        if node.kind is ExchangeKind.BROADCAST:
            work = cost_model.broadcast(batch.num_rows, node.row_width).total
            bytes_moved = batch.num_rows * node.row_width * \
                cost_model.params.degree_of_parallelism
        elif node.kind is ExchangeKind.REDISTRIBUTE:
            work = cost_model.redistribute(batch.num_rows, node.row_width).total
            bytes_moved = batch.num_rows * node.row_width
        else:
            work = cost_model.gather(batch.num_rows, node.row_width).total
            bytes_moved = batch.num_rows * node.row_width
        self.metrics.rows_exchanged += batch.num_rows
        self.metrics.bytes_exchanged += bytes_moved
        self.metrics.record(node, batch.num_rows, work,
                            input_rows=batch.num_rows)
        return batch

    # -- aggregation / presentation -----------------------------------------------

    def _execute_aggregate(self, node: AggregateNode) -> Batch:
        batch = self._execute(node.child)
        result = aggregate_batch(batch, node.group_by, node.aggregates,
                                 partials_map=self._partials_map,
                                 budget=self._budget, poll=self._poll)
        work = self.context.cost_model.aggregate(batch.num_rows,
                                                 result.num_rows).total
        # The per-input-row transition work spreads over segment morsels;
        # the per-group emit / merge share stays serial.
        parallel_work = self.context.cost_model.aggregate(
            batch.num_rows, 0).total
        self.metrics.record(node, result.num_rows, work,
                            input_rows=batch.num_rows,
                            parallel_work=min(parallel_work, work),
                            parallel_rows=batch.num_rows)
        return result

    def _partials_map(self, calls_data: Sequence[CallData],
                      group_ids: np.ndarray, num_groups: int,
                      spans: Sequence[Span]) -> List[List[Partial]]:
        """The :data:`~repro.executor.aggregate.PartialsMap` hook
        :func:`aggregate_batch` fans segment partials out with."""
        return self._map_spans(
            spans,
            lambda span: compute_segment_partials(calls_data, group_ids,
                                                  num_groups, *span),
            kernel="repro.executor.aggregate:segment_partials_kernel",
            export=lambda arena: export_partials_task(
                arena, calls_data, group_ids, num_groups))

    def _execute_project(self, node: ProjectNode) -> Batch:
        batch = self._execute(node.child)
        # Projection is row-local, so morsels project independently and
        # concatenate back in span order; a column is mask-free iff no span
        # produced a NULL, matching the serial normalization.
        spans = (batch.spans(self.context.morsel_size)
                 if self._morsel_workers() > 1 else [(0, batch.num_rows)])
        result = Batch.concat(self._map_spans(
            spans,
            lambda span: self._project_batch(node, batch.row_span(*span))))
        work = self.context.cost_model.project(batch.num_rows,
                                               len(node.items)).total
        self.metrics.record(node, result.num_rows, work,
                            input_rows=batch.num_rows,
                            parallel_work=work,
                            parallel_rows=batch.num_rows)
        return result

    @staticmethod
    def _project_batch(node: ProjectNode, batch: Batch) -> Batch:
        """Evaluate the projection items over one batch (or morsel) of rows."""
        resolve = batch.masked_resolver()
        columns: Dict[str, np.ndarray] = {}
        masks: Dict[str, Optional[np.ndarray]] = {}
        for item in node.items:
            values, mask = item.expression.evaluate_masked(resolve)
            values = np.asarray(values)
            if values.ndim == 0:
                values = np.full(batch.num_rows, values)
            if mask is not None:
                mask = np.broadcast_to(np.asarray(mask, dtype=bool),
                                       values.shape)
                if not mask.any():
                    mask = None  # keep NULL-free projections mask-free
            columns[item.name] = values
            masks[item.name] = mask
        return Batch(columns, masks)

    def _execute_sort(self, node: SortNode) -> Batch:
        batch = self._execute(node.child)
        if batch.num_rows and node.order_by:
            keys = []
            for item in reversed(node.order_by):
                values, null_mask = self._tolerant_eval(item.expression, batch)
                if null_mask is not None and not null_mask.any():
                    null_mask = None  # filters upstream dropped every NULL
                if null_mask is not None:
                    # Canonicalise filler under the mask so NaN/None never
                    # leaks into the sort comparison.
                    values = fill_masked(values, null_mask)
                if item.descending:
                    # Rank-invert instead of negating the values: exact for
                    # every dtype — strings get a descending order at all,
                    # and int64 keys never round-trip through lossy float64.
                    _, inverse = np.unique(values, return_inverse=True)
                    values = -inverse
                keys.append(values)
                if null_mask is not None:
                    # The mask outranks the values: NULLs sort last by
                    # default, first when the item says NULLS FIRST.
                    keys.append(~null_mask if item.nulls_first else null_mask)
            order = self._sort_order(keys, batch)
            batch = batch.take(order)
        if node.drop_keys:
            # Hidden sort keys carried through the projection solely for
            # this sort (ORDER BY on a non-projected column) are dropped
            # now that the rows are ordered.
            hidden = set(node.drop_keys)
            batch = batch.select([key for key in batch.keys
                                  if key not in hidden])
        work = self.context.cost_model.sort(batch.num_rows).total
        # Run formation spreads over morsels; the final merge cascade is
        # charged serially at the merge-join per-row rate.
        merge_share = batch.num_rows * \
            self.context.cost_model.params.merge_row_cost
        parallel_work = max(work - merge_share, 0.0) if node.order_by else 0.0
        self.metrics.record(node, batch.num_rows, work,
                            input_rows=batch.num_rows,
                            parallel_work=parallel_work,
                            parallel_rows=batch.num_rows)
        return batch

    def _sort_order(self, keys: List[np.ndarray], batch: Batch) -> np.ndarray:
        """The sort permutation: serial ``lexsort`` or parallel merge sort.

        The parallel path folds the key arrays into one int64 rank key,
        stable-sorts morsel runs (threads, or worker processes over a
        shared-memory key) and merges pairwise — the stable ascending
        permutation is unique, so the result equals ``np.lexsort(keys)``
        bit-for-bit (property-tested in ``tests/test_parallel_operators.py``).

        The run permutations' bytes are reserved from the query's memory
        budget first; a denied reservation degrades to the external
        :func:`~repro.executor.sort.spill_sort_order`, which merges sorted
        runs from spill files with the identical pairing discipline and
        therefore yields the identical permutation.
        """
        spans = batch.spans(self.context.morsel_size)
        budget = self._budget
        sort_bytes = estimate_sort_bytes(batch.num_rows)
        reserved = budget.try_reserve(sort_bytes) \
            if budget is not None else True
        if not reserved:
            assert budget is not None  # a denial implies a budget
            return spill_sort_order(combined_sort_key(keys), spans, budget,
                                    poll=self._poll)
        try:
            if self._morsel_workers() <= 1 or len(spans) == 1:
                return np.lexsort(keys)
            key = combined_sort_key(keys)
            runs = self._map_spans(
                spans, lambda span: sort_run(key, *span),
                kernel="repro.executor.sort:sort_run_kernel",
                export=lambda arena: arena.export(key))
            return merge_run_list(key, runs, self._segment_map)
        finally:
            if budget is not None:
                budget.release(sort_bytes)

    def _execute_limit(self, node: LimitNode) -> Batch:
        batch = self._execute(node.child)
        result = batch.head(node.limit)
        work = self.context.cost_model.limit(result.num_rows).total
        self.metrics.record(node, result.num_rows, work,
                            input_rows=batch.num_rows)
        return result

    # -- helpers ----------------------------------------------------------------

    @staticmethod
    def _apply_predicate(batch: Batch, predicate: Predicate) -> Batch:
        """Filter a batch to the rows where ``predicate`` is definitely TRUE.

        Rows where the predicate evaluates to UNKNOWN (NULL) are dropped,
        per SQL WHERE semantics; the mask-pair contract already encodes that
        in the truth values, so no extra mask arithmetic is needed here.
        """
        is_true, _ = predicate.evaluate_masked(batch.masked_resolver())
        is_true = np.asarray(is_true, dtype=bool)
        if is_true.ndim == 0:
            is_true = np.broadcast_to(is_true, (batch.num_rows,))
        return batch.filter(is_true)

    @staticmethod
    def _tolerant_eval(expression: ScalarExpression, batch: Batch,
                       ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Evaluate an expression, falling back to output-column-name lookup.

        After aggregation or projection the batch is keyed by output names, so
        an ORDER BY referencing an output column (or a bare ``ColumnRef`` with
        an empty relation) resolves by name.  Returns ``(values, null_mask)``.
        """
        try:
            values, mask = expression.evaluate_masked(batch.masked_resolver())
            return np.asarray(values), mask
        except KeyError:
            if isinstance(expression, ColumnRef):
                if batch.has_column(expression.column):
                    return (batch.column(expression.column),
                            batch.null_mask(expression.column))
            name = str(expression)
            if batch.has_column(name):
                return batch.column(name), batch.null_mask(name)
            raise
