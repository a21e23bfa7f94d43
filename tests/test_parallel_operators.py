"""Parallel joins, aggregation and sort must be bit-identical to serial.

PR contract (docs/executor.md): ``executor_workers``, ``morsel_size`` and
``executor_backend`` are pure performance knobs.  For every operator — morsel
hash-join probes, two-phase aggregation partials, parallel merge sort — and
for every backend (serial inline, thread pool, shared-memory process pool),
output batches and all simulated metrics are exactly those of the serial
operators.  These tests pin that contract over the TPC-H workload and
property-style over the kernels, plus the riders: per-morsel cancellation,
pool reuse across ``execute_many``, and the shared-memory shipping layer.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database, Session
from repro.core import ColumnRef, JoinClause
from repro.core.candidates import BloomFilterSpec
from repro.core.cardinality import BloomEstimate
from repro.core.expressions import (
    AggregateFunction,
    Arithmetic,
    ArithmeticOp,
    Comparison,
    ComparisonOp,
    Literal,
)
from repro.core.plans import JoinNode, ProjectNode, ScanNode
from repro.core.query import JoinType, OutputItem
from repro.errors import QueryCancelledError
from repro.executor import (
    Batch,
    CancelToken,
    ExecutionContext,
    Executor,
    ShmArena,
    attach_array,
    equi_join,
    resolve_backend,
)
from repro.executor import aggregate as aggregate_module
from repro.executor.aggregate import (
    compute_segment_partials,
    merge_partials,
    segment_partials_kernel,
    segment_spans,
)
from repro.executor.backend import free_threaded_build
from repro.executor.joins import (
    build_probe_state,
    concat_pair_results,
    export_probe_task,
    probe_morsel_kernel,
    probe_span_pairs,
    stitch_equi_join,
)
from repro.executor.sort import (
    combined_sort_key,
    merge_run_list,
    parallel_sort_order,
    sort_run,
)
from repro.storage import Catalog, Table, make_schema
from repro.storage.types import FLOAT64, INT64

from test_parallel_execution import assert_batches_identical


@pytest.fixture(scope="module")
def tpch_db(tpch_workload) -> Database:
    database = Database(tpch_workload.catalog)
    database.workload = tpch_workload
    return database


@pytest.fixture(scope="module")
def serial_reference(tpch_db):
    """Serial execution results, computed once per query."""
    session = tpch_db.connect(history_limit=0)
    cache = {}

    def reference(number: int):
        if number not in cache:
            cache[number] = session.execute(tpch_db.workload.query(number))
        return cache[number]

    return reference


def assert_metrics_identical(want, got) -> None:
    """Simulated metrics — including the derived scaling curve — match."""
    assert got.metrics.total_work_units == want.metrics.total_work_units
    assert got.metrics.rows_hash_probed == want.metrics.rows_hash_probed
    assert got.metrics.rows_scanned == want.metrics.rows_scanned
    for workers, morsel in [(1, 4096), (4, 512), (8, 256)]:
        assert got.metrics.simulated_latency_at(workers, morsel) == \
            want.metrics.simulated_latency_at(workers, morsel)
        for kind in ("JoinNode", "AggregateNode", "SortNode"):
            assert got.metrics.simulated_latency_at(workers, morsel,
                                                    kind=kind) == \
                want.metrics.simulated_latency_at(workers, morsel, kind=kind)


# ---------------------------------------------------------------------------
# TPC-H: serial == threads == processes, all operators parallel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers,morsel_size", [(1, 511), (2, 211), (8, 256)])
def test_tpch_thread_matrix_identical_to_serial(tpch_db, serial_reference,
                                                workers, morsel_size):
    parallel = tpch_db.connect(history_limit=0, executor_workers=workers,
                               morsel_size=morsel_size)
    for number in tpch_db.workload.query_numbers:
        want = serial_reference(number)
        got = parallel.execute(tpch_db.workload.query(number))
        assert_batches_identical(want.execution.batch, got.execution.batch)
        assert_metrics_identical(want.execution, got.execution)


def test_tpch_process_backend_identical_to_serial(tpch_db, serial_reference):
    """The GIL-escape backend: same bits, and real work crossed processes."""
    session = tpch_db.connect(history_limit=0, executor_workers=2,
                              morsel_size=512, executor_backend="process")
    try:
        for number in (3, 12):
            want = serial_reference(number)
            got = session.execute(tpch_db.workload.query(number))
            assert_batches_identical(want.execution.batch,
                                     got.execution.batch)
            assert_metrics_identical(want.execution, got.execution)
        stats = session.executor_stats()
        assert stats["resolved_backend"] == "process"
        assert stats["process_tasks"] > 0
        assert stats["shm_bytes_exported"] > 0
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Join kernel: morsel pipeline == whole-batch probe, all join types
# ---------------------------------------------------------------------------


def _random_join_batches(rng, probe_rows: int, build_rows: int):
    probe_keys = rng.integers(0, 20, probe_rows)
    build_keys = rng.integers(0, 20, build_rows)
    probe = Batch(
        {"p.k": probe_keys, "p.v": np.arange(probe_rows)},
        {"p.k": rng.random(probe_rows) < 0.15})
    build = Batch(
        {"b.k": build_keys, "b.w": np.arange(build_rows) * 10},
        {"b.k": rng.random(build_rows) < 0.15})
    return probe, build


@pytest.mark.parametrize("join_type", [JoinType.INNER, JoinType.LEFT,
                                       JoinType.SEMI, JoinType.ANTI,
                                       JoinType.FULL])
@pytest.mark.parametrize("morsel_size", [1, 7, 64, 10_000])
def test_morsel_join_identical_for_all_types(join_type, morsel_size):
    """Per-span probing + serial stitch == the serial equi-join, including
    NULL-keyed rows and LEFT/FULL padding, for any span partition."""
    rng = np.random.default_rng(17)
    probe, build = _random_join_batches(rng, 301, 97)
    clauses = [JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))]
    want = equi_join(probe, build, clauses, join_type)

    index, probe_cols, probe_null = build_probe_state(probe, build, clauses)
    results = [probe_span_pairs(index, probe_cols, probe_null, start, stop)
               for start, stop in probe.spans(morsel_size)]
    probe_idx, build_idx, counts = concat_pair_results(results)
    got = stitch_equi_join(probe, build, join_type, probe_idx, build_idx,
                           counts)
    assert_batches_identical(want, got)


def test_probe_kernel_shm_roundtrip():
    """The process-pool probe kernel, run in-process over a real arena,
    reproduces the direct span probe bit-for-bit."""
    rng = np.random.default_rng(23)
    probe, build = _random_join_batches(rng, 150, 40)
    clauses = [JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))]
    index, probe_cols, probe_null = build_probe_state(probe, build, clauses)
    with ShmArena() as arena:
        payload = export_probe_task(index, probe_cols, probe_null, arena)
        assert arena.bytes_exported > 0
        for start, stop in probe.spans(64):
            want = probe_span_pairs(index, probe_cols, probe_null, start, stop)
            got = probe_morsel_kernel(payload, start, stop)
            for w, g in zip(want, got):
                assert np.array_equal(w, g)


# ---------------------------------------------------------------------------
# Two-phase aggregation: segment partials == single pass
# ---------------------------------------------------------------------------


class TestSegmentedAggregation:
    def _calls_data(self, rng, rows: int):
        values = rng.integers(-50, 50, rows).astype(np.float64)
        mask = rng.random(rows) < 0.2
        return values, mask

    @pytest.mark.parametrize("func", [AggregateFunction.COUNT,
                                      AggregateFunction.SUM,
                                      AggregateFunction.AVG,
                                      AggregateFunction.MIN,
                                      AggregateFunction.MAX])
    def test_merged_partials_match_single_pass(self, func, monkeypatch):
        """Multi-segment fold == one-pass aggregation on every function
        (integer-valued floats, so float folds are exact too)."""
        monkeypatch.setattr(aggregate_module, "AGG_SEGMENT_ROWS", 13)
        rng = np.random.default_rng(5)
        rows, num_groups = 211, 9
        group_ids = rng.integers(0, num_groups, rows).astype(np.int64)
        values, mask = self._calls_data(rng, rows)
        calls = [(func, values, mask)]
        spans = segment_spans(rows)
        assert len(spans) > 1
        per_span = [compute_segment_partials(calls, group_ids, num_groups,
                                             start, stop)
                    for start, stop in spans]
        got, got_mask = merge_partials(func, [p[0] for p in per_span])
        whole = compute_segment_partials(calls, group_ids, num_groups,
                                         0, rows)
        want, want_mask = merge_partials(func, whole)
        assert np.array_equal(got, want)
        assert (got_mask is None) == (want_mask is None)
        if got_mask is not None:
            assert np.array_equal(got_mask, want_mask)

    def test_partials_kernel_shm_roundtrip(self):
        rng = np.random.default_rng(29)
        rows, num_groups = 120, 5
        group_ids = rng.integers(0, num_groups, rows).astype(np.int64)
        values, mask = self._calls_data(rng, rows)
        calls = [(AggregateFunction.SUM, values, mask),
                 (AggregateFunction.COUNT, None, None)]
        with ShmArena() as arena:
            payload = aggregate_module.export_partials_task(
                arena, calls, group_ids, num_groups)
            for start, stop in [(0, 40), (40, 120)]:
                want = compute_segment_partials(calls, group_ids, num_groups,
                                                start, stop)
                got = segment_partials_kernel(payload, start, stop)
                for (wc, ws), (gc, gs) in zip(want, got):
                    assert np.array_equal(wc, gc)
                    assert (ws is None) == (gs is None)
                    if ws is not None:
                        assert np.array_equal(ws, gs)

    def test_small_segments_identical_through_engine(self, monkeypatch):
        """End to end with a tiny segment width: serial and thread-parallel
        aggregation stay bit-identical (segmentation never depends on the
        worker count), NULL groups and all-NULL inputs included."""
        monkeypatch.setattr(aggregate_module, "AGG_SEGMENT_ROWS", 37)
        rng = np.random.default_rng(31)
        size = 2_000
        values = rng.normal(size=size)
        values[rng.random(size) < 0.1] = np.nan  # inferred NULLs
        columns = {"k": rng.integers(0, 12, size), "v": values}
        results: List[Batch] = []
        for workers, morsel in [(0, 65536), (4, 113)]:
            db = Database(Catalog())
            db.register_table("t", columns)
            results.append(db.connect(executor_workers=workers,
                                      morsel_size=morsel).execute(
                "select k, sum(v) as s, avg(v) as a, count(v) as c, "
                "min(v) as lo, max(v) as hi from t group by k order by k"
            ).execution.batch)
        assert_batches_identical(results[0], results[1])

    def test_empty_batch_yields_one_global_partial(self):
        assert segment_spans(0) == [(0, 0)]
        counts, stat = compute_segment_partials(
            [(AggregateFunction.SUM, np.zeros(0), None)],
            np.zeros(0, dtype=np.int64), 1, 0, 0)[0]
        out, mask = merge_partials(AggregateFunction.SUM, [(counts, stat)])
        assert list(mask) == [True]  # SUM over no rows is NULL


# ---------------------------------------------------------------------------
# Parallel merge sort: runs + pairwise merges == stable lexsort
# ---------------------------------------------------------------------------


class TestParallelSort:
    @given(st.lists(st.floats(min_value=-5, max_value=5, width=16)
                    | st.just(float("nan")), max_size=80),
           st.integers(min_value=1, max_value=17))
    @settings(max_examples=60, deadline=None)
    def test_float_key_with_nans(self, values, morsel):
        key = np.asarray(values, dtype=np.float64)
        combined = combined_sort_key([key])
        spans = Batch({"x.v": key}).spans(morsel)
        got = parallel_sort_order(combined, spans)
        want = np.lexsort([key])
        assert np.array_equal(got, want)

    @given(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from("abc")),
                    max_size=60),
           st.integers(min_value=1, max_value=11))
    @settings(max_examples=60, deadline=None)
    def test_mixed_dtype_composite_key(self, rows, morsel):
        ints = np.asarray([r[0] for r in rows], dtype=np.int64)
        strs = np.asarray([r[1] for r in rows], dtype=object)
        keys = [strs, ints]  # lexsort convention: ints primary
        combined = combined_sort_key(keys)
        spans = Batch({"x.v": ints}).spans(morsel)
        got = parallel_sort_order(combined, spans)
        want = np.lexsort(keys)
        assert np.array_equal(got, want)

    def test_runner_hook_receives_merge_rounds(self):
        """The runner is exercised for runs and merges, in canonical order."""
        key = np.asarray([3, 1, 2, 0, 7, 5, 4, 6], dtype=np.int64)
        calls = []

        def runner(fn, items):
            calls.append(len(items))
            return [fn(item) for item in items]

        spans = [(0, 2), (2, 4), (4, 6), (6, 8)]
        got = parallel_sort_order(key, spans, runner)
        assert np.array_equal(got, np.argsort(key, kind="stable"))
        assert calls[0] == 4  # four runs sorted in parallel
        assert calls[1] == 2  # first merge round has two independent pairs

    def test_merge_preserves_stability_on_ties(self):
        key = np.zeros(10, dtype=np.int64)  # all equal: order = identity
        runs = [sort_run(key, 0, 5), sort_run(key, 5, 10)]
        assert list(merge_run_list(key, runs)) == list(range(10))


def test_tpch_sort_heavy_query_identical(tpch_db, serial_reference):
    """ORDER BY rides the parallel sort once the batch exceeds one morsel."""
    number = tpch_db.workload.query_numbers[0]
    want = serial_reference(number)
    session = tpch_db.connect(history_limit=0, executor_workers=4,
                              morsel_size=2)
    got = session.execute(tpch_db.workload.query(number))
    assert_batches_identical(want.execution.batch, got.execution.batch)


def test_empty_inputs_identical_on_every_route():
    """Zero rows through a filtered, Bloom-probed scan, an empty probe side
    and an empty projection: every route runs one empty span and yields the
    serial batch and metrics."""
    catalog = Catalog()
    catalog.register_table(Table(
        make_schema("e", [("k", INT64), ("v", FLOAT64, True)]),
        {"k": np.zeros(0, dtype=np.int64), "v": np.zeros(0)}))
    catalog.register_table(Table(make_schema("d", [("k", INT64)]),
                                 {"k": np.arange(10)}))
    bloom = BloomFilterSpec(
        filter_id="bf", apply_column=ColumnRef("e", "k"),
        build_column=ColumnRef("d", "k"), delta=frozenset({"d"}),
        estimate=BloomEstimate(selectivity=0.5, false_positive_rate=0.01,
                               build_ndv=10.0))
    probe = ScanNode(alias="e", table_name="e", bloom_filters=(bloom,),
                     predicates=(Comparison(ComparisonOp.GT,
                                            ColumnRef("e", "v"),
                                            Literal(0.0)),))
    join = JoinNode(outer=probe, inner=ScanNode(alias="d", table_name="d"),
                    clauses=(JoinClause(ColumnRef("e", "k"),
                                        ColumnRef("d", "k")),),
                    built_filters=(bloom,))
    plan = ProjectNode(child=join, items=(
        OutputItem(Arithmetic(ArithmeticOp.ADD, ColumnRef("e", "v"),
                              Literal(1.0)), "y"),
        OutputItem(ColumnRef("d", "k"), "dk")))

    def metrics_of(result) -> dict:
        fields = dataclasses.asdict(result.metrics)
        del fields["wall_time_seconds"]
        return fields

    results = []
    for knobs in ({},
                  {"executor_workers": 2, "morsel_size": 4},
                  {"executor_workers": 2, "morsel_size": 4,
                   "executor_backend": "process"}):
        context = ExecutionContext(catalog=catalog, **knobs)
        try:
            results.append(Executor(context).execute(plan))
            assert context.pools.stats()["pools_created"] == 0
        finally:
            context.pools.close()
    want = results[0]
    assert want.batch.keys == ["y", "dk"] and want.num_rows == 0
    assert want.metrics.bloom_filters_applied == 1
    for got in results[1:]:
        assert_batches_identical(want.batch, got.batch)
        assert metrics_of(got) == metrics_of(want)


# ---------------------------------------------------------------------------
# Cancellation: every morsel polls, on the serial and pooled paths
# ---------------------------------------------------------------------------


class _CountingClock:
    """A monotonic clock advancing one tick per observation."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestMorselCancellation:
    def _join_session(self, workers: int) -> Session:
        db = Database(Catalog())
        rng = np.random.default_rng(2)
        db.register_table("a", {"k": rng.integers(0, 50, 2_000),
                                "v": rng.normal(size=2_000)})
        db.register_table("b", {"k": np.arange(50)})
        return db.connect(executor_workers=workers, morsel_size=32)

    QUERY = ("select a.k, sum(a.v) as s from a, b "
             "where a.k = b.k group by a.k order by a.k")

    @pytest.mark.parametrize("workers", [0, 3])
    def test_deadline_trips_mid_execution(self, workers):
        """A deadline expiring after a fixed number of polls stops the query
        on both the inline (serial) and thread-pool morsel paths."""
        session = self._join_session(workers)
        clock = _CountingClock()
        token = CancelToken(deadline=25.0, clock=clock)
        with pytest.raises(QueryCancelledError):
            session.execute(self.QUERY, cancel=token)
        assert token.reason == "deadline exceeded"
        # The token tripped mid-execution, not before it started.
        assert clock.now >= 25.0

    def test_pre_cancelled_token_stops_before_any_work(self):
        session = self._join_session(2)
        token = CancelToken()
        token.cancel("abandoned")
        with pytest.raises(QueryCancelledError, match="abandoned"):
            session.execute(self.QUERY, cancel=token)

    def test_uncancelled_token_changes_nothing(self):
        session = self._join_session(2)
        want = session.execute(self.QUERY)
        got = session.execute(self.QUERY, cancel=CancelToken())
        assert_batches_identical(want.execution.batch, got.execution.batch)


# ---------------------------------------------------------------------------
# Pool reuse + executor_stats
# ---------------------------------------------------------------------------


class TestPoolReuse:
    def test_execute_many_reuses_one_batch_pool(self, tpch_db):
        session = tpch_db.connect(history_limit=0, executor_workers=2,
                                  morsel_size=1024)
        queries = [tpch_db.workload.query(n) for n in (3, 12, 5)]
        session.execute_many(queries, workers=3)
        stats_first = session.executor_stats()
        assert stats_first["batch_pool_size"] == 3
        assert stats_first["batch_tasks"] == 3
        session.execute_many(queries, workers=3)
        stats_second = session.executor_stats()
        # Same pools, more work: no churn across execute_many calls.
        assert stats_second["pools_created"] == stats_first["pools_created"]
        assert stats_second["batch_tasks"] == 6
        assert stats_second["morsel_tasks"] > stats_first["morsel_tasks"]

    def test_morsel_pool_persists_across_executions(self, tpch_db):
        session = tpch_db.connect(history_limit=0, executor_workers=4,
                                  morsel_size=512)
        session.execute(tpch_db.workload.query(3))
        created = session.executor_stats()["pools_created"]
        session.execute(tpch_db.workload.query(12))
        assert session.executor_stats()["pools_created"] == created


# ---------------------------------------------------------------------------
# Shared-memory arena + backend knob plumbing
# ---------------------------------------------------------------------------


class TestShmArena:
    def test_roundtrip_and_memoization(self):
        values = np.arange(1_000, dtype=np.int64)
        floats = np.linspace(0, 1, 57)
        with ShmArena() as arena:
            ref = arena.export(values)
            assert arena.export(values) is ref  # memoized per array object
            attached = attach_array(ref)
            assert np.array_equal(attached, values)
            assert not attached.flags.writeable  # zero-copy views stay pure
            assert np.array_equal(attach_array(arena.export(floats)), floats)
            assert arena.export_optional(None) is None
            assert arena.bytes_exported == values.nbytes + floats.nbytes

    def test_object_and_empty_arrays_inline(self):
        tags = np.asarray(["a", "bb", None], dtype=object)
        empty = np.zeros(0, dtype=np.float64)
        with ShmArena() as arena:
            got_tags = attach_array(arena.export(tags))
            got_empty = attach_array(arena.export(empty))
            assert list(got_tags) == list(tags)
            assert got_empty.shape == (0,) and got_empty.dtype == empty.dtype

    def test_table_export_columns(self):
        schema = make_schema("t", [("k", INT64), ("v", FLOAT64, True)])
        table = Table(schema, {"k": np.arange(10),
                               "v": np.asarray([np.nan] * 5 + [1.0] * 5)})
        with ShmArena() as arena:
            refs = table.export_columns(arena)
            k_values, k_mask = refs["k"]
            assert np.array_equal(attach_array(k_values), table.column("k"))
            assert k_mask is None
            v_values, v_mask = refs["v"]
            assert np.array_equal(attach_array(v_mask),
                                  table.null_mask("v"))
            assert np.array_equal(attach_array(v_values)[5:],
                                  table.column("v")[5:])


class TestBackendKnob:
    def test_resolve_backend(self):
        assert resolve_backend("thread") == "thread"
        assert resolve_backend("process") == "process"
        auto = resolve_backend("auto")
        assert auto == ("thread" if free_threaded_build() else "process")
        with pytest.raises(ValueError):
            resolve_backend("greenlet")

    def test_knob_validation(self, tpch_workload):
        db = Database(tpch_workload.catalog)
        with pytest.raises(ValueError):
            db.connect(executor_backend="greenlet")
        assert db.connect().context.executor_backend == "thread"
        process = db.connect(executor_backend="process")
        assert process.context.executor_backend == "process"
