"""Parallel execution must be bit-identical to serial execution.

The contract of the morsel subsystem (docs/executor.md) is that
``executor_workers`` and ``morsel_size`` are pure performance knobs: for any
query, output batches (values, dtypes, null masks, row order) and every
simulated metric (work units, Bloom probe counts) are exactly the same on the
serial and parallel paths, for any morsel size.  These tests pin that
invariant over the full TPC-H workload plus targeted NULL / outer-join /
composite-key cases, pin the factorized join kernel against the legacy
sort/search kernel property-style, and cover the batched serving entry point
(``Session.execute_many`` / ``Database.execute_many``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.core import ColumnRef, JoinClause
from repro.core.query import JoinType
from repro.errors import ExecutionError
from repro.executor import (
    Batch,
    CompositeKeyIndex,
    DEFAULT_MORSEL_SIZE,
    combine_key_columns,
    cross_join,
    equi_join,
    join_indices,
    sort_search_join_indices,
)
from repro.executor.joins import DEFAULT_MAX_CROSS_JOIN_ROWS
from repro.executor import keys as keys_module
from repro.storage import Table, make_schema
from repro.storage.partitioning import PartitionedTable, RangePartitionSpec
from repro.storage.types import FLOAT64, INT64, STRING


def assert_batches_identical(expected: Batch, actual: Batch) -> None:
    """Bitwise equality: keys, order, dtypes, values and null masks."""
    assert expected.keys == actual.keys
    assert expected.num_rows == actual.num_rows
    for key in expected.keys:
        want, got = expected.column(key), actual.column(key)
        assert want.dtype == got.dtype, key
        assert np.array_equal(want, got), key
        want_mask = expected.null_mask(key)
        got_mask = actual.null_mask(key)
        assert (want_mask is None) == (got_mask is None), key
        if want_mask is not None:
            assert np.array_equal(want_mask, got_mask), key


# ---------------------------------------------------------------------------
# TPC-H: serial == threads, across morsel sizes
# ---------------------------------------------------------------------------


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


#: (4, 4096) splits only the large tables at the test scale factor, so split
#: and unsplit scans meet in one plan.
@pytest.mark.parametrize("workers,morsel_size",
                         [(2, 500), (4, 117), (4, 4096)])
def test_tpch_parallel_identical_to_serial(tpch_db, serial_reference,
                                           workers, morsel_size):
    parallel = tpch_db.connect(history_limit=0, executor_workers=workers,
                               morsel_size=morsel_size)
    for number in tpch_db.workload.query_numbers:
        want = serial_reference(number)
        got = parallel.execute(tpch_db.workload.query(number))
        assert_batches_identical(want.execution.batch, got.execution.batch)
        # The parallel path must not change the simulated latency model.
        assert got.execution.metrics.total_work_units == \
            want.execution.metrics.total_work_units, number
        assert got.execution.metrics.bloom_probes == \
            want.execution.metrics.bloom_probes, number
        assert got.execution.metrics.rows_scanned == \
            want.execution.metrics.rows_scanned, number
        assert got.execution.metrics.rows_bloom_filtered == \
            want.execution.metrics.rows_bloom_filtered, number


def test_parallel_identical_with_nulls_and_composite_keys():
    """NULL-keyed rows and composite group keys across the morsel matrix."""
    rng = np.random.default_rng(7)
    size = 5_000
    values = rng.normal(size=size)
    values[rng.random(size) < 0.1] = np.nan  # inferred NULLs
    columns = {
        "k1": rng.integers(0, 40, size),
        "k2": rng.integers(-5, 5, size),  # negative: defeats int packing
        "tag": np.array(["abcdefghij"[i] for i in
                         rng.integers(0, 10, size)], dtype=object),
        "v": values,
    }
    results = []
    for workers, morsel in [(0, 65536), (3, 137), (4, 1024)]:
        db = Database(__import__("repro.storage",
                                 fromlist=["Catalog"]).Catalog())
        db.register_table("t", columns)
        session = db.connect(executor_workers=workers, morsel_size=morsel)
        results.append(session.execute(
            "select k1, k2, tag, sum(v) as s, count(v) as c from t "
            "where v is not null or k2 < 0 "
            "group by k1, k2, tag order by k1, k2, tag").execution.batch)
    for other in results[1:]:
        assert_batches_identical(results[0], other)


def test_outer_join_unchanged_by_kernel_swap():
    """FULL join pairs, padding masks and row order on the new kernel."""
    probe = Batch({"p.k": np.asarray([1, 2, 2, 7]),
                   "p.v": np.asarray([10, 20, 21, 70])},
                  {"p.k": np.asarray([False, False, False, True])})
    build = Batch({"b.k": np.asarray([2, 2, 9]),
                   "b.w": np.asarray([200, 201, 900])})
    clause = JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))
    joined = equi_join(probe, build, [clause], JoinType.FULL)
    # 4 matched pairs + unmatched probe rows 1 and NULL-keyed 7 + build 9.
    assert joined.num_rows == 4 + 2 + 1
    assert list(joined.column("p.v")[:4]) == [20, 20, 21, 21]
    assert list(joined.column("b.w")[:4]) == [200, 201, 200, 201]
    pad_mask = joined.null_mask("b.w")
    assert list(pad_mask) == [False] * 4 + [True, True, False]
    probe_pad = joined.null_mask("p.v")
    assert list(probe_pad) == [False] * 6 + [True]


# ---------------------------------------------------------------------------
# Kernel property tests: factorized == sort/search
# ---------------------------------------------------------------------------


class TestFactorizedKernel:
    @given(st.lists(st.integers(min_value=-3, max_value=6), max_size=60),
           st.lists(st.integers(min_value=-3, max_value=6), max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_sort_search(self, probe_keys, build_keys):
        probe = np.asarray(probe_keys, dtype=np.int64)
        build = np.asarray(build_keys, dtype=np.int64)
        want = sort_search_join_indices(probe, build)
        got = join_indices(probe, build)
        for w, g in zip(want, got):
            assert np.array_equal(w, g)

    @given(st.lists(st.floats(min_value=-4, max_value=4, width=16),
                    max_size=40),
           st.lists(st.floats(min_value=-4, max_value=4, width=16),
                    max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_float_keys_bit_identical(self, probe_keys, build_keys):
        probe = np.asarray(probe_keys, dtype=np.float64)
        build = np.asarray(build_keys, dtype=np.float64)
        want = sort_search_join_indices(probe, build)
        got = join_indices(probe, build)
        for w, g in zip(want, got):
            assert np.array_equal(w, g)

    def test_nan_key_data_bit_identical(self):
        """Raw NaN float keys (data, not NULLs): the legacy kernel brackets
        the build side's NaN run, so NaN probes match every build NaN — the
        factorized kernel must reproduce the exact pairs."""
        rng = np.random.default_rng(11)
        for _ in range(30):
            probe = rng.integers(0, 5, rng.integers(0, 30)).astype(float)
            build = rng.integers(0, 5, rng.integers(0, 30)).astype(float)
            probe[rng.random(probe.size) < 0.25] = np.nan
            build[rng.random(build.size) < 0.25] = np.nan
            want = sort_search_join_indices(probe, build)
            got = join_indices(probe, build)
            for w, g in zip(want, got):
                assert np.array_equal(w, g)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2),
                              st.sampled_from("xyz")), max_size=40),
           st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2),
                              st.sampled_from("xyz")), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_composite_keys_match_brute_force(self, probe_rows, build_rows):
        """Three mixed-dtype key columns: the composite index must emit the
        same pairs (and pair order) as sort/search over per-row tuples."""
        def cols(rows):
            return [np.asarray([r[0] for r in rows], dtype=np.int64),
                    np.asarray([r[1] for r in rows], dtype=np.int64),
                    np.asarray([r[2] for r in rows], dtype=object)]

        def tuple_keys(rows):
            out = np.empty(len(rows), dtype=object)
            for i, row in enumerate(rows):
                out[i] = row
            return out

        index = CompositeKeyIndex(cols(build_rows))
        got = index.probe(cols(probe_rows))
        want = sort_search_join_indices(tuple_keys(probe_rows),
                                        tuple_keys(build_rows))
        for w, g in zip(want, got):
            assert np.array_equal(w, g)

    def test_probe_values_absent_from_build(self):
        index = CompositeKeyIndex([np.asarray([1, 2, 2]),
                                   np.asarray(["a", "a", "b"], dtype=object)])
        probe_idx, build_idx, counts = index.probe(
            [np.asarray([2, 2, 9]),
             np.asarray(["a", "zz", "a"], dtype=object)])
        assert counts.tolist() == [1, 0, 0]
        assert build_idx.tolist() == [1]

    def test_packed_probe_out_of_range(self):
        """Probe ints outside the two-int packing range can never match."""
        index = CompositeKeyIndex([np.asarray([1, 2], dtype=np.int64),
                                   np.asarray([3, 4], dtype=np.int64)])
        probe_idx, build_idx, counts = index.probe(
            [np.asarray([1, -7, 2 ** 40], dtype=np.int64),
             np.asarray([3, 3, 4], dtype=np.int64)])
        assert counts.tolist() == [1, 0, 0]

    def test_pack_overflow_compression_path(self, monkeypatch):
        """A tiny pack limit forces the densify path; grouping and join
        results must be unchanged."""
        monkeypatch.setattr(keys_module, "_PACK_LIMIT", 4)
        rng = np.random.default_rng(3)
        cols = [rng.integers(0, 50, 300), rng.integers(0, 50, 300),
                rng.integers(-25, 25, 300).astype(np.float64)]
        combined = combine_key_columns(cols)
        brute = np.empty(300, dtype=object)
        for i in range(300):
            brute[i] = tuple(c[i] for c in cols)
        _, want_inverse = np.unique(brute, return_inverse=True)
        _, got_inverse = np.unique(combined, return_inverse=True)
        assert np.array_equal(want_inverse, got_inverse)

        index = CompositeKeyIndex([c[:200] for c in cols])
        got = index.probe([c[200:] for c in cols])
        want = sort_search_join_indices(brute[200:], brute[:200])
        for w, g in zip(want, got):
            assert np.array_equal(w, g)

    def test_combine_preserves_lexicographic_order(self):
        cols = [np.asarray([1, 1, 0, 2]),
                np.asarray(["b", "a", "z", "a"], dtype=object),
                np.asarray([0.5, -1.0, 3.0, 2.0])]
        combined = combine_key_columns(cols)
        order = np.argsort(combined, kind="stable")
        tuples = sorted(range(4), key=lambda i: tuple(c[i] for c in cols))
        assert order.tolist() == tuples

    def test_build_index_memoized_per_batch(self):
        build = Batch({"b.k": np.asarray([1, 2, 2, 3])})
        probe = Batch({"p.k": np.asarray([2, 3])})
        clause = JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))
        equi_join(probe, build, [clause])
        first = build.kernel_memo(("build_index", ("b.k",)),
                                  lambda: pytest.fail("memo missing"))
        equi_join(Batch({"p.k": np.asarray([1])}), build, [clause])
        second = build.kernel_memo(("build_index", ("b.k",)),
                                   lambda: pytest.fail("memo missing"))
        assert first is second


# ---------------------------------------------------------------------------
# Morsel planning over partitioned storage
# ---------------------------------------------------------------------------


class TestMorselSpans:
    def _table(self, values, offsets=None):
        schema = make_schema("t", [("v", INT64)])
        return Table(schema, {"v": np.asarray(values)},
                     partition_offsets=offsets)

    def test_plain_table_spans(self):
        table = self._table(np.arange(10))
        assert table.morsel_spans(4) == [(0, 4), (4, 8), (8, 10)]
        assert table.morsel_spans(100) == [(0, 10)]
        assert self._table([]).morsel_spans(4) == []

    def test_spans_align_to_partition_offsets(self):
        table = self._table(np.arange(10), offsets=[0, 3, 9])
        assert table.morsel_spans(4) == [(0, 3), (3, 7), (7, 9), (9, 10)]

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            self._table(np.arange(4), offsets=[1, 2])
        with pytest.raises(ValueError):
            self._table(np.arange(4), offsets=[0, 9])

    def test_fused_partitioned_table_records_offsets(self):
        schema = make_schema("t", [("d", FLOAT64), ("s", STRING)])
        table = Table(schema, {"d": np.asarray([5.0, 1.0, 9.0, 3.0]),
                               "s": np.asarray(["a", "b", "c", "d"])})
        part = PartitionedTable(table, RangePartitionSpec("d", (2.0, 6.0)))
        fused = part.fused()
        assert fused.partition_offsets == (0, 1, 3)
        assert list(fused.column("d")) == [1.0, 5.0, 3.0, 9.0]
        assert fused.morsel_spans(10) == [(0, 1), (1, 3), (3, 4)]


# ---------------------------------------------------------------------------
# Batched serving
# ---------------------------------------------------------------------------


class TestExecuteMany:
    def test_results_in_input_order_and_deduplicated(self, tpch_db):
        numbers = [3, 12, 3, 5, 12, 3]
        session = tpch_db.connect(executor_workers=4)
        results = session.execute_many(
            [tpch_db.workload.query(n) for n in numbers])
        assert len(results) == len(numbers)
        for result, number in zip(results, numbers):
            reference = tpch_db.connect(history_limit=0).execute(
                tpch_db.workload.query(number))
            assert_batches_identical(reference.execution.batch,
                                     result.execution.batch)
        # Duplicates share one immutable execution, distinct queries do not.
        assert results[0].execution is results[2].execution
        assert results[0].execution is results[5].execution
        assert results[1].execution is results[4].execution
        assert results[0].execution is not results[3].execution
        # All results land in the history, input order preserved.
        assert [r.query.fingerprint() for r in session.history[-6:]] == \
            [tpch_db.workload.query(n).fingerprint() for n in numbers]

    def test_dedup_disabled_executes_each(self, tpch_db):
        session = tpch_db.connect(history_limit=0)
        query = tpch_db.workload.query(12)
        results = session.execute_many([query, query], deduplicate=False)
        assert results[0].execution is not results[1].execution
        assert_batches_identical(results[0].execution.batch,
                                 results[1].execution.batch)

    def test_database_execute_many_sql(self):
        db = Database(__import__("repro.storage",
                                 fromlist=["Catalog"]).Catalog())
        db.register_table("t", {"k": np.arange(100),
                                "v": np.arange(100) * 2.0})
        results = db.execute_many(
            ["select k from t where v > 100.0 order by k",
             "select sum(v) as s from t",
             "select k from t where v > 100.0 order by k"],
            workers=3)
        assert results[0].num_rows == 49
        assert results[1].column("s")[0] == float(np.sum(np.arange(100) * 2.0))
        assert results[0].execution is results[2].execution

    def test_failure_propagates_typed(self, tpch_db):
        db = Database(__import__("repro.storage",
                                 fromlist=["Catalog"]).Catalog())
        db.register_table("a", {"k": np.arange(50)})
        db.register_table("b", {"k": np.arange(50)})
        session = db.connect(max_cross_join_rows=100)
        with pytest.raises(ExecutionError):
            session.execute_many(["select a.k from a, b"], workers=2)


# ---------------------------------------------------------------------------
# Knob plumbing
# ---------------------------------------------------------------------------


class TestExecutorKnobs:
    def test_session_knobs_reach_the_context(self, tpch_workload):
        db = Database(tpch_workload.catalog)
        session = db.connect(executor_workers=6, morsel_size=123,
                             max_cross_join_rows=77)
        assert session.context.executor_workers == 6
        assert session.context.morsel_size == 123
        assert session.context.max_cross_join_rows == 77
        default = db.connect()
        assert default.context.executor_workers == 0
        assert default.context.morsel_size == DEFAULT_MORSEL_SIZE
        assert default.context.max_cross_join_rows == \
            DEFAULT_MAX_CROSS_JOIN_ROWS

    def test_invalid_knobs_fail_eagerly(self, tpch_workload):
        db = Database(tpch_workload.catalog)
        with pytest.raises(ValueError):
            db.connect(morsel_size=0)
        with pytest.raises(ValueError):
            db.connect(executor_workers=-1)

    def test_context_validates_its_own_knobs(self, tpch_workload):
        # The checks live on ExecutionContext, so an executor built without
        # a session gets them too.
        from dataclasses import replace

        from repro.executor import ExecutionContext

        context = ExecutionContext.for_catalog(tpch_workload.catalog)
        for knob, value in (("morsel_size", 0), ("executor_workers", -1),
                            ("executor_backend", "greenlet"),
                            ("max_memory_bytes", 0), ("max_spill_bytes", 0),
                            ("max_rows", 0)):
            with pytest.raises(ValueError):
                replace(context, **{knob: value})


# ---------------------------------------------------------------------------
# Cross-join guard
# ---------------------------------------------------------------------------


class TestCrossJoinGuard:
    def test_small_products_still_run(self):
        left = Batch({"l.a": np.arange(100)})
        right = Batch({"r.b": np.arange(50)})
        assert cross_join(left, right).num_rows == 5_000

    def test_blow_up_raises_execution_error(self):
        left = Batch({"l.a": np.arange(4_000)})
        right = Batch({"r.b": np.arange(4_000)})
        with pytest.raises(ExecutionError, match="max_cross_join_rows"):
            cross_join(left, right)
        with pytest.raises(ExecutionError):
            cross_join(left, right, max_rows=1_000_000)

    def test_limit_configurable_and_disableable(self):
        left = Batch({"l.a": np.arange(200)})
        right = Batch({"r.b": np.arange(200)})
        with pytest.raises(ExecutionError):
            cross_join(left, right, max_rows=100)
        assert cross_join(left, right, max_rows=0).num_rows == 40_000
        assert cross_join(left, right, max_rows=-1).num_rows == 40_000
