"""Memory governance: budgets, spill-to-disk, and graceful degradation.

The governance contract (``docs/memory.md``) is that memory pressure
*degrades* rather than fails: a denied reservation sends the stateful
operators (hash join, aggregation, sort) down spill paths that are
bit-identical to their in-memory results; pool contention surfaces as the
*transient* :class:`~repro.errors.GovernorExhaustedError` so serving
retries compose; and only the per-query watchdog limits
(``max_memory_bytes`` is a degradation knob, ``max_spill_bytes`` /
``max_rows`` are hard walls) raise the permanent
:class:`~repro.errors.ResourceExhaustedError`.  Every denial, spilled byte
and degraded operator is counted exactly in
``executor_stats()["memory"]``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api import Database
from repro.core import ColumnRef, JoinClause
from repro.core.query import JoinType
from repro.errors import (
    GovernorExhaustedError,
    ResourceExhaustedError,
    TransientError,
)
from repro.executor import (
    Batch,
    MemoryBudget,
    MemoryGovernor,
    MemoryStats,
    equi_join,
    live_segment_stats,
    spill_equi_join,
)
from repro.faults import FaultPlan, FaultSpec, SITE_MEMORY_PRESSURE
from repro.serving.queue import AdmissionQueue

#: Backends the bit-identity scenarios run under (matches the chaos suite).
BACKENDS = tuple(os.environ.get("REPRO_CHAOS_BACKEND",
                                "thread process").split())

#: TPC-H queries covering all three spill-capable operators
#: (join + aggregate + sort).
QUERIES = (3, 5, 12)


def assert_batches_identical(expected, actual) -> None:
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
# The governor: one process-wide pool
# ---------------------------------------------------------------------------


class TestMemoryGovernor:
    def test_grant_release_accounting(self):
        governor = MemoryGovernor(1000)
        assert governor.try_acquire(600)
        assert governor.available() == 400
        assert not governor.try_acquire(500)
        assert governor.try_acquire(400)
        governor.release(1000)
        stats = governor.stats()
        assert stats["pool_bytes"] == 1000
        assert stats["granted_bytes"] == 0
        assert stats["peak_granted_bytes"] == 1000
        assert stats["denials"] == 1

    def test_unbounded_pool_always_grants(self):
        governor = MemoryGovernor(None)
        assert governor.try_acquire(10 ** 15)
        assert governor.available() is None
        assert governor.stats()["denials"] == 0

    def test_release_never_goes_negative(self):
        governor = MemoryGovernor(100)
        governor.release(50)
        assert governor.granted_bytes == 0
        assert governor.try_acquire(100)

    def test_pool_size_validation(self):
        with pytest.raises(ValueError):
            MemoryGovernor(0)
        with pytest.raises(ValueError):
            MemoryGovernor(-1)

    def test_default_governor_reads_env_once(self, monkeypatch):
        from repro.executor.memory import (
            POOL_ENV_VAR,
            default_governor,
            reset_default_governor,
        )
        monkeypatch.setenv(POOL_ENV_VAR, "4096")
        reset_default_governor()
        try:
            governor = default_governor()
            assert governor.pool_bytes == 4096
            # The instance is cached: a later env change is not observed,
            # which is what makes the pool genuinely process-wide.
            monkeypatch.setenv(POOL_ENV_VAR, "8192")
            assert default_governor() is governor
        finally:
            reset_default_governor()


# ---------------------------------------------------------------------------
# The budget: per-query grants and the runaway watchdog
# ---------------------------------------------------------------------------


class TestMemoryBudget:
    def test_cap_denial_degrades_without_raising(self):
        budget = MemoryBudget(governor=MemoryGovernor(None),
                              max_memory_bytes=100)
        assert budget.try_reserve(80)
        assert not budget.try_reserve(40)
        assert budget.stats.reservation_denials == 1
        budget.release(80)
        assert budget.try_reserve(100)
        budget.close()

    def test_pool_denial_degrades_without_raising(self):
        governor = MemoryGovernor(100)
        budget = MemoryBudget(governor=governor)
        assert not budget.try_reserve(200)
        assert budget.stats.reservation_denials == 1
        assert governor.granted_bytes == 0
        budget.close()

    def test_require_raises_transient_on_pool_contention(self):
        budget = MemoryBudget(governor=MemoryGovernor(100))
        with pytest.raises(GovernorExhaustedError) as excinfo:
            budget.require(200, "test scratch")
        # Pool contention is the one transient resource error: concurrent
        # queries releasing their grants lets a retry succeed, so the
        # serving tier's RetryPolicy must see TransientError.
        assert isinstance(excinfo.value, TransientError)
        assert isinstance(excinfo.value, ResourceExhaustedError)
        budget.close()

    def test_require_ignores_per_query_cap(self):
        # Spilling is already the degraded path: its bounded chunk scratch
        # must not be re-denied by the cap that caused the spill.
        budget = MemoryBudget(governor=MemoryGovernor(None),
                              max_memory_bytes=1)
        budget.require(1000, "spill chunk")
        assert budget.reserved_bytes == 1000
        budget.close()

    def test_spill_roundtrip_and_counters(self):
        budget = MemoryBudget(governor=MemoryGovernor(None))
        arrays = {"a": np.arange(10), "b": np.linspace(0.0, 1.0, 10)}
        path = budget.write_spill("join", arrays)
        assert os.path.exists(path)
        loaded = MemoryBudget.read_spill(path)
        assert set(loaded) == {"a", "b"}
        assert np.array_equal(loaded["a"], arrays["a"])
        assert np.array_equal(loaded["b"], arrays["b"])
        assert budget.stats.spill_chunks == 1
        assert budget.stats.spill_bytes_written == os.path.getsize(path)
        MemoryBudget.drop_spill(path)
        assert not os.path.exists(path)
        budget.close()

    def test_max_spill_bytes_is_a_permanent_wall(self):
        budget = MemoryBudget(governor=MemoryGovernor(None),
                              max_spill_bytes=10)
        with pytest.raises(ResourceExhaustedError) as excinfo:
            budget.write_spill("sort", {"k": np.arange(100)})
        assert excinfo.value.resource == "spill"
        assert not isinstance(excinfo.value, TransientError)
        budget.close()

    def test_max_rows_is_a_permanent_wall(self):
        budget = MemoryBudget(governor=MemoryGovernor(None), max_rows=10)
        budget.check_rows(10, "TestNode")
        with pytest.raises(ResourceExhaustedError) as excinfo:
            budget.check_rows(11, "TestNode")
        assert excinfo.value.resource == "rows"
        assert not isinstance(excinfo.value, TransientError)
        budget.close()

    def test_close_releases_grants_and_spill_files(self):
        governor = MemoryGovernor(1000)
        budget = MemoryBudget(governor=governor)
        assert budget.try_reserve(500)
        path = budget.write_spill("aggregate", {"x": np.arange(5)})
        directory = os.path.dirname(path)
        budget.close()
        assert governor.granted_bytes == 0
        assert budget.stats.reserved_bytes == 0
        assert not os.path.exists(directory)
        budget.close()  # idempotent

    def test_pressure_fault_denies_try_reserve_only(self):
        plan = FaultPlan([FaultSpec(SITE_MEMORY_PRESSURE, times=1)])
        budget = MemoryBudget(governor=MemoryGovernor(None), faults=plan)
        assert not budget.try_reserve(100)
        assert budget.stats.pressure_faults == 1
        assert budget.stats.reservation_denials == 1
        # The fault fires on scripted try_reserve ordinals only; require
        # is the bounded spill scratch and must never be force-denied.
        plan2 = FaultPlan([FaultSpec(SITE_MEMORY_PRESSURE, times=0)])
        budget2 = MemoryBudget(governor=MemoryGovernor(None), faults=plan2)
        budget2.require(100, "chunk")
        assert budget2.stats.pressure_faults == 0
        budget.close()
        budget2.close()


# ---------------------------------------------------------------------------
# Spill-join correctness: every join type, NULL keys included
# ---------------------------------------------------------------------------


def _random_join_batches(rng, probe_rows: int, build_rows: int):
    probe = Batch(
        {"p.k": rng.integers(0, 20, probe_rows),
         "p.v": np.arange(probe_rows)},
        {"p.k": rng.random(probe_rows) < 0.15})
    build = Batch(
        {"b.k": rng.integers(0, 20, build_rows),
         "b.w": np.arange(build_rows) * 10},
        {"b.k": rng.random(build_rows) < 0.15})
    return probe, build


@pytest.mark.parametrize("join_type", [JoinType.INNER, JoinType.LEFT,
                                       JoinType.SEMI, JoinType.ANTI,
                                       JoinType.FULL])
@pytest.mark.parametrize("seed", [5, 17, 91])
def test_spill_join_identical_for_all_types(join_type, seed):
    """Grace-partitioned spill join == the in-memory equi-join, for every
    join type, including NULL-keyed probe and build rows."""
    rng = np.random.default_rng(seed)
    probe, build = _random_join_batches(rng, 257, 83)
    clauses = [JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))]
    want = equi_join(probe, build, clauses, join_type)
    budget = MemoryBudget(governor=MemoryGovernor(None))
    try:
        got = spill_equi_join(probe, build, clauses, join_type, budget)
    finally:
        budget.close()
    assert_batches_identical(want, got)
    assert budget.stats.spill_chunks > 0


def test_spill_join_empty_sides():
    empty_probe = Batch({"p.k": np.zeros(0, dtype=np.int64),
                         "p.v": np.zeros(0, dtype=np.int64)})
    build = Batch({"b.k": np.arange(4), "b.w": np.arange(4)})
    clauses = [JoinClause(ColumnRef("p", "k"), ColumnRef("b", "k"))]
    for join_type in (JoinType.INNER, JoinType.LEFT, JoinType.FULL):
        want = equi_join(empty_probe, build, clauses, join_type)
        budget = MemoryBudget(governor=MemoryGovernor(None))
        try:
            got = spill_equi_join(empty_probe, build, clauses, join_type,
                                  budget)
        finally:
            budget.close()
        assert_batches_identical(want, got)


# ---------------------------------------------------------------------------
# Forced spill through SQL: DISTINCT aggregation, ORDER BY NULLS FIRST/LAST
# ---------------------------------------------------------------------------


@pytest.fixture()
def nullable_db():
    """A small database with NULL-bearing group keys and sort keys."""
    from repro.storage import Catalog

    database = Database(Catalog())
    rng = np.random.default_rng(7)
    rows = 500
    values = rng.integers(0, 9, rows)
    keys = rng.integers(0, 5, rows)
    database.register_table(
        "t", {"k": keys, "v": values, "id": np.arange(rows)},
        null_masks={"k": rng.random(rows) < 0.2,
                    "v": rng.random(rows) < 0.2})
    yield database


def _forced_spill_pair(database, sql):
    """Execute ``sql`` unlimited and under a 1-byte budget; return both."""
    unlimited = database.connect(history_limit=0)
    forced = database.connect(history_limit=0, max_memory_bytes=1)
    try:
        want = unlimited.execute(sql)
        got = forced.execute(sql)
        memory = forced.executor_stats()["memory"]
        return want, got, memory
    finally:
        unlimited.close()
        forced.close()


class TestForcedSpillSql:
    def test_distinct_aggregation_spills_identically(self, nullable_db):
        sql = ("SELECT k, count(DISTINCT v) AS dv, sum(v) AS sv "
               "FROM t GROUP BY k ORDER BY k")
        want, got, memory = _forced_spill_pair(nullable_db, sql)
        assert_batches_identical(want.execution.batch, got.execution.batch)
        assert memory["aggregate_spills"] > 0

    @pytest.mark.parametrize("modifier", ["NULLS FIRST", "NULLS LAST"])
    def test_order_by_null_placement_spills_identically(self, nullable_db,
                                                        modifier):
        sql = ("SELECT id, v FROM t "
               "ORDER BY v DESC %s, id" % modifier)
        want, got, memory = _forced_spill_pair(nullable_db, sql)
        assert_batches_identical(want.execution.batch, got.execution.batch)
        assert memory["sort_spills"] > 0

    def test_database_spill_dir_roots_every_session(self, tmp_path):
        from repro.storage import Catalog

        root = tmp_path / "spill"
        database = Database(Catalog(), spill_dir=str(root))
        database.register_table("t", {"v": np.arange(500)[::-1].copy()})
        session = database.connect(history_limit=0, max_memory_bytes=1)
        try:
            assert session.context.spill_dir == str(root)
            session.execute("SELECT v FROM t ORDER BY v")
            assert session.executor_stats()["memory"]["sort_spills"] > 0
        finally:
            session.close()
        # The root is created on the first spill; each query's own spill
        # directory under it is removed when the query finishes.
        assert root.is_dir()
        assert list(root.iterdir()) == []

    def test_forced_spill_join_identical(self, nullable_db):
        rng = np.random.default_rng(11)
        nullable_db.register_table(
            "u", {"k": rng.integers(0, 5, 40), "w": np.arange(40)},
            null_masks={"k": rng.random(40) < 0.2})
        sql = ("SELECT t.id, u.w FROM t, u WHERE t.k = u.k "
               "ORDER BY t.id, u.w")
        want, got, memory = _forced_spill_pair(nullable_db, sql)
        assert_batches_identical(want.execution.batch, got.execution.batch)
        assert memory["join_spills"] > 0


# ---------------------------------------------------------------------------
# TPC-H bit-identity: unlimited vs forced spill, per backend
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def unlimited_results(tpch_workload):
    """Ground-truth serial executions with no memory limits."""
    database = Database(tpch_workload.catalog)
    session = database.connect(history_limit=0)
    results = {number: session.execute(tpch_workload.query(number))
               for number in QUERIES}
    yield results
    session.close()


@pytest.mark.parametrize("backend", ("serial",) + BACKENDS)
def test_tpch_forced_spill_bit_identical(tpch_workload, unlimited_results,
                                         backend):
    """A 1-byte budget forces every operator down its spill path; results
    must not change on any backend, and every spill is counted."""
    database = Database(tpch_workload.catalog)
    overrides = {} if backend == "serial" else {
        "executor_backend": backend, "executor_workers": 2,
        "morsel_size": 512}
    session = database.connect(history_limit=0, max_memory_bytes=1,
                               **overrides)
    try:
        for number in QUERIES:
            got = session.execute(tpch_workload.query(number))
            assert_batches_identical(
                unlimited_results[number].execution.batch,
                got.execution.batch)
        memory = session.executor_stats()["memory"]
        assert memory["join_spills"] > 0
        assert memory["aggregate_spills"] > 0
        assert memory["sort_spills"] > 0
        assert memory["spill_chunks"] > 0
        assert memory["spill_bytes_written"] > 0
        assert memory["reservation_denials"] > 0
        # Every grant and spill file is gone once the queries finish.
        assert memory["reserved_bytes"] == 0
    finally:
        session.close()


def test_tpch_pool_below_working_set_completes(tpch_workload,
                                               unlimited_results):
    """The headline guarantee: a governor pool smaller than the working
    set completes the suite bit-identically via spill — zero OOM."""
    # The unlimited working set at this scale is a few hundred KiB; 64 KiB
    # sits well below it but above the bounded per-chunk spill scratch.
    database = Database(tpch_workload.catalog, memory_pool_bytes=64 * 1024)
    session = database.connect(history_limit=0)
    try:
        for number in QUERIES:
            got = session.execute(tpch_workload.query(number))
            assert_batches_identical(
                unlimited_results[number].execution.batch,
                got.execution.batch)
        memory = session.executor_stats()["memory"]
        assert memory["reservation_denials"] > 0
        assert memory["governor"]["pool_bytes"] == 64 * 1024
        assert memory["governor"]["granted_bytes"] == 0
    finally:
        session.close()


def test_memory_pressure_chaos_exact_counters(tpch_workload,
                                              unlimited_results):
    """Scripted memory-pressure faults force exactly the scripted number
    of spills, bit-identically."""
    plan = FaultPlan([FaultSpec(SITE_MEMORY_PRESSURE, times=3)])
    database = Database(tpch_workload.catalog, fault_plan=plan)
    session = database.connect(history_limit=0)
    try:
        for number in QUERIES:
            got = session.execute(tpch_workload.query(number))
            assert_batches_identical(
                unlimited_results[number].execution.batch,
                got.execution.batch)
        memory = session.executor_stats()["memory"]
        assert memory["pressure_faults"] == 3
        assert plan.counters()[SITE_MEMORY_PRESSURE] == 3
        spills = (memory["join_spills"] + memory["aggregate_spills"]
                  + memory["sort_spills"])
        assert spills == 3
        assert memory["shm"] == live_segment_stats()
        assert memory["shm"]["live_segments"] == 0
        assert memory["shm"]["resident_bytes"] == 0
    finally:
        session.close()


# ---------------------------------------------------------------------------
# The watchdog through the API: session-level limits and typed errors
# ---------------------------------------------------------------------------


class TestWatchdogLimits:
    def test_max_rows_kills_runaway_materialization(self, tpch_workload):
        database = Database(tpch_workload.catalog)
        session = database.connect(history_limit=0, max_rows=10)
        try:
            with pytest.raises(ResourceExhaustedError) as excinfo:
                session.execute("SELECT l_orderkey FROM lineitem")
            assert excinfo.value.resource == "rows"
        finally:
            session.close()

    def test_max_spill_bytes_kills_runaway_spill(self, tpch_workload):
        database = Database(tpch_workload.catalog)
        session = database.connect(history_limit=0, max_memory_bytes=1,
                                   max_spill_bytes=100)
        try:
            with pytest.raises(ResourceExhaustedError) as excinfo:
                session.execute(tpch_workload.query(3))
            assert excinfo.value.resource == "spill"
        finally:
            session.close()

    def test_max_rows_is_per_session(self, tpch_workload):
        database = Database(tpch_workload.catalog)
        session = database.connect(history_limit=0, max_rows=10)
        unlimited = database.connect(history_limit=0)
        try:
            with pytest.raises(ResourceExhaustedError):
                session.execute("SELECT l_orderkey FROM lineitem")
            result = unlimited.execute(
                "SELECT count(*) AS n FROM lineitem")
            assert result.execution.batch.num_rows == 1
        finally:
            session.close()
            unlimited.close()

    def test_knob_validation(self, tpch_workload):
        database = Database(tpch_workload.catalog)
        for knob in ("max_memory_bytes", "max_spill_bytes", "max_rows"):
            with pytest.raises(ValueError):
                database.connect(**{knob: 0})


# ---------------------------------------------------------------------------
# Byte-aware result cache
# ---------------------------------------------------------------------------


class TestByteWeightedCache:
    def test_lru_evicts_by_bytes(self):
        from repro.cache import LruCache

        cache = LruCache(max_entries=100, max_bytes=100)
        cache.store("a", 1, nbytes=40)
        cache.store("b", 2, nbytes=40)
        cache.store("c", 3, nbytes=40)  # evicts "a": 120 > 100
        assert cache.lookup("a") is None
        assert cache.lookup("b") is not None
        assert cache.lookup("c") is not None
        assert cache.resident_bytes == 80

    def test_oversized_entry_is_not_cached(self):
        from repro.cache import LruCache

        cache = LruCache(max_entries=100, max_bytes=100)
        cache.store("small", 1, nbytes=40)
        cache.store("huge", 2, nbytes=1000)
        assert cache.lookup("huge") is None
        # The oversized store must not wipe resident entries to make room
        # for something that can never fit.
        assert cache.lookup("small") is not None
        assert cache.resident_bytes == 40

    def test_overwrite_replaces_weight(self):
        from repro.cache import LruCache

        cache = LruCache(max_entries=100, max_bytes=100)
        cache.store("a", 1, nbytes=60)
        cache.store("a", 2, nbytes=20)
        assert cache.resident_bytes == 20
        assert cache.lookup("a") == 2

    def test_result_cache_resident_bytes_surface(self, tpch_workload):
        database = Database(tpch_workload.catalog, result_cache_size=8,
                            result_cache_bytes=1 << 20)
        session = database.connect(history_limit=0)
        try:
            session.execute(tpch_workload.query(3))
            stats = database.cache_stats()
            assert stats.result_resident_bytes > 0
            assert stats.result_resident_bytes <= 1 << 20
        finally:
            session.close()


# ---------------------------------------------------------------------------
# Admission control: the memory dimension (queue, don't shed)
# ---------------------------------------------------------------------------


class _FakeRequest:
    def __init__(self, estimated_bytes: int = 0) -> None:
        self.estimated_bytes = estimated_bytes


class TestAdmissionMemoryDeferral:
    def test_defers_while_pool_is_short(self):
        governor = MemoryGovernor(1000)
        queue = AdmissionQueue(governor=governor)
        assert governor.try_acquire(900)
        queue.submit("t1", _FakeRequest(estimated_bytes=500))
        # The head request wants 500 of the 100 free bytes: deferred, not
        # shed — it stays queued.
        assert queue.next(timeout=0.01) is None
        assert queue.memory_deferrals > 0
        assert queue.depth == 1
        governor.release(900)
        item = queue.next(timeout=0.01)
        assert item is not None and item[0] == "t1"
        queue.release("t1")
        queue.close()

    def test_livelock_guard_dispatches_impossible_estimates(self):
        governor = MemoryGovernor(1000)
        queue = AdmissionQueue(governor=governor)
        assert governor.try_acquire(900)
        # 5000 > the whole pool: waiting can never help, so the request
        # dispatches and the executor's budget degrades it to spill.
        queue.submit("t1", _FakeRequest(estimated_bytes=5000))
        item = queue.next(timeout=0.01)
        assert item is not None
        queue.release("t1")
        governor.release(900)
        queue.close()

    def test_zero_estimate_never_defers(self):
        governor = MemoryGovernor(1000)
        queue = AdmissionQueue(governor=governor)
        assert governor.try_acquire(1000)
        queue.submit("t1", _FakeRequest(estimated_bytes=0))
        assert queue.next(timeout=0.01) is not None
        queue.release("t1")
        governor.release(1000)
        queue.close()

    def test_deferred_tenant_does_not_block_others(self):
        governor = MemoryGovernor(1000)
        queue = AdmissionQueue(governor=governor)
        assert governor.try_acquire(900)
        queue.submit("hungry", _FakeRequest(estimated_bytes=500))
        queue.submit("small", _FakeRequest(estimated_bytes=50))
        item = queue.next(timeout=0.01)
        assert item is not None and item[0] == "small"
        queue.release("small")
        governor.release(900)
        queue.close()

    def test_serving_estimates_come_from_catalog_statistics(self,
                                                            tpch_workload):
        import asyncio

        from repro.serving import AsyncDatabase

        database = Database(tpch_workload.catalog)
        block = database.bind("SELECT count(*) AS n FROM lineitem")

        async def scenario():
            async with AsyncDatabase(database, workers=1) as serving:
                estimate = serving._estimate_bytes(block)
                expected = sum(
                    database.catalog.statistics(rel.table_name)
                    .estimated_bytes for rel in block.relations)
                assert estimate == expected > 0
                assert serving._estimate_bytes("SELECT 1 AS x") == 0

        asyncio.run(scenario())
