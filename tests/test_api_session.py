"""The embeddable session API: Database, Session, caches, typed errors.

Covers the satellite checklist of the API redesign: session lifecycle,
plan-cache hit/miss behaviour, enumeration-sequence reuse across same-shape
queries, prepared-query re-execution, the typed error surface and the
independence of concurrent sessions (including the per-execution Bloom
filter scoping fix).
"""

from __future__ import annotations

import inspect
import pathlib
import re
import threading

import numpy as np
import pytest

from repro.api import (
    BfCboSettings,
    Catalog,
    Database,
    ExecutionError,
    OptimizerMode,
    PlanningError,
    ReproError,
    Session,
    SqlError,
    make_schema,
    synthetic_statistics,
)
from repro.api import INT64
from repro.core.enumerator import EnumerationSequenceCache
from repro.core.query import QueryBlock
from repro.executor import Executor


def make_database() -> Database:
    """A small ad-hoc database with two joinable tables."""
    db = Database(Catalog())
    rng = np.random.default_rng(7)
    db.register_table("orders_t", {
        "o_id": np.arange(200, dtype=np.int64),
        "o_cust": rng.integers(0, 40, 200),
        "o_price": rng.uniform(1.0, 100.0, 200),
    }, primary_key=["o_id"])
    db.register_table("cust_t", {
        "c_id": np.arange(40, dtype=np.int64),
        "c_region": rng.integers(0, 4, 40),
    }, primary_key=["c_id"])
    return db


JOIN_SQL = """
    select c_region, count(*) as cnt, sum(o_price) as total
    from orders_t, cust_t
    where o_cust = c_id and c_region < 2
    group by c_region
    order by c_region
"""


class TestSessionLifecycle:
    def test_execute_returns_rows_and_metrics(self):
        db = make_database()
        session = db.connect()
        result = session.execute(JOIN_SQL, name="join-query")
        assert result.executed
        assert result.num_rows == 2
        assert set(result.columns) == {"c_region", "cnt", "total"}
        assert list(result.column("c_region")) == [0, 1]
        assert result.simulated_latency > 0
        assert result.optimization.planning_time_ms > 0
        assert "Scan" in result.explain()

    def test_history_records_every_result(self):
        db = make_database()
        session = db.connect()
        assert session.last is None
        session.execute("select count(*) as n from orders_t")
        session.execute(JOIN_SQL)
        assert len(session.history) == 2
        assert session.last is session.history[-1]
        assert session.total_simulated_latency == pytest.approx(
            sum(r.simulated_latency for r in session.history))
        session.clear_history()
        assert session.history == []

    def test_history_is_capped_and_can_be_disabled(self):
        db = make_database()
        capped = db.connect(history_limit=3)
        for _ in range(5):
            capped.execute("select count(*) as n from orders_t")
        assert len(capped.history) == 3
        disabled = db.connect(history_limit=0)
        disabled.execute("select count(*) as n from orders_t")
        assert disabled.history == [] and disabled.last is None

    def test_explain_records_history_like_plan(self):
        db = make_database()
        session = db.connect()
        session.explain(JOIN_SQL)
        assert len(session.history) == 1 and not session.last.executed
        session.explain(JOIN_SQL, analyze=True)
        assert len(session.history) == 2 and session.last.executed

    def test_plan_only_does_not_execute(self):
        db = make_database()
        session = db.connect()
        result = session.plan(JOIN_SQL)
        assert not result.executed
        assert result.num_rows == 0
        # Accessing rows of a plan-only result is caller misuse, not a query
        # failure — deliberately outside the ReproError hierarchy.
        with pytest.raises(RuntimeError):
            result.column("cnt")

    def test_explain_and_analyze(self):
        db = make_database()
        session = db.connect()
        plain = session.explain(JOIN_SQL)
        assert "Hash Join" in plain and "actual" not in plain
        analyzed = session.explain(JOIN_SQL, analyze=True)
        assert "actual" in analyzed

    def test_mode_overrides_cascade(self):
        db = make_database()
        no_bf_session = db.connect(mode=OptimizerMode.NO_BF)
        result = no_bf_session.execute(JOIN_SQL)
        assert result.mode is OptimizerMode.NO_BF
        # A per-call mode overrides the session default.
        result = no_bf_session.execute(JOIN_SQL, mode=OptimizerMode.BF_CBO)
        assert result.mode is OptimizerMode.BF_CBO
        # The database default applies when neither is given.
        assert db.connect().execute(JOIN_SQL).mode is OptimizerMode.BF_CBO


class TestPlanCache:
    def test_second_same_shape_query_hits_cache(self):
        db = make_database()
        session = db.connect()
        cold = session.execute(JOIN_SQL)
        warm = session.execute(JOIN_SQL)
        assert not cold.from_plan_cache
        assert warm.from_plan_cache
        # The cached optimization is the very same object: no re-planning.
        assert warm.optimization is cold.optimization
        stats = db.cache_stats()
        assert stats.plan_hits == 1
        assert stats.plan_misses >= 1
        assert stats.plan_entries >= 1

    def test_cache_key_includes_mode_and_settings(self):
        db = make_database()
        session = db.connect()
        a = session.execute(JOIN_SQL, mode=OptimizerMode.NO_BF)
        b = session.execute(JOIN_SQL, mode=OptimizerMode.BF_CBO)
        c = session.execute(JOIN_SQL, mode=OptimizerMode.BF_CBO,
                            settings=BfCboSettings.with_heuristic7())
        assert not any(r.from_plan_cache for r in (a, b, c))
        # Re-running each combination hits its own entry.
        assert session.execute(JOIN_SQL, mode=OptimizerMode.NO_BF).from_plan_cache
        assert session.execute(JOIN_SQL, mode=OptimizerMode.BF_CBO).from_plan_cache

    def test_cache_shared_across_sessions(self):
        db = make_database()
        first = db.connect()
        second = db.connect()
        cold = first.execute(JOIN_SQL)
        warm = second.execute(JOIN_SQL)
        assert warm.from_plan_cache
        assert warm.optimization is cold.optimization

    def test_query_name_does_not_defeat_the_cache(self):
        db = make_database()
        session = db.connect()
        session.execute(JOIN_SQL, name="first-name")
        assert session.execute(JOIN_SQL, name="other-name").from_plan_cache

    def test_post_bind_mutation_changes_fingerprint(self):
        db = make_database()
        block = db.bind(JOIN_SQL)
        before = block.fingerprint()
        assert block.fingerprint() is before  # memoized
        from repro.core import ColumnRef, Comparison, ComparisonOp, Literal

        block.local_predicates.setdefault("orders_t", []).append(
            Comparison(ComparisonOp.LT, ColumnRef("orders_t", "o_id"),
                       Literal(50)))
        after = block.fingerprint()
        # The appended predicate is detected: no stale plan-cache key.
        assert after != before
        result = db.connect().execute(block)
        assert result.num_rows <= 2

    def test_different_predicate_misses_plan_cache_but_reuses_sequence(self):
        db = make_database()
        session = db.connect()
        session.execute(JOIN_SQL)
        variant = JOIN_SQL.replace("c_region < 2", "c_region >= 2")
        result = session.execute(variant)
        assert not result.from_plan_cache
        stats = db.cache_stats()
        # Same join-graph shape: the DPccp walk was reused.
        assert stats.sequence_hits >= 1
        assert stats.sequence_entries == 1

    def test_register_unrelated_table_keeps_cached_plans(self):
        """Registration only evicts plans that depend on the changed table."""
        db = make_database()
        session = db.connect()
        session.execute(JOIN_SQL)
        db.register_table("extra_t", {"x": np.arange(5)})
        stats = db.cache_stats()
        assert stats.plan_entries == 1
        assert stats.plan_evictions == 0
        assert session.execute(JOIN_SQL).from_plan_cache

    def test_register_dependency_evicts_only_dependents(self):
        db = make_database()
        session = db.connect()
        session.execute(JOIN_SQL)
        session.execute("select o_id from orders_t where o_id < 3",
                        name="orders-only")
        session.execute("select c_id from cust_t where c_id < 3",
                        name="cust-only")
        assert db.cache_stats().plan_entries == 3
        # Re-registering cust_t drops the join plan and the cust-only plan
        # but keeps the orders-only plan cached.
        db.register_table("cust_t", {
            "c_id": np.arange(40, dtype=np.int64),
            "c_region": np.zeros(40, dtype=np.int64),
        }, primary_key=["c_id"])
        stats = db.cache_stats()
        assert stats.plan_entries == 1
        assert stats.plan_evictions == 2
        assert session.execute("select o_id from orders_t where o_id < 3",
                               name="orders-only").from_plan_cache
        assert not session.execute(JOIN_SQL).from_plan_cache

    def test_direct_catalog_mutation_invalidates_plans(self):
        from repro.storage import Table, make_schema
        from repro.storage.types import INT64 as INT

        db = make_database()
        session = db.connect()
        session.execute(JOIN_SQL)
        assert db.cache_stats().plan_entries > 0
        # Bypass the Database entirely: mutations straight on the catalog
        # bump Catalog.version and still drop the cached plans.
        schema = make_schema("side_t", [("y", INT)])
        db.catalog.register_table(Table(schema, {"y": np.arange(3)}))
        assert not session.execute(JOIN_SQL).from_plan_cache

    def test_disabled_caches(self):
        db = make_database()
        db_off = Database(db.catalog, plan_cache_size=0, sequence_cache_size=0)
        session = db_off.connect()
        session.execute(JOIN_SQL)
        result = session.execute(JOIN_SQL)
        assert not result.from_plan_cache
        stats = db_off.cache_stats()
        assert stats.plan_lookups == 0 and stats.sequence_lookups == 0


class TestPreparedQuery:
    def test_prepared_reexecution(self):
        db = make_database()
        session = db.connect()
        prepared = session.prepare(JOIN_SQL, name="prepared-join")
        first = prepared.execute()
        second = prepared.execute()
        assert first.num_rows == second.num_rows == 2
        assert not first.from_plan_cache
        assert second.from_plan_cache
        assert list(first.column("total")) == list(second.column("total"))

    def test_prepared_mode_override_and_explain(self):
        db = make_database()
        prepared = db.connect().prepare(JOIN_SQL)
        assert prepared.plan(mode=OptimizerMode.NO_BF).mode is OptimizerMode.NO_BF
        assert "Hash Join" in prepared.explain()


class TestTypedErrors:
    def test_sql_errors(self):
        session = make_database().connect()
        with pytest.raises(SqlError):
            session.execute("select * from nonexistent_table")
        with pytest.raises(SqlError):
            session.execute("this is not sql")
        with pytest.raises(SqlError):
            session.execute("select no_such_column from orders_t")
        # The whole hierarchy is catchable as ReproError, and SqlError stays
        # a ValueError for pre-hierarchy callers.
        with pytest.raises(ReproError):
            session.execute("select * from nonexistent_table")
        with pytest.raises(ValueError):
            session.execute("select * from nonexistent_table")

    def test_planning_error_without_statistics(self):
        db = Database(Catalog())
        db.register_schema(make_schema("no_stats", [("x", INT64)]))
        session = db.connect()
        with pytest.raises(PlanningError):
            session.plan("select x from no_stats")

    def test_execution_error_on_statistics_only_catalog(self):
        db = Database(Catalog())
        db.register_schema(make_schema("stats_only", [("x", INT64)]),
                           synthetic_statistics("stats_only", 1000, {"x": 1000}))
        session = db.connect()
        # Planning works against pure statistics ...
        assert "Scan" in session.explain("select x from stats_only")
        # ... but execution has no data to run on.
        with pytest.raises(ExecutionError):
            session.execute("select x from stats_only")

    def test_programming_errors_keep_their_natural_types(self):
        session = make_database().connect()
        # A malformed settings object is a caller bug, not a query failure.
        with pytest.raises(AttributeError):
            session.plan(JOIN_SQL, settings="not-settings")


class TestConcurrentSessions:
    def test_two_sessions_have_independent_histories_and_metrics(self):
        db = make_database()
        first = db.connect()
        second = db.connect()
        r1 = first.execute(JOIN_SQL)
        r2 = second.execute(JOIN_SQL)
        assert len(first.history) == 1 and len(second.history) == 1
        assert first.history[0] is r1 and second.history[0] is r2
        # Separate execution metrics objects, identical logical results.
        assert r1.execution is not r2.execution
        assert list(r1.column("cnt")) == list(r2.column("cnt"))

    def test_execution_does_not_leak_filters_into_shared_context(self):
        db = make_database()
        # The ad-hoc tables are tiny and the region filter is mild; drop
        # Heuristic 2's apply-row floor and Heuristic 6's selectivity cap so
        # BF-CBO actually places (and the executor actually builds) a filter.
        session = db.connect(settings=BfCboSettings.paper_defaults()
                             .with_overrides(min_apply_rows=1.0,
                                             max_selectivity=0.99))
        result = session.execute(JOIN_SQL)  # BF-CBO: builds Bloom filters
        assert result.execution.metrics.bloom_filters_built > 0
        built = [spec.filter_id
                 for node in result.optimization.plan.walk()
                 if hasattr(node, "built_filters")
                 for spec in getattr(node, "built_filters", ())]
        assert built
        # A fresh executor has no scope at all until execute() creates one,
        # and a new scope never sees filters published by the first run.
        fresh = Executor(session.context)
        assert fresh.filters is None
        scope = session.context.new_filter_scope()
        for filter_id in built:
            assert not scope.has_filter(filter_id)

    def test_interleaved_executions_on_one_catalog(self):
        """Concurrent sessions must not clobber each other's Bloom filters."""
        db = make_database()
        sessions = [db.connect() for _ in range(4)]
        errors = []
        results = [None] * len(sessions)

        def run(i, session):
            try:
                for _ in range(5):
                    results[i] = session.execute(JOIN_SQL)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i, s))
                   for i, s in enumerate(sessions)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for result in results:
            assert result.num_rows == 2
            assert list(result.column("c_region")) == [0, 1]


class TestSequenceCache:
    def test_store_overwrites_and_evict_all_keeps_counters(self):
        cache = EnumerationSequenceCache(max_entries=4)
        cache.store(("a",), ((1,),))
        cache.store(("a",), ((2,),))  # re-store replaces the value
        assert cache.lookup(("a",)) == ((2,),)
        cache.evict_all()
        assert len(cache) == 0
        assert cache.hits == 1  # lifetime counters survive eviction

    def test_zero_capacity_stores_nothing(self):
        cache = EnumerationSequenceCache(max_entries=0)
        cache.store(("a",), ((1, 2, 3),))
        assert len(cache) == 0
        assert cache.lookup(("a",)) is None

    def test_lru_eviction_and_counters(self):
        cache = EnumerationSequenceCache(max_entries=2)
        assert cache.lookup(("a",)) is None
        cache.store(("a",), ((1, 2, 3),))
        cache.store(("b",), ((4, 5, 6),))
        assert cache.lookup(("a",)) == ((1, 2, 3),)
        cache.store(("c",), ((7, 8, 9),))  # evicts ("b",): LRU
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) is not None
        assert cache.hits == 2 and cache.misses == 2
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_same_shape_queries_share_one_sequence(self, tpch_catalog):
        db = Database(tpch_catalog)
        session = db.connect()
        base = ("select count(*) as n from lineitem, orders "
                "where l_orderkey = o_orderkey%s")
        session.plan(base % "")
        session.plan(base % " and o_totalprice > 100.0")
        session.plan(base % " and l_quantity < 10.0")
        stats = db.cache_stats()
        assert stats.sequence_entries == 1
        assert stats.sequence_hits >= 2

    def test_cached_sequence_does_not_change_plans(self, tpch_workload):
        query = tpch_workload.query(5)
        cached_db = Database(tpch_workload.catalog,
                             scale_factor=tpch_workload.scale_factor)
        uncached_db = Database(tpch_workload.catalog,
                               scale_factor=tpch_workload.scale_factor,
                               plan_cache_size=0, sequence_cache_size=0)
        warmup = cached_db.connect()
        # Warm the sequence cache with a same-shape sibling walk, then plan.
        warmup.plan(query, mode=OptimizerMode.BF_POST)
        cached = warmup.plan(query, mode=OptimizerMode.BF_CBO)
        uncached = uncached_db.connect().plan(query, mode=OptimizerMode.BF_CBO)
        assert cached_db.cache_stats().sequence_hits >= 1
        assert cached.explain() == uncached.explain()


class TestDatabaseHelpers:
    def test_register_table_infers_types(self):
        db = Database(Catalog())
        db.register_table("typed", {
            "i": np.arange(3, dtype=np.int32),
            "f": np.array([1.0, 2.0, 3.0]),
            "s": np.array(["a", "b", "c"]),
            "b": np.array([True, False, True]),
        })
        result = db.connect().execute("select i, f, s, b from typed where i < 2")
        assert result.num_rows == 2

    def test_register_table_widens_unsigned_ints(self):
        db = Database(Catalog())
        db.register_table("u_t", {"k": np.array([1, 2, 3], dtype=np.uint32)})
        db.register_table("m_t", {"k": np.array([2, 9], dtype=np.uint32)})
        from repro.core.query import BaseRelation, JoinClause, JoinType
        from repro.core import ColumnRef
        from repro.core.query import QueryBlock

        # A FULL join pads unmatched rows with -1, which only a signed
        # storage dtype can hold — the uint input must have been widened.
        block = QueryBlock(
            relations=[BaseRelation("u_t", "u_t"), BaseRelation("m_t", "m_t")],
            join_clauses=[JoinClause(ColumnRef("u_t", "k"),
                                     ColumnRef("m_t", "k"),
                                     join_type=JoinType.FULL)],
            name="unsigned-full")
        result = db.connect().execute(block)
        assert result.num_rows == 4  # 1 matched + 2 u_t-only + 1 m_t-only

    def test_register_table_decodes_byte_strings(self):
        db = Database(Catalog())
        db.register_table("bs", {"s": np.array([b"a", b"b"]),
                                 "v": np.arange(2, dtype=np.int64)})
        result = db.connect().execute("select v from bs where s = 'a'")
        assert result.num_rows == 1

    def test_register_table_rejects_uint64_overflow(self):
        db = Database(Catalog())
        with pytest.raises(ValueError):
            db.register_table("huge", {
                "k": np.array([2 ** 64 - 1], dtype=np.uint64)})

    def test_register_table_accepts_datetime64_as_date(self):
        db = Database(Catalog())
        db.register_table("events", {
            "day": np.array(["2024-01-01", "2024-06-15", "2025-01-01"],
                            dtype="datetime64[D]"),
            "v": np.arange(3, dtype=np.int64),
        })
        result = db.connect().execute(
            "select v from events where day < date '2024-12-31'")
        assert result.num_rows == 2

    def test_from_tpch_binds_workload(self):
        db = Database.from_tpch(scale_factor=0.002, query_numbers=[12])
        query = db.tpch_query(12)
        assert isinstance(query, QueryBlock)
        result = db.connect().execute(query)
        assert result.executed
        with pytest.raises(KeyError):
            Database(Catalog()).tpch_query(1)


class TestDocumentedSurface:
    def test_api_md_rows_list_exactly_the_keywords(self):
        """docs/api.md's Surface rows name every constructor keyword."""
        doc = (pathlib.Path(__file__).parents[1] / "docs" / "api.md").read_text()
        for call, cls in (("Database", Database), ("db.connect", Session)):
            rows = re.findall(r"^\| `%s\(([^)]*)\)`" % re.escape(call), doc,
                              flags=re.MULTILINE)
            assert len(rows) == 1, call
            keyword_part = rows[0].split("*", 1)[1]
            documented = [name.strip() for name in keyword_part.split(",")
                          if name.strip()]
            keywords = [name for name, param in
                        inspect.signature(cls.__init__).parameters.items()
                        if param.kind is inspect.Parameter.KEYWORD_ONLY]
            assert documented == keywords, call

    def test_database_rejects_the_session_and_planner_knobs(self):
        """Executor knobs live on the session, planner knobs in settings."""
        catalog = make_database().catalog
        for knob, value in (("enumeration_budget", 1),
                            ("fallback_relation_threshold", 2),
                            ("parallel_workers", 2),
                            ("parallel_executor", "thread"),
                            ("executor_workers", 2), ("morsel_size", 64),
                            ("executor_backend", "thread"),
                            ("max_cross_join_rows", 10),
                            ("max_memory_bytes", 1 << 20),
                            ("max_spill_bytes", 1 << 20), ("max_rows", 10)):
            with pytest.raises(TypeError):
                Database(catalog, **{knob: value})

    def test_session_rejects_the_database_and_planner_knobs(self):
        """One level per knob: a database-level knob is not a session one."""
        db = make_database()
        for knob, value in (("enumeration_budget", 1),
                            ("fallback_relation_threshold", 2),
                            ("parallel_workers", 2),
                            ("parallel_executor", "thread"),
                            ("verify_plans", True), ("fault_plan", None),
                            ("spill_dir", "spill"),
                            ("degree_of_parallelism", 8),
                            ("bloom_partitions", 4)):
            with pytest.raises(TypeError):
                db.connect(**{knob: value})
