"""Serving-tier tests: cancellation, lifecycle, admission, caching, async.

Covers the acceptance criteria of the serving subsystem:

* a cancelled or deadline-expired query stops with a typed
  :class:`~repro.errors.QueryCancelledError` (sync and async paths);
* a saturated admission queue sheds load via
  :class:`~repro.errors.AdmissionError` and an over-quota tenant cannot
  starve others (weighted fair queueing);
* the shared result cache serves identical hot queries without re-executing,
  invalidates per table, and hands out frozen (read-only) batches so no
  caller can corrupt another's view — including ``execute_many`` collapsing;
* ``close()`` is deterministic and idempotent on sessions, databases and
  the async serving tier.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.api import (
    AdmissionError,
    CancelToken,
    Database,
    ExecutionError,
    QueryCancelledError,
    SessionClosedError,
)
from repro.errors import ReproError
from repro.executor.cancel import DEADLINE_REASON
from repro.serving import (
    AdmissionQueue,
    AsyncDatabase,
    LatencyRecorder,
    ServingMetrics,
    TenantQuota,
    percentile,
)
from repro.storage import Catalog


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


Q_ITEMS = "select count(*) as n from items"
Q_JOIN = ("select count(*) as n from items, groups "
          "where grp = gid and val < 150")
Q_GROUPS = "select count(*) as n from groups"


def make_db(**kwargs) -> Database:
    """A tiny two-table database (deterministic, no TPC-H generation)."""
    db = Database(Catalog(), **kwargs)
    db.register_table("items", {
        "id": np.arange(200, dtype=np.int64),
        "grp": np.arange(200, dtype=np.int64) % 10,
        "val": np.arange(200, dtype=np.float64),
    }, primary_key=["id"])
    db.register_table("groups", {
        "gid": np.arange(10, dtype=np.int64),
        "label": np.arange(10, dtype=np.int64) % 3,
    }, primary_key=["gid"])
    return db


@pytest.fixture()
def db():
    database = make_db()
    yield database
    database.close()


@pytest.fixture()
def cached_db():
    database = make_db(result_cache_size=32)
    yield database
    database.close()


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class GateToken(CancelToken):
    """A token whose poll blocks until a gate opens (worker-pinning)."""

    def __init__(self, gate: threading.Event) -> None:
        super().__init__()
        self.gate = gate
        self.polls = 0

    @property
    def cancelled(self) -> bool:
        self.polls += 1
        self.gate.wait(timeout=10.0)
        return CancelToken.cancelled.fget(self)


class TripAfter(CancelToken):
    """A token that trips itself after ``n`` cancellation polls."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n
        self.polls = 0

    @property
    def cancelled(self) -> bool:
        self.polls += 1
        if self.polls > self.n:
            self.cancel("tripped")
        return CancelToken.cancelled.fget(self)


# ---------------------------------------------------------------------------
# CancelToken
# ---------------------------------------------------------------------------


class TestCancelToken:
    def test_fresh_token_is_not_cancelled(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.reason is None
        assert token.remaining() is None
        token.check()  # must not raise

    def test_cancel_sets_reason_and_first_reason_wins(self):
        token = CancelToken()
        token.cancel("client disconnected")
        token.cancel("second reason")
        assert token.cancelled
        assert token.reason == "client disconnected"
        with pytest.raises(QueryCancelledError) as info:
            token.check()
        assert info.value.reason == "client disconnected"
        assert "client disconnected" in str(info.value)

    def test_deadline_trips_lazily_on_the_clock(self):
        clock = FakeClock()
        token = CancelToken.with_timeout(5.0, clock=clock)
        assert not token.cancelled
        assert token.remaining() == pytest.approx(5.0)
        clock.now = 4.0
        assert token.remaining() == pytest.approx(1.0)
        clock.now = 5.5
        assert token.cancelled
        assert token.reason == DEADLINE_REASON
        assert token.remaining() == 0.0
        with pytest.raises(QueryCancelledError) as info:
            token.check()
        assert info.value.reason == DEADLINE_REASON

    def test_expire_in_only_tightens(self):
        clock = FakeClock()
        token = CancelToken.with_timeout(2.0, clock=clock)
        token.expire_in(10.0)  # looser: ignored
        assert token.remaining() == pytest.approx(2.0)
        token.expire_in(1.0)  # tighter: applied
        assert token.remaining() == pytest.approx(1.0)

    def test_cancelled_error_is_typed_execution_error(self):
        assert issubclass(QueryCancelledError, ExecutionError)
        assert issubclass(QueryCancelledError, ReproError)


# ---------------------------------------------------------------------------
# Executor cancellation (sync API)
# ---------------------------------------------------------------------------


class TestExecutorCancellation:
    def test_pre_cancelled_token_aborts_execute(self, db):
        session = db.connect()
        token = CancelToken()
        token.cancel("caller gave up")
        with pytest.raises(QueryCancelledError) as info:
            session.execute(Q_JOIN, cancel=token)
        assert info.value.reason == "caller gave up"

    def test_expired_deadline_aborts_with_deadline_reason(self, db):
        clock = FakeClock(now=100.0)
        token = CancelToken(deadline=99.0, clock=clock)
        with pytest.raises(QueryCancelledError) as info:
            db.connect().execute(Q_JOIN, cancel=token)
        assert info.value.reason == DEADLINE_REASON

    def test_token_is_polled_during_execution(self, db):
        # The token trips only after a few polls, so the abort proves the
        # executor re-checks at operator/morsel boundaries mid-query
        # rather than only once up front.
        token = TripAfter(2)
        with pytest.raises(QueryCancelledError) as info:
            db.connect().execute(Q_JOIN, cancel=token)
        assert info.value.reason == "tripped"
        assert token.polls > 2

    def test_context_default_token_cancels_without_per_call_arg(self, db):
        session = db.connect()
        session.context.cancel_token = CancelToken()
        session.context.cancel_token.cancel("session-wide stop")
        with pytest.raises(QueryCancelledError):
            session.execute(Q_ITEMS)

    def test_prepared_query_cancel_passthrough(self, db):
        session = db.connect()
        prepared = session.prepare(Q_ITEMS)
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            prepared.execute(cancel=token)

    def test_uncancelled_token_changes_nothing(self, db):
        session = db.connect()
        token = CancelToken()
        result = session.execute(Q_JOIN, cancel=token)
        assert result.column("n")[0] == 150
        assert token.polls if hasattr(token, "polls") else True


# ---------------------------------------------------------------------------
# close() lifecycle
# ---------------------------------------------------------------------------


class TestCloseLifecycle:
    def test_session_close_is_idempotent_and_typed(self, db):
        session = db.connect()
        session.execute(Q_ITEMS)
        session.close()
        session.close()
        assert session.is_closed
        for call in (lambda: session.execute(Q_ITEMS),
                     lambda: session.plan(Q_ITEMS),
                     lambda: session.execute_many([Q_ITEMS])):
            with pytest.raises(SessionClosedError):
                call()

    def test_session_close_shuts_morsel_pool_down(self, db):
        # A small morsel size forces multiple morsels, so the lazy pool
        # actually gets built.
        session = db.connect(executor_workers=2, morsel_size=64)
        session.execute(Q_JOIN)
        assert session.context.executor_stats()["thread_pool_size"] == 2
        session.close()
        assert session.context.executor_stats()["thread_pool_size"] == 0

    def test_session_context_manager(self, db):
        with db.connect() as session:
            assert session.execute(Q_ITEMS).column("n")[0] == 200
        assert session.is_closed

    def test_closed_session_results_stay_usable(self, db):
        session = db.connect()
        result = session.execute(Q_ITEMS)
        session.close()
        assert result.column("n")[0] == 200

    def test_database_close_closes_sessions_and_refuses_new_work(self):
        db = make_db()
        session = db.connect()
        db.close()
        db.close()  # idempotent
        assert db.is_closed
        assert session.is_closed
        with pytest.raises(SessionClosedError):
            db.connect()
        with pytest.raises(SessionClosedError):
            db.execute_many([Q_ITEMS])

    def test_database_context_manager(self):
        with make_db() as db:
            assert db.connect().execute(Q_ITEMS).column("n")[0] == 200
        assert db.is_closed


# ---------------------------------------------------------------------------
# AdmissionQueue (unit)
# ---------------------------------------------------------------------------


class TestAdmissionQueue:
    def test_fifo_within_one_tenant(self):
        queue = AdmissionQueue(max_depth=8)
        for i in range(3):
            queue.submit("t", i)
        assert [queue.next(timeout=0)[1] for _ in range(3)] == [0, 1, 2]

    def test_global_depth_sheds_with_admission_error(self):
        queue = AdmissionQueue(max_depth=2)
        queue.submit("a", 1)
        queue.submit("b", 2)
        with pytest.raises(AdmissionError, match="full"):
            queue.submit("c", 3)
        # Dequeueing frees depth again.
        assert queue.next(timeout=0) is not None
        queue.submit("c", 3)

    def test_per_tenant_backlog_cap(self):
        queue = AdmissionQueue(
            max_depth=16, quotas={"greedy": TenantQuota(max_queued=2)})
        queue.submit("greedy", 1)
        queue.submit("greedy", 2)
        with pytest.raises(AdmissionError, match="greedy"):
            queue.submit("greedy", 3)
        queue.submit("modest", 1)  # other tenants unaffected

    def test_closed_queue_sheds(self):
        queue = AdmissionQueue()
        queue.close()
        with pytest.raises(AdmissionError, match="closed"):
            queue.submit("t", 1)
        assert queue.next(timeout=0) is None

    def test_equal_weights_alternate(self):
        queue = AdmissionQueue()
        for i in range(3):
            queue.submit("a", "a%d" % i)
            queue.submit("b", "b%d" % i)
        order = [queue.next(timeout=0)[0] for _ in range(6)]
        for tenant in ("a", "b"):
            queue.release(tenant)  # appease release bookkeeping sanity
            queue.release(tenant)
            queue.release(tenant)
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_weighted_fairness_ratio(self):
        queue = AdmissionQueue(
            max_depth=64,
            quotas={"heavy": TenantQuota(weight=2.0, max_concurrency=64),
                    "light": TenantQuota(weight=1.0, max_concurrency=64)})
        for i in range(12):
            queue.submit("heavy", i)
            queue.submit("light", i)
        first_nine = [queue.next(timeout=0)[0] for _ in range(9)]
        # A weight-2 tenant drains twice as fast under contention.
        assert first_nine.count("heavy") == 6
        assert first_nine.count("light") == 3

    def test_over_quota_tenant_cannot_starve_others(self):
        queue = AdmissionQueue(
            max_depth=64,
            quotas={"hog": TenantQuota(max_concurrency=1)})
        for i in range(5):
            queue.submit("hog", "hog%d" % i)
        for i in range(3):
            queue.submit("meek", "meek%d" % i)
        # Without releases, the hog gets exactly its one concurrency slot
        # and every further dequeue serves the other tenant.
        served = [queue.next(timeout=0)[0] for _ in range(4)]
        assert served.count("hog") == 1
        assert served.count("meek") == 3
        assert queue.next(timeout=0) is None  # hog ineligible, meek drained
        queue.release("hog")  # slot freed: the hog becomes eligible again
        assert queue.next(timeout=0)[0] == "hog"

    def test_release_without_dequeue_raises(self):
        queue = AdmissionQueue()
        with pytest.raises(ValueError):
            queue.release("nobody")

    def test_close_returns_dropped_requests(self):
        queue = AdmissionQueue()
        queue.submit("a", "a0")
        queue.submit("b", "b0")
        dropped = queue.close()
        assert sorted(dropped) == [("a", "a0"), ("b", "b0")]
        assert queue.depth == 0


# ---------------------------------------------------------------------------
# The shared result cache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_hot_query_hits_and_is_marked(self, cached_db):
        session = cached_db.connect()
        cold = session.execute(Q_JOIN)
        hot = session.execute(Q_JOIN)
        assert not cold.from_result_cache
        assert hot.from_result_cache
        assert hot.execution is cold.execution
        assert hot.column("n")[0] == cold.column("n")[0] == 150
        stats = cached_db.cache_stats()
        assert stats.result_hits == 1
        assert stats.result_misses == 1
        assert stats.result_entries == 1
        assert stats.result_lookups == 2

    def test_hits_are_shared_across_sessions(self, cached_db):
        cached_db.connect().execute(Q_ITEMS)
        other = cached_db.connect().execute(Q_ITEMS)
        assert other.from_result_cache

    def test_cached_batches_are_frozen(self, cached_db):
        session = cached_db.connect()
        cold = session.execute(Q_ITEMS)
        hot = session.execute(Q_ITEMS)
        for result in (cold, hot):
            array = result.column("n")
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 99

    def test_disabled_by_default(self, db):
        session = db.connect()
        session.execute(Q_ITEMS)
        repeat = session.execute(Q_ITEMS)
        assert not repeat.from_result_cache
        stats = db.cache_stats()
        assert stats.result_lookups == 0
        assert stats.result_entries == 0
        # Uncached single-query results stay writable (no behaviour change).
        assert repeat.column("n").flags.writeable

    def test_reregistration_evicts_exactly_dependents(self, cached_db):
        session = cached_db.connect()
        session.execute(Q_ITEMS)
        session.execute(Q_GROUPS)
        assert cached_db.cache_stats().result_entries == 2
        # Re-register items: only its dependent entry must go.
        cached_db.register_table("items", {
            "id": np.arange(50, dtype=np.int64),
            "grp": np.arange(50, dtype=np.int64) % 10,
            "val": np.arange(50, dtype=np.float64),
        }, primary_key=["id"])
        stats = cached_db.cache_stats()
        assert stats.result_evictions == 1
        assert stats.result_entries == 1
        fresh = session.execute(Q_ITEMS)
        assert not fresh.from_result_cache
        assert fresh.column("n")[0] == 50  # new data, not the stale 200
        survivor = session.execute(Q_GROUPS)
        assert survivor.from_result_cache  # untouched table stayed hot

    def test_mode_is_part_of_the_key(self, cached_db):
        from repro.api import OptimizerMode

        session = cached_db.connect()
        session.execute(Q_JOIN, OptimizerMode.NO_BF)
        other_mode = session.execute(Q_JOIN, OptimizerMode.BF_CBO)
        assert not other_mode.from_result_cache

    def test_settings_are_part_of_the_key(self, cached_db):
        from repro.api import BfCboSettings

        session = cached_db.connect()
        session.execute(Q_JOIN, settings=BfCboSettings(enumeration_budget=0))
        other = session.execute(Q_JOIN,
                                settings=BfCboSettings(enumeration_budget=1))
        assert not other.from_result_cache
        # Equal settings built anew hit the entry stored under the first.
        again = session.execute(Q_JOIN,
                                settings=BfCboSettings(enumeration_budget=0))
        assert again.from_result_cache

    def test_clear_caches_drops_results(self, cached_db):
        session = cached_db.connect()
        session.execute(Q_ITEMS)
        cached_db.clear_caches()
        assert cached_db.cache_stats().result_entries == 0
        assert not session.execute(Q_ITEMS).from_result_cache


# ---------------------------------------------------------------------------
# execute_many aliasing regression
# ---------------------------------------------------------------------------


class TestExecuteManyAliasing:
    def test_collapsed_results_share_one_frozen_execution(self, db):
        session = db.connect()
        results = session.execute_many([Q_JOIN, Q_JOIN, Q_ITEMS])
        assert results[0].execution is results[1].execution
        assert results[2].execution is not results[0].execution
        # Mutating one caller's view must raise, not silently corrupt the
        # other caller's arrays.
        with pytest.raises(ValueError):
            results[0].column("n")[0] = -1
        assert results[1].column("n")[0] == 150

    def test_shared_null_masks_are_frozen_too(self, db):
        sql = ("select sum(val) as s from items, groups "
               "where grp = gid and val < 0")
        results = db.connect().execute_many([sql, sql])
        mask = results[0].null_mask("s")
        assert mask is not None and mask[0]  # SUM over no rows is NULL
        with pytest.raises(ValueError):
            mask[0] = False

    def test_unshared_results_stay_writable(self, db):
        results = db.connect().execute_many([Q_ITEMS, Q_GROUPS])
        assert results[0].execution is not results[1].execution
        assert results[0].column("n").flags.writeable

    def test_deduplicate_off_keeps_separate_executions(self, db):
        results = db.connect().execute_many([Q_ITEMS, Q_ITEMS],
                                            deduplicate=False)
        assert results[0].execution is not results[1].execution


# ---------------------------------------------------------------------------
# The async serving tier
# ---------------------------------------------------------------------------


def run_async(coro):
    return asyncio.run(coro)


class TestAsyncServing:
    def test_execute_async_matches_sync(self, cached_db):
        async def main():
            async with AsyncDatabase(cached_db, workers=2) as serving:
                result = await serving.execute_async(Q_JOIN, tenant="t1")
                return result

        result = run_async(main())
        assert result.column("n")[0] == 150
        assert cached_db.connect().execute(Q_JOIN).column("n")[0] == 150

    def test_result_cache_hits_across_tenants(self, cached_db):
        async def main():
            async with AsyncDatabase(cached_db, workers=2) as serving:
                first = await serving.execute_async(Q_ITEMS, tenant="a")
                second = await serving.execute_async(Q_ITEMS, tenant="b")
                return first, second, serving.snapshot()

        first, second, snap = run_async(main())
        assert not first.from_result_cache
        assert second.from_result_cache
        assert snap.result_cache_hits == 1
        assert snap.completed == 2

    def test_saturated_queue_sheds_with_admission_error(self, db):
        gate = threading.Event()
        token = GateToken(gate)

        async def main():
            serving = AsyncDatabase(db, workers=1, max_queue_depth=1)
            try:
                # Pin the single worker inside query 1...
                running = asyncio.ensure_future(
                    serving.execute_async(Q_ITEMS, cancel=token))
                while serving.queue.in_flight("default") == 0:
                    await asyncio.sleep(0.005)
                # ...fill the queue with query 2...
                queued = asyncio.ensure_future(
                    serving.execute_async(Q_ITEMS, tenant="other"))
                while serving.queue.depth == 0:
                    await asyncio.sleep(0.005)
                # ...and watch query 3 shed immediately.
                with pytest.raises(AdmissionError):
                    await serving.execute_async(Q_ITEMS, tenant="third")
                gate.set()
                await running
                await queued
                return serving.snapshot()
            finally:
                gate.set()
                serving.close()

        snap = run_async(main())
        assert snap.rejected == 1
        assert snap.completed == 2

    def test_deadline_while_queued_is_cancelled_typed(self, db):
        gate = threading.Event()
        token = GateToken(gate)

        async def main():
            serving = AsyncDatabase(db, workers=1)
            try:
                running = asyncio.ensure_future(
                    serving.execute_async(Q_ITEMS, cancel=token))
                while serving.queue.in_flight("default") == 0:
                    await asyncio.sleep(0.005)
                with pytest.raises(QueryCancelledError) as info:
                    await serving.execute_async(Q_ITEMS, timeout=0.05)
                assert info.value.reason == DEADLINE_REASON
                gate.set()
                await running
                return serving.snapshot()
            finally:
                gate.set()
                serving.close()

        snap = run_async(main())
        assert snap.cancelled >= 1

    def test_client_disconnect_trips_the_token(self, db):
        gate = threading.Event()
        token = GateToken(gate)

        async def main():
            serving = AsyncDatabase(db, workers=1)
            try:
                task = asyncio.ensure_future(
                    serving.execute_async(Q_ITEMS, cancel=token))
                while token.polls == 0:
                    await asyncio.sleep(0.005)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                gate.set()
            finally:
                gate.set()
                serving.close()
            return token.reason

        assert run_async(main()) == "client disconnected"

    def test_async_session_binds_tenant(self, cached_db):
        async def main():
            async with AsyncDatabase(cached_db, workers=2) as serving:
                tenant = serving.session("dashboards")
                result = await tenant.execute(Q_GROUPS)
                return result, serving.snapshot()

        result, snap = run_async(main())
        assert result.column("n")[0] == 10
        assert "dashboards" in snap.tenants
        assert snap.tenants["dashboards"].count == 1

    def test_close_fails_queued_requests_and_refuses_new(self, db):
        gate = threading.Event()
        token = GateToken(gate)

        async def main():
            serving = AsyncDatabase(db, workers=1)
            running = asyncio.ensure_future(
                serving.execute_async(Q_ITEMS, cancel=token))
            while serving.queue.in_flight("default") == 0:
                await asyncio.sleep(0.005)
            queued = asyncio.ensure_future(serving.execute_async(Q_GROUPS))
            while serving.queue.depth == 0:
                await asyncio.sleep(0.005)
            # Close while the worker is still pinned inside query 1, so
            # query 2 is genuinely dropped from the queue...
            closing = asyncio.get_event_loop().run_in_executor(
                None, serving.close)
            with pytest.raises(AdmissionError):
                await queued
            with pytest.raises(SessionClosedError):
                await serving.execute_async(Q_ITEMS)
            # ...then release the worker and let close() finish joining.
            gate.set()
            await closing
            serving.close()  # idempotent
            return await running

        result = run_async(main())
        assert result.column("n")[0] == 200

    def test_engine_errors_surface_through_the_future(self, db):
        async def main():
            async with AsyncDatabase(db, workers=1) as serving:
                with pytest.raises(ReproError):
                    await serving.execute_async(
                        "select nope from missing_table")
                return serving.snapshot()

        snap = run_async(main())
        assert snap.failed == 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert percentile(samples, 0) == 1.0
        assert percentile([7.0], 99) == 7.0

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_recorder_sliding_window(self):
        recorder = LatencyRecorder(reservoir=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            recorder.record(value)
        snap = recorder.snapshot()
        assert recorder.count == 4  # lifetime count survives the window
        assert snap.max_ms == 4.0
        assert snap.p50_ms == 3.0  # window holds [2, 3, 4]

    def test_empty_recorder_snapshots_zeros(self):
        snap = LatencyRecorder().snapshot()
        assert snap.count == 0
        assert snap.p99_ms == 0.0

    def test_unknown_counter_raises(self):
        with pytest.raises(KeyError):
            ServingMetrics().count("nonsense")

    def test_snapshot_shape(self):
        metrics = ServingMetrics()
        metrics.count("admitted")
        metrics.count("completed")
        metrics.record_latency("t1", 5.0)
        snap = metrics.snapshot()
        assert snap.in_flight_or_queued == 0
        assert snap.latency.count == 1
        assert snap.tenants["t1"].p50_ms == 5.0
        assert snap.latency.as_dict()["p50_ms"] == 5.0
