"""Chaos suite: fault injection, recovery, and exact failure accounting.

The robustness contract (``docs/robustness.md``) is that every induced
failure either *recovers bit-identically* (worker-crash supervision,
shared-memory degradation, serving retries, dequeue re-picks, result-cache
degradation) or *fails with the right type* (``TransientError`` and its
subclasses for retryable faults, permanent errors untouched) — and that
every injection is visible in a counter, so silent swallowing is
structurally impossible.  Faults come from seeded
:class:`~repro.faults.FaultPlan` scripts, which makes each scenario exactly
reproducible: the assertions below pin exact counter values, not "at least
something happened".

``REPRO_CHAOS_BACKEND`` (space-separated, default ``"thread process"``)
selects which executor backends the backend-parametrized scenarios run
under — ``make chaos`` runs the suite once per backend.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.api import Database
from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    ReproError,
    ShmPressureError,
    TransientError,
    WorkerCrashError,
)
from repro.executor import CircuitBreaker, MorselPools, live_segment_names
from repro.executor.breaker import STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN
from repro.executor.cancel import CancelToken
from repro.executor.shm import ShmArena
from repro.faults import (
    FaultPlan,
    FaultSpec,
    SITE_ADMISSION_DEQUEUE,
    SITE_MEMORY_PRESSURE,
    SITE_MORSEL_DISPATCH,
    SITE_POOL_SUBMIT,
    SITE_RESULT_CACHE_GET,
    SITE_RESULT_CACHE_PUT,
    SITE_SHM_ALLOCATE,
    SITE_SHM_ATTACH,
)
from repro.serving import AsyncDatabase, RetryPolicy
from repro.sql.errors import SqlError

#: Backends the backend-parametrized chaos scenarios run under.
BACKENDS = tuple(os.environ.get("REPRO_CHAOS_BACKEND",
                                "thread process").split())

#: The TPC-H queries the recovery scenarios replay (join + aggregate + sort
#: and a two-way aggregate — both exercise every parallel operator).
QUERIES = (3, 12)


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


@pytest.fixture(scope="module")
def serial_results(tpch_workload):
    """Undisturbed serial executions — the ground truth every recovery
    scenario must reproduce bit-for-bit."""
    database = Database(tpch_workload.catalog)
    session = database.connect(history_limit=0)
    results = {number: session.execute(tpch_workload.query(number))
               for number in QUERIES}
    yield results
    session.close()


def chaos_session(tpch_workload, plan, backend, **overrides):
    """A parallel session over the shared TPC-H catalog with ``plan``."""
    database = Database(tpch_workload.catalog, fault_plan=plan,
                        **{k: v for k, v in overrides.items()
                           if k == "result_cache_size"})
    overrides.pop("result_cache_size", None)
    overrides.setdefault("executor_workers", 2)
    overrides.setdefault("morsel_size", 512)
    session = database.connect(history_limit=0, executor_backend=backend,
                               **overrides)
    return database, session


# ---------------------------------------------------------------------------
# FaultPlan: the injection engine itself
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_fires_on_exact_ordinals(self):
        plan = FaultPlan([FaultSpec(SITE_MORSEL_DISPATCH, times=2, after=1)])
        fired = [plan.fire(SITE_MORSEL_DISPATCH) is not None
                 for _ in range(5)]
        assert fired == [False, True, True, False, False]
        assert plan.counters() == {SITE_MORSEL_DISPATCH: 2}
        assert plan.hit_counts() == {SITE_MORSEL_DISPATCH: 5}
        assert plan.total_injected == 2

    def test_unlimited_times(self):
        plan = FaultPlan([FaultSpec(SITE_SHM_ALLOCATE, kind="shm-enospc",
                                    times=0)])
        assert all(plan.fire(SITE_SHM_ALLOCATE) is not None
                   for _ in range(10))

    def test_unscripted_site_never_fires(self):
        plan = FaultPlan([FaultSpec(SITE_POOL_SUBMIT)])
        assert plan.fire(SITE_SHM_ALLOCATE) is None
        assert SITE_SHM_ALLOCATE not in plan.hit_counts()

    def test_probability_stream_is_seed_deterministic(self):
        def draws(seed):
            plan = FaultPlan([FaultSpec(SITE_POOL_SUBMIT, times=0,
                                        probability=0.5)], seed=seed)
            return [plan.fire(SITE_POOL_SUBMIT) is not None
                    for _ in range(64)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)
        assert any(draws(7)) and not all(draws(7))

    def test_check_raises_typed_errors(self):
        from concurrent.futures.process import BrokenProcessPool

        plan = FaultPlan([
            FaultSpec(SITE_MORSEL_DISPATCH, kind="transient"),
            FaultSpec(SITE_POOL_SUBMIT, kind="worker-crash"),
            FaultSpec(SITE_SHM_ALLOCATE, kind="shm-enospc"),
        ])
        with pytest.raises(TransientError):
            plan.check(SITE_MORSEL_DISPATCH)
        with pytest.raises(BrokenProcessPool):
            plan.check(SITE_POOL_SUBMIT)
        with pytest.raises(OSError) as info:
            plan.check(SITE_SHM_ALLOCATE)
        import errno
        assert info.value.errno == errno.ENOSPC

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("no-such-site")
        with pytest.raises(ValueError):
            FaultSpec(SITE_POOL_SUBMIT, kind="meteor-strike")
        with pytest.raises(ValueError):
            FaultSpec(SITE_POOL_SUBMIT, after=-1)
        with pytest.raises(ValueError):
            FaultSpec(SITE_POOL_SUBMIT, probability=0.0)


# ---------------------------------------------------------------------------
# The error taxonomy (docs/robustness.md)
# ---------------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_transient_errors_are_execution_errors(self):
        assert issubclass(TransientError, ExecutionError)
        assert issubclass(TransientError, ReproError)
        assert issubclass(WorkerCrashError, TransientError)
        assert issubclass(ShmPressureError, TransientError)

    def test_cancellation_is_not_transient(self):
        # Retrying a cancelled query would defeat the cancellation.
        assert not issubclass(QueryCancelledError, TransientError)

    def test_permanent_errors_are_not_transient(self):
        from repro.errors import PlanningError

        assert not issubclass(SqlError, TransientError)
        assert not issubclass(PlanningError, TransientError)


# ---------------------------------------------------------------------------
# Circuit breaker (unit)
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_full_cycle(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=2)
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED  # 1 < threshold
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        # Cooldown: two dispatch decisions degrade to threads.
        assert not breaker.allow()
        assert not breaker.allow()
        # Cooldown spent: next decision is the half-open probe.
        assert breaker.allow()
        assert breaker.state == STATE_HALF_OPEN
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        stats = breaker.stats()
        assert stats["trips"] == 1
        assert stats["probes"] == 1
        assert stats["recoveries"] == 1
        assert stats["degraded_dispatches"] == 2

    def test_half_open_failure_re_trips(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()
        assert breaker.allow()  # the probe
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.stats()["trips"] == 2

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED


# ---------------------------------------------------------------------------
# Retry policy (unit)
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_delay_is_deterministic_and_exponential(self):
        policy = RetryPolicy(backoff_base_s=0.01, multiplier=2.0,
                             jitter=0.5, seed=3)
        first = policy.delay(1, key="q")
        again = RetryPolicy(backoff_base_s=0.01, multiplier=2.0,
                            jitter=0.5, seed=3).delay(1, key="q")
        assert first == again
        assert policy.delay(1, key="q") != policy.delay(1, key="other")
        for attempt in (1, 2, 3):
            base = 0.01 * 2.0 ** (attempt - 1)
            delay = policy.delay(attempt, key="q")
            assert base <= delay < base * 1.5

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base_s=0.02, multiplier=3.0, jitter=0.0)
        assert policy.delay(1) == 0.02
        assert policy.delay(2) == 0.06

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(tenant_retry_budget=-1)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


# ---------------------------------------------------------------------------
# Shared-memory degradation and the leak guarantee
# ---------------------------------------------------------------------------


class TestShmDegradation:
    def test_allocate_fault_falls_back_inline(self):
        plan = FaultPlan([FaultSpec(SITE_SHM_ALLOCATE, kind="shm-enospc",
                                    times=1)])
        with ShmArena(faults=plan) as arena:
            degraded = arena.export(np.arange(100))
            assert degraded.shm_name is None
            assert degraded.inline is not None
            assert arena.fallback_count == 1
            healthy = arena.export(np.arange(50, dtype=np.float64))
            assert healthy.zero_copy
            assert len(arena.segment_names) == 1
        assert plan.counters() == {SITE_SHM_ALLOCATE: 1}

    def test_attach_fault_unlinks_segment_and_falls_back(self):
        plan = FaultPlan([FaultSpec(SITE_SHM_ATTACH, kind="shm-enospc",
                                    times=1)])
        with ShmArena(faults=plan) as arena:
            ref = arena.export(np.arange(100))
            assert ref.shm_name is None  # degraded after the failed hand-off
            assert arena.fallback_count == 1
            assert arena.segment_names == []  # the segment was unlinked
        assert plan.counters() == {SITE_SHM_ATTACH: 1}

    def test_degraded_refs_reconstruct_identically(self):
        from repro.executor.shm import attach_array

        plan = FaultPlan([FaultSpec(SITE_SHM_ALLOCATE, kind="shm-enospc",
                                    times=0)])
        array = np.arange(1000, dtype=np.int64)
        with ShmArena(faults=plan) as arena:
            assert np.array_equal(attach_array(arena.export(array)), array)

    @pytest.mark.skipif("process" not in BACKENDS,
                        reason="process backend excluded by "
                               "REPRO_CHAOS_BACKEND")
    def test_no_dev_shm_residue_after_faulted_query(self, tpch_workload,
                                                    serial_results):
        """The leak regression: induced shm + crash faults must leave no
        segment behind — neither tracked by an arena nor in /dev/shm."""
        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):
            pytest.skip("no /dev/shm on this platform")
        before = set(os.listdir(shm_dir))
        plan = FaultPlan([
            FaultSpec(SITE_SHM_ATTACH, kind="shm-enospc", times=2),
            FaultSpec(SITE_POOL_SUBMIT, kind="worker-crash", times=2),
        ])
        database, session = chaos_session(tpch_workload, plan, "process")
        try:
            # The double pool break makes this query *fail* — the leak
            # guarantee must hold on the failure path, not just success.
            with pytest.raises(WorkerCrashError):
                session.execute(tpch_workload.query(3))
            recovered = session.execute(tpch_workload.query(12))
            assert_batches_identical(serial_results[12].execution.batch,
                                     recovered.execution.batch)
        finally:
            session.close()
        assert live_segment_names() == []
        assert set(os.listdir(shm_dir)) - before == set()


# ---------------------------------------------------------------------------
# Worker-crash supervision (process backend)
# ---------------------------------------------------------------------------


process_only = pytest.mark.skipif(
    "process" not in BACKENDS,
    reason="process backend excluded by REPRO_CHAOS_BACKEND")


@process_only
class TestWorkerCrashRecovery:
    def test_injected_crash_recovers_bit_identical(self, tpch_workload,
                                                   serial_results):
        plan = FaultPlan([FaultSpec(SITE_POOL_SUBMIT, kind="worker-crash",
                                    times=1)])
        database, session = chaos_session(tpch_workload, plan, "process")
        try:
            for number in QUERIES:
                got = session.execute(tpch_workload.query(number))
                assert_batches_identical(serial_results[number]
                                         .execution.batch,
                                         got.execution.batch)
            stats = session.executor_stats()
            assert stats["worker_crashes"] == 1
            assert stats["process_pool_rebuilds"] == 1
            assert stats["morsel_retries"] >= 1
            # Supervision absorbed the crash: the breaker never saw it.
            assert stats["circuit_breaker"]["state"] == STATE_CLOSED
            assert stats["circuit_breaker"]["trips"] == 0
            assert plan.counters() == {SITE_POOL_SUBMIT: 1}
        finally:
            session.close()

    def test_double_break_raises_worker_crash_error(self, tpch_workload):
        plan = FaultPlan([FaultSpec(SITE_POOL_SUBMIT, kind="worker-crash",
                                    times=2)])
        database, session = chaos_session(tpch_workload, plan, "process")
        try:
            with pytest.raises(WorkerCrashError):
                session.execute(tpch_workload.query(3))
            stats = session.executor_stats()
            assert stats["worker_crashes"] == 2
            assert stats["process_pool_rebuilds"] == 1
            # The escaped transient registered with the breaker.
            assert stats["circuit_breaker"]["consecutive_failures"] == 1
        finally:
            session.close()

    def test_real_worker_death_recovers(self, tmp_path):
        """Not a simulation: a worker genuinely dies (``os._exit``) and the
        supervision path recovers against the stdlib's BrokenProcessPool."""
        pools = MorselPools()
        latch = str(tmp_path / "crash-latch")
        args = [(latch, index) for index in range(8)]
        try:
            results = pools.process_map("repro.faults.chaos:kill_worker_once",
                                        args, None, 2)
            assert results == list(range(8))
            stats = pools.stats()
            assert stats["worker_crashes"] == 1
            assert stats["process_pool_rebuilds"] == 1
            assert stats["morsel_retries"] >= 1
        finally:
            pools.close()

    def test_breaker_trips_then_recovers(self, tpch_workload,
                                         serial_results):
        plan = FaultPlan([FaultSpec(SITE_POOL_SUBMIT, kind="worker-crash",
                                    times=2)])
        database, session = chaos_session(tpch_workload, plan, "process")
        session.context.breaker = CircuitBreaker(failure_threshold=1,
                                                 cooldown=1)
        try:
            with pytest.raises(WorkerCrashError):
                session.execute(tpch_workload.query(3))
            assert session.context.breaker.state == STATE_OPEN
            # The next query starts on threads (cooldown), half-open probes
            # mid-query, and the probe's success closes the breaker — all
            # without changing a single output bit.
            got = session.execute(tpch_workload.query(3))
            assert_batches_identical(serial_results[3].execution.batch,
                                     got.execution.batch)
            stats = session.context.breaker.stats()
            assert stats["state"] == STATE_CLOSED
            assert stats["trips"] == 1
            assert stats["degraded_dispatches"] >= 1
            assert stats["probes"] >= 1
            assert stats["recoveries"] >= 1
        finally:
            session.close()


def test_breaker_consulted_only_on_fan_out(tpch_workload):
    """A dispatch that stays in the process asks the breaker nothing.

    ``nation`` fits one aggregate segment, so its GROUP BY fans nothing out:
    an open breaker must neither spend cooldown nor count a degraded
    dispatch on it, and no pool is ever built.
    """
    database, session = chaos_session(tpch_workload, None, "process")
    breaker = CircuitBreaker(failure_threshold=1, cooldown=5)
    breaker.record_failure()
    session.context.breaker = breaker
    try:
        for _ in range(2):
            session.execute("select n_regionkey, count(*) as c from nation "
                            "group by n_regionkey")
        stats = breaker.stats()
        assert stats["state"] == STATE_OPEN
        assert stats["cooldown_remaining"] == 5
        assert stats["degraded_dispatches"] == 0
        assert session.executor_stats()["pools_created"] == 0
    finally:
        session.close()


# ---------------------------------------------------------------------------
# The chaos matrix: seeded multi-site plans, results must not change
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_chaos_matrix_bit_identical(tpch_workload, serial_results, backend):
    specs = [
        FaultSpec(SITE_SHM_ALLOCATE, kind="shm-enospc", times=0, after=2),
        FaultSpec(SITE_SHM_ATTACH, kind="shm-enospc", times=2),
        FaultSpec(SITE_RESULT_CACHE_GET, times=1, after=1),
        FaultSpec(SITE_RESULT_CACHE_PUT, times=1),
        FaultSpec(SITE_MEMORY_PRESSURE, times=2),
    ]
    if backend == "process":
        specs.append(FaultSpec(SITE_POOL_SUBMIT, kind="worker-crash",
                               times=1))
    plan = FaultPlan(specs, seed=42)
    database, session = chaos_session(tpch_workload, plan, backend,
                                      result_cache_size=32)
    try:
        for _round in range(2):
            for number in QUERIES:
                got = session.execute(tpch_workload.query(number))
                assert_batches_identical(serial_results[number]
                                         .execution.batch,
                                         got.execution.batch)
        counters = plan.counters()
        cache = database.cache_stats()
        assert cache.result_get_degraded == 1 == counters[
            SITE_RESULT_CACHE_GET]
        assert cache.result_put_degraded == 1 == counters[
            SITE_RESULT_CACHE_PUT]
        stats = session.executor_stats()
        assert stats["circuit_breaker"]["state"] == STATE_CLOSED
        # Injected memory pressure forced exactly two operators down their
        # spill paths; the results above already proved bit-identity.
        memory = stats["memory"]
        assert memory["pressure_faults"] == 2 == counters[
            SITE_MEMORY_PRESSURE]
        assert (memory["join_spills"] + memory["aggregate_spills"]
                + memory["sort_spills"]) == 2
        # Zero residue: every grant, spill file and shm segment is gone.
        assert memory["reserved_bytes"] == 0
        assert memory["governor"]["granted_bytes"] == 0
        assert memory["shm"] == {"live_segments": 0, "resident_bytes": 0}
        if backend == "process":
            assert counters[SITE_POOL_SUBMIT] == 1
            assert stats["worker_crashes"] == 1
            assert stats["process_pool_rebuilds"] == 1
            assert stats["shm_fallbacks"] >= 2
            assert stats["shm_fallbacks"] == (counters[SITE_SHM_ALLOCATE]
                                              + counters[SITE_SHM_ATTACH])
        else:
            # Threads never touch shared memory: those sites stay silent.
            assert counters[SITE_SHM_ALLOCATE] == 0
            assert counters[SITE_SHM_ATTACH] == 0
    finally:
        session.close()
    assert live_segment_names() == []


# ---------------------------------------------------------------------------
# Serving retries
# ---------------------------------------------------------------------------


FILTERED_COUNT = "SELECT count(*) AS n FROM lineitem WHERE l_quantity < 30"


class TestServingRetries:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_retry_absorbs_transient_fault(self, tpch_workload, backend):
        plan = FaultPlan([FaultSpec(SITE_MORSEL_DISPATCH, kind="transient",
                                    times=1)])
        database = Database(tpch_workload.catalog, fault_plan=plan)
        slept = []
        serving = AsyncDatabase(
            database, workers=2,
            retry_policy=RetryPolicy(max_attempts=3, seed=7),
            retry_sleep=slept.append,
            executor_workers=2, morsel_size=512, executor_backend=backend)

        async def scenario():
            return await serving.execute_async(FILTERED_COUNT, name="q")

        try:
            result = asyncio.run(scenario())
            baseline = Database(tpch_workload.catalog) \
                .connect(history_limit=0).execute(FILTERED_COUNT)
            assert result.to_pylist() == baseline.to_pylist()
            snap = serving.snapshot()
            assert snap.retries == 1
            assert snap.retries_denied == 0
            assert snap.completed == 1 and snap.failed == 0
            # The backoff schedule is the policy's deterministic one.
            assert slept == [RetryPolicy(max_attempts=3, seed=7)
                             .delay(1, key="q")]
            assert plan.counters() == {SITE_MORSEL_DISPATCH: 1}
        finally:
            serving.close()

    def test_budget_exhaustion_fails_fast(self, tpch_workload):
        plan = FaultPlan([FaultSpec(SITE_MORSEL_DISPATCH, kind="transient",
                                    times=3)])
        database = Database(tpch_workload.catalog, fault_plan=plan)
        serving = AsyncDatabase(
            database, workers=1,
            retry_policy=RetryPolicy(max_attempts=5, tenant_retry_budget=1),
            retry_sleep=lambda _s: None,
            executor_workers=2, morsel_size=512)

        async def scenario():
            await serving.execute_async(FILTERED_COUNT)

        try:
            with pytest.raises(TransientError):
                asyncio.run(scenario())
            snap = serving.snapshot()
            assert snap.retries == 1
            assert snap.retries_denied == 1
            assert snap.failed == 1
        finally:
            serving.close()

    def test_attempt_cap_counts_denial(self, tpch_workload):
        plan = FaultPlan([FaultSpec(SITE_MORSEL_DISPATCH, kind="transient",
                                    times=0)])
        database = Database(tpch_workload.catalog, fault_plan=plan)
        serving = AsyncDatabase(
            database, workers=1,
            retry_policy=RetryPolicy(max_attempts=2),
            retry_sleep=lambda _s: None,
            executor_workers=2, morsel_size=512)

        async def scenario():
            await serving.execute_async(FILTERED_COUNT)

        try:
            with pytest.raises(TransientError):
                asyncio.run(scenario())
            snap = serving.snapshot()
            assert snap.retries == 1  # attempt 1 -> retry -> cap
            assert snap.retries_denied == 1
        finally:
            serving.close()

    def test_permanent_errors_never_retry(self, tpch_workload):
        database = Database(tpch_workload.catalog)
        serving = AsyncDatabase(database, workers=1,
                                retry_policy=RetryPolicy(max_attempts=5))

        async def scenario():
            await serving.execute_async("SELEKT broken")

        try:
            with pytest.raises(SqlError):
                asyncio.run(scenario())
            snap = serving.snapshot()
            assert snap.retries == 0
            assert snap.retries_denied == 0
            assert snap.failed == 1
        finally:
            serving.close()

    def test_cancellation_never_retries(self, tpch_workload):
        database = Database(tpch_workload.catalog)
        serving = AsyncDatabase(database, workers=1,
                                retry_policy=RetryPolicy(max_attempts=5))
        token = CancelToken()
        token.cancel("client gave up")

        async def scenario():
            await serving.execute_async(FILTERED_COUNT, cancel=token)

        try:
            with pytest.raises(QueryCancelledError):
                asyncio.run(scenario())
            snap = serving.snapshot()
            assert snap.retries == 0
            assert snap.cancelled >= 1
        finally:
            serving.close()

    def test_dequeue_fault_re_picks_request(self, tpch_workload):
        plan = FaultPlan([FaultSpec(SITE_ADMISSION_DEQUEUE,
                                    kind="transient", times=2)])
        database = Database(tpch_workload.catalog, fault_plan=plan)
        serving = AsyncDatabase(database, workers=1)

        async def scenario():
            return await serving.execute_async(FILTERED_COUNT)

        try:
            result = asyncio.run(scenario())
            assert result.to_pylist()
            assert serving.queue.dequeue_faults == 2
            assert plan.counters() == {SITE_ADMISSION_DEQUEUE: 2}
            assert serving.snapshot().completed == 1
        finally:
            serving.close()

    def test_async_execute_many_partial_failure(self, tpch_workload):
        database = Database(tpch_workload.catalog)
        serving = AsyncDatabase(database, workers=2)

        async def scenario():
            return await serving.execute_many(
                [FILTERED_COUNT, "SELEKT nope", FILTERED_COUNT],
                name="batch")

        async def strict():
            await serving.execute_many([FILTERED_COUNT, "SELEKT nope"],
                                       return_errors=False)

        try:
            outcomes = asyncio.run(scenario())
            assert len(outcomes) == 3
            assert outcomes[0].to_pylist() == outcomes[2].to_pylist()
            assert isinstance(outcomes[1], SqlError)
            with pytest.raises(SqlError):
                asyncio.run(strict())
        finally:
            serving.close()


# ---------------------------------------------------------------------------
# Result-cache degradation (sync API)
# ---------------------------------------------------------------------------


def test_result_cache_faults_degrade_not_fail(tpch_workload):
    plan = FaultPlan([
        FaultSpec(SITE_RESULT_CACHE_PUT, times=1),
        FaultSpec(SITE_RESULT_CACHE_GET, times=1, after=1),
    ])
    database = Database(tpch_workload.catalog, result_cache_size=8,
                        fault_plan=plan)
    session = database.connect(history_limit=0)
    try:
        first = session.execute(FILTERED_COUNT)   # put fault: not stored
        second = session.execute(FILTERED_COUNT)  # get fault: forced miss
        third = session.execute(FILTERED_COUNT)   # stored by #2: real hit
        assert not first.from_result_cache
        assert not second.from_result_cache
        assert third.from_result_cache
        assert first.to_pylist() == second.to_pylist() == third.to_pylist()
        stats = database.cache_stats()
        assert stats.result_put_degraded == 1
        assert stats.result_get_degraded == 1
        assert plan.counters() == {SITE_RESULT_CACHE_PUT: 1,
                                   SITE_RESULT_CACHE_GET: 1}
    finally:
        session.close()


# ---------------------------------------------------------------------------
# execute_many partial-failure semantics (sync API)
# ---------------------------------------------------------------------------


class TestExecuteManyPartialFailure:
    @pytest.fixture()
    def mixed_db(self):
        from repro.storage import Catalog

        database = Database(Catalog())
        database.register_table("a", {"k": np.arange(50)})
        database.register_table("b", {"k": np.arange(50)})
        return database

    def test_partial_failure_slots(self, mixed_db):
        session = mixed_db.connect(max_cross_join_rows=100)
        results = session.execute_many(
            ["select a.k from a", "select a.k from a, b",
             "select b.k from b"],
            return_errors=True)
        assert [r.failed for r in results] == [False, True, False]
        assert isinstance(results[1].error, ExecutionError)
        assert results[0].to_pylist() and results[2].to_pylist()
        with pytest.raises(ExecutionError):
            results[1].to_pylist()

    def test_default_still_raises_first_error(self, mixed_db):
        session = mixed_db.connect(max_cross_join_rows=100)
        with pytest.raises(ExecutionError):
            session.execute_many(["select a.k from a",
                                  "select a.k from a, b"])

    def test_deduplicated_slots_share_the_error(self, mixed_db):
        session = mixed_db.connect(max_cross_join_rows=100)
        results = session.execute_many(
            ["select a.k from a, b", "select a.k from a, b"],
            return_errors=True)
        assert all(r.failed for r in results)
        assert results[0].error is results[1].error
