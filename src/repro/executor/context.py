"""Execution context: catalog access, Bloom filter scoping, tuning knobs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..bloom import BloomFilter
from ..core.cost import CostModel, CostParameters, DEFAULT_COST_PARAMETERS
from ..faults import FaultPlan
from ..storage.catalog import Catalog
from .backend import EXECUTOR_BACKENDS, MorselPools, resolve_backend
from .breaker import CircuitBreaker
from .cancel import CancelToken
from .joins import DEFAULT_MAX_CROSS_JOIN_ROWS
from .memory import MemoryGovernor, MemoryStats, default_governor
from .shm import live_segment_stats

#: Default morsel row count: large enough that per-morsel dispatch overhead
#: stays negligible, small enough that a skewed partition still splits into
#: several work units.
DEFAULT_MORSEL_SIZE = 65_536


class FilterScope:
    """Bloom filters published during a *single* plan execution.

    Build-side hash joins publish their filters here and the probe-side scans
    below them fetch them.  Each :meth:`Executor.execute
    <repro.executor.runtime.Executor.execute>` call creates its own scope, so
    two in-flight executions against one shared :class:`ExecutionContext`
    (e.g. two API sessions over the same catalog) can never observe — or
    clobber — each other's filters.
    """

    def __init__(self) -> None:
        self._filters: Dict[str, BloomFilter] = {}

    def register_filter(self, filter_id: str, bloom: BloomFilter) -> None:
        """Publish a built Bloom filter so probe-side scans can fetch it."""
        self._filters[filter_id] = bloom

    def get_filter(self, filter_id: str) -> BloomFilter:
        """Fetch a previously built Bloom filter.

        Raises ``KeyError`` if the filter has not been built yet — this mirrors
        the paper's semantics that "table scans wait for all Bloom filter
        partitions to become available before scanning can proceed": in our
        single-threaded executor the build side of the resolving hash join is
        always executed before the probe side, so a missing filter indicates a
        plan bug rather than a race.
        """
        if filter_id not in self._filters:
            raise KeyError("Bloom filter %r has not been built before its "
                           "probe-side scan" % filter_id)
        return self._filters[filter_id]

    def has_filter(self, filter_id: str) -> bool:
        """True if the filter has already been built."""
        return filter_id in self._filters

    def clear(self) -> None:
        """Drop all registered filters."""
        self._filters.clear()


@dataclass
class ExecutionContext:
    """Shared state for query executions against one catalog.

    Attributes:
        catalog: Source of table data.
        cost_model: Charges work units for the simulated latency model; uses
            the same constants as the optimizer so estimated and observed
            costs are comparable.  Broadcasts and broadcast hash-table
            builds are charged at its parameters' simulated DOP, exactly as
            the optimizer priced them.
        executor_workers: Morsel-execution worker count.  ``<= 1`` runs the
            classic serial operators; above that, scans, projections, join
            probes, aggregation partials and sort runs split their input
            into morsels processed on a shared worker pool and re-combined
            in canonical order (bit-identical to serial; see
            ``docs/executor.md``).
        executor_backend: How morsels escape the interpreter: ``"thread"``
            (shared thread pool, the default), ``"process"`` (spawn-based
            process pool shipping columns through
            ``multiprocessing.shared_memory``) or ``"auto"`` (threads on
            free-threaded CPython 3.13+, processes elsewhere).  See
            :func:`repro.executor.backend.resolve_backend`.
        morsel_size: Maximum rows per morsel.  Morsel boundaries additionally
            align to storage partition boundaries so each morsel stays within
            one partition.
        max_cross_join_rows: Guard against accidental Cartesian blow-ups: a
            cross join whose output would exceed this many rows raises
            :class:`~repro.errors.ExecutionError` instead of allocating
            ``n * m`` rows (``<= 0`` disables the guard).
        cancel_token: Default :class:`~repro.executor.cancel.CancelToken`
            polled by every execution on this context (the sync-API hook for
            cooperative cancellation).  A per-call token passed to
            :meth:`Executor.execute <repro.executor.runtime.Executor.execute>`
            takes precedence — concurrent executions sharing one context
            should always use per-call tokens.
        fault_plan: Optional :class:`~repro.faults.FaultPlan` consulted at
            the named injection sites (morsel dispatch, pool submit, shm
            allocate/attach, memory pressure) by every execution on this
            context.  ``None`` (the default) costs a single ``is None``
            check per site — zero overhead in production; see
            ``docs/robustness.md``.
        memory_governor: The process-wide byte pool executions draw their
            per-query :class:`~repro.executor.memory.MemoryBudget` grants
            from.  ``None`` (the default) resolves to
            :func:`~repro.executor.memory.default_governor`, whose pool
            size comes from ``REPRO_MEMORY_POOL_BYTES``; see
            ``docs/memory.md``.
        max_memory_bytes: Per-query reserved-byte cap; a reservation above
            the cap is denied, degrading the operator to its spill path
            (``None`` = uncapped).
        max_spill_bytes: Per-query spill-file cap; exceeding it raises a
            permanent :class:`~repro.errors.ResourceExhaustedError` — the
            watchdog against a runaway query trading RAM for disk.
        max_rows: Per-query materialized-row cap enforced at operator
            outputs (``None`` = uncapped).
        spill_dir: Root directory for per-query spill directories
            (``None`` = the system temp dir).

    Bloom filters built at runtime are *not* shared context state: every
    execution publishes them into its own :class:`FilterScope` (see
    :meth:`new_filter_scope`), which keeps concurrent executions on one
    context independent.  Callers driving scans by hand construct a scope,
    register filters on it and pass it to
    :meth:`Executor.execute(plan, filters=scope)
    <repro.executor.runtime.Executor.execute>`.
    """

    catalog: Catalog
    cost_model: CostModel = field(default_factory=lambda: CostModel(DEFAULT_COST_PARAMETERS))
    executor_workers: int = 0
    morsel_size: int = DEFAULT_MORSEL_SIZE
    max_cross_join_rows: int = DEFAULT_MAX_CROSS_JOIN_ROWS
    executor_backend: str = "thread"
    cancel_token: Optional[CancelToken] = None
    fault_plan: Optional[FaultPlan] = None
    memory_governor: Optional[MemoryGovernor] = None
    max_memory_bytes: Optional[int] = None
    max_spill_bytes: Optional[int] = None
    max_rows: Optional[int] = None
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        # Eager validation: a nonsensical knob fails when the session is
        # opened, not mid-query.
        if self.morsel_size <= 0:
            raise ValueError("morsel_size must be positive, got %r"
                             % self.morsel_size)
        if self.executor_workers < 0:
            raise ValueError("executor_workers must be non-negative, got %r"
                             % self.executor_workers)
        if self.executor_backend not in EXECUTOR_BACKENDS:
            raise ValueError("executor_backend must be one of %r, got %r"
                             % (EXECUTOR_BACKENDS, self.executor_backend))
        for name in ("max_memory_bytes", "max_spill_bytes", "max_rows"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError("%s must be positive or None, got %r"
                                 % (name, value))
        #: Lazily created, persistent morsel/process/batch pools shared by
        #: every execution on this context (see
        #: :class:`repro.executor.backend.MorselPools`).
        self.pools = MorselPools()
        #: Circuit breaker gating the process backend: repeated transient
        #: process-dispatch failures trip every process-eligible operator
        #: over to the thread backend until a half-open probe succeeds (see
        #: :mod:`repro.executor.breaker`).
        self.breaker = CircuitBreaker()
        #: Cumulative memory counters: every per-query budget created on
        #: this context writes its reservations, denials and spill bytes
        #: here, so ``executor_stats()["memory"]`` reports session totals.
        self.memory_stats = MemoryStats()

    def governor(self) -> MemoryGovernor:
        """The governor executions draw budget grants from (resolved)."""
        if self.memory_governor is not None:
            return self.memory_governor
        return default_governor()

    @classmethod
    def for_catalog(cls, catalog: Catalog,
                    parameters: Optional[CostParameters] = None,
                    ) -> "ExecutionContext":
        """Convenience constructor mirroring the optimizer's defaults."""
        params = parameters or DEFAULT_COST_PARAMETERS
        return cls(catalog=catalog, cost_model=CostModel(params))

    # -- Bloom filter scoping -------------------------------------------------

    def new_filter_scope(self) -> FilterScope:
        """A fresh, empty filter scope for one plan execution."""
        return FilterScope()

    # -- worker pools ---------------------------------------------------------

    def executor_stats(self) -> Dict[str, object]:
        """Pool-lifecycle and dispatch counters plus the resolved knobs.

        The executor-side twin of ``db.cache_stats()``: a snapshot of the
        shared pool state (creation counts, dispatched morsel/batch tasks,
        shared-memory bytes) so tests and operators can pin the
        no-pool-churn behaviour of ``execute_many`` and observe which
        backend actually runs.
        """
        stats: Dict[str, object] = dict(self.pools.stats())
        stats["executor_backend"] = self.executor_backend
        stats["resolved_backend"] = resolve_backend(self.executor_backend)
        stats["executor_workers"] = self.executor_workers
        stats["morsel_size"] = self.morsel_size
        stats["circuit_breaker"] = self.breaker.stats()
        stats["fault_injections"] = (
            {} if self.fault_plan is None else self.fault_plan.counters())
        memory: Dict[str, object] = dict(self.memory_stats.as_dict())
        memory["governor"] = self.governor().stats()
        memory["shm"] = live_segment_stats()
        stats["memory"] = memory
        return stats

    def close(self) -> None:
        """Shut every shared pool down deterministically (idempotent).

        Called by :meth:`Session.close <repro.api.session.Session.close>`;
        without it the lazily created pools' workers live until interpreter
        exit.  A later execution would lazily rebuild the pools it needs,
        but sessions guard execution after close so it never happens
        through the API.
        """
        self.pools.close()
