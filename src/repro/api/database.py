"""The embeddable :class:`Database` facade.

A :class:`Database` owns everything that outlives a single query: the
catalog, the default optimizer configuration, and — the part that makes
repeated traffic cheap — two caches shared by every session:

* the **plan cache**: complete :class:`~repro.core.optimizer.OptimizationResult`
  objects keyed by ``(bound-query fingerprint, mode, settings)``, so an
  identical logical query is planned exactly once;
* the **enumeration-sequence cache**
  (:class:`~repro.core.enumerator.EnumerationSequenceCache`): the canonical
  DPccp (union, outer, inner) mask-triple sequence keyed by the join graph's
  edge-bitmask signature, so a *same-shape* query with different predicates
  (a plan-cache miss) still skips the enumeration walk entirely.

Sessions (:class:`~repro.api.session.Session`) are created with
:meth:`Database.connect` and own the per-connection state: an execution
context with its executor knobs, mode/settings defaults and a metrics
history.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..analysis.contracts import PlanContractVerifier, verify_plans_default
from ..cache import LruCache
from ..core.cost import CostParameters, DEFAULT_COST_PARAMETERS
from ..core.enumerator import EnumerationSequenceCache
from ..core.heuristics import BfCboSettings, scaled_settings
from ..core.optimizer import (
    OptimizationResult,
    Optimizer,
    OptimizerMode,
    resolve_optimizer_settings,
)
from ..core.query import QueryBlock
from ..errors import PlanningError, SessionClosedError, raise_as
from ..executor.memory import MemoryGovernor, default_governor
from ..faults import FaultPlan, SITE_RESULT_CACHE_GET, SITE_RESULT_CACHE_PUT
from ..executor.runtime import ExecutionResult
from ..serving.cache import ResultCache
from ..sql.binder import bind_sql
from ..storage.catalog import Catalog
from ..storage.schema import ForeignKey, TableSchema, make_schema
from ..storage.statistics import TableStatistics
from ..storage.table import Table, infer_null_mask
from ..storage.types import BOOL, DATE, FLOAT64, INT64, STRING, DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import QueryResult, Session


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a database's plan, sequence and result caches.

    ``plan_evictions`` / ``result_evictions`` count entries dropped by
    invalidation — targeted (per-table, when a dependency is re-registered)
    and full (out-of-band catalog changes) alike; LRU-capacity replacement
    is not counted.
    """

    plan_hits: int
    plan_misses: int
    plan_entries: int
    sequence_hits: int
    sequence_misses: int
    sequence_entries: int
    plan_evictions: int = 0
    result_hits: int = 0
    result_misses: int = 0
    result_entries: int = 0
    result_evictions: int = 0
    #: Result-cache lookups degraded to a miss by an injected
    #: ``result-cache-get`` fault (the query re-executes; correctness is
    #: unaffected because the cache is a pure memoization).
    result_get_degraded: int = 0
    #: Result-cache stores skipped by an injected ``result-cache-put`` fault
    #: (the result is simply not memoized).
    result_put_degraded: int = 0
    #: Batch bytes currently resident in the result cache (the quantity the
    #: ``result_cache_bytes`` knob bounds; 0 when byte-weighting is off or
    #: the cache is empty).
    result_resident_bytes: int = 0

    @property
    def plan_lookups(self) -> int:
        """Total plan-cache lookups."""
        return self.plan_hits + self.plan_misses

    @property
    def sequence_lookups(self) -> int:
        """Total enumeration-sequence-cache lookups."""
        return self.sequence_hits + self.sequence_misses

    @property
    def result_lookups(self) -> int:
        """Total result-cache lookups."""
        return self.result_hits + self.result_misses


def _infer_column_type(values: np.ndarray) -> DataType:
    """Map a numpy array's dtype onto the storage layer's logical types."""
    kind = values.dtype.kind
    if kind == "b":
        return BOOL
    if kind in ("i", "u"):
        return INT64
    if kind == "f":
        return FLOAT64
    if kind == "M":
        return DATE
    if kind in ("U", "S", "O"):
        return STRING
    raise ValueError("cannot infer a column type for dtype %r" % values.dtype)


def _storage_array(values: np.ndarray) -> np.ndarray:
    """Convert an array to the engine's physical representation.

    Dates are stored as days-since-epoch int64 throughout the engine, so
    ``datetime64`` input is converted here.  Unsigned integers are widened to
    the signed int64 their schema declares.  Byte strings are decoded to
    unicode, because predicates compare against ``str`` literals and a
    ``bytes`` vs ``str`` comparison silently matches nothing in numpy.
    """
    if values.dtype.kind == "M":
        return values.astype("datetime64[D]").astype(np.int64)
    if values.dtype.kind == "u":
        if values.size and int(values.max()) > np.iinfo(np.int64).max:
            raise ValueError("unsigned column values exceed int64 range; "
                             "max is %d" % int(values.max()))
        return values.astype(np.int64)
    if values.dtype.kind == "S":
        return values.astype(np.str_)
    return values


def _infer_storage_column(values: np.ndarray,
                          explicit_mask: Optional[Sequence],
                          ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Physical array plus inferred/merged null mask for one input column.

    NaN in float input and ``None`` in object input mark NULLs
    (:func:`~repro.storage.table.infer_null_mask`, merged with any
    ``explicit_mask``) instead of masquerading as data; the filler stored
    under the mask is zero / empty and never read back.
    """
    mask: Optional[np.ndarray] = None
    if explicit_mask is not None:
        mask = np.asarray(explicit_mask, dtype=bool)
        if mask.shape != values.shape:
            raise ValueError("null mask shape %r does not match values %r"
                             % (mask.shape, values.shape))
    inferred = infer_null_mask(values)
    if inferred is not None:
        mask = inferred if mask is None else (mask | inferred)
        if values.dtype.kind == "O":
            # Replace the None markers so the stored array is analysable
            # (np.unique cannot sort None against str).
            values = values.copy()
            values[inferred] = ""
        elif values.dtype.kind == "M":
            # Replace NaT markers before the days-since-epoch conversion:
            # NaT casts to int64 min, a sentinel that would masquerade as an
            # (absurd) date under the mask.
            values = values.copy()
            values[inferred] = np.datetime64(0, np.datetime_data(values.dtype)[0])
    if mask is not None and not mask.any():
        mask = None
    return _storage_array(values), mask


class Database:
    """One embeddable entry point: a catalog plus shared planning caches.

    Args:
        catalog: The catalog to plan and execute against.
        mode: Default optimizer mode for sessions (BF-CBO unless overridden).
        settings: Default BF-CBO settings; ``None`` uses the paper defaults.
        cost_parameters: Cost-model constants shared by planner and executor.
        scale_factor: When set, the paper's absolute heuristic thresholds are
            rescaled to this TPC-H scale factor
            (:func:`~repro.core.heuristics.scaled_settings`), exactly as the
            experiment harness does.
        plan_cache_size: Maximum cached optimization results (0 disables).
        sequence_cache_size: Maximum cached DPccp sequences (0 disables).
        result_cache_size: Maximum cached *execution results* shared across
            sessions (0 — the default — disables result caching entirely,
            preserving the execute-every-call behaviour).  Execution here is
            deterministic, so a result is a pure function of the same key
            the plan cache uses plus the catalog version; hits surface as
            ``QueryResult.from_result_cache`` and in :meth:`cache_stats`.
            Cached batches are frozen (read-only arrays) because every hit
            shares them — see ``docs/serving.md``.
        result_cache_bytes: Byte bound on the result cache: stored batches
            are weighted by their actual resident bytes and eviction is by
            size, not entry count (``None`` keeps the entry-count bound
            only).
        verify_plans: Run the plan-contract verifier
            (:mod:`repro.analysis.contracts`) on every cold-planned query,
            raising :class:`~repro.errors.PlanContractError` if the plan
            violates an executor contract.  ``None`` (the default) follows
            the ``REPRO_VERIFY_PLANS`` environment variable — on in tests
            and CI, off in production.
        fault_plan: Optional :class:`~repro.faults.FaultPlan` driving
            deterministic fault injection: threaded into every session's
            execution context (morsel dispatch, process-pool submit, shm
            sites, memory pressure) and consulted at this database's
            result-cache get/put sites.  ``None`` (the default) is
            zero-overhead; see ``docs/robustness.md``.
        memory_pool_bytes: Size of this database's memory-governor pool.
            ``None`` (the default) shares the process-wide governor
            (:func:`~repro.executor.memory.default_governor`, sized by
            ``REPRO_MEMORY_POOL_BYTES``); an explicit size gives this
            database its own pool.  Operators whose reservations the pool
            cannot cover degrade to their spill paths — see
            ``docs/memory.md``.
        spill_dir: Root directory for the per-query spill files of every
            session opened on this database (``None`` = the system temp
            dir).

    Adaptive-planner knobs are :class:`~repro.core.heuristics.BfCboSettings`
    fields, passed through ``settings``; executor knobs are per-session
    :meth:`connect` arguments.
    """

    def __init__(self, catalog: Catalog, *,
                 mode: OptimizerMode = OptimizerMode.BF_CBO,
                 settings: Optional[BfCboSettings] = None,
                 cost_parameters: Optional[CostParameters] = None,
                 scale_factor: Optional[float] = None,
                 plan_cache_size: int = 256,
                 sequence_cache_size: int = 128,
                 result_cache_size: int = 0,
                 result_cache_bytes: Optional[int] = None,
                 verify_plans: Optional[bool] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 memory_pool_bytes: Optional[int] = None,
                 spill_dir: Optional[str] = None) -> None:
        self.catalog = catalog
        self.default_mode = mode
        self.default_settings = settings
        self.cost_parameters = cost_parameters or DEFAULT_COST_PARAMETERS
        self.scale_factor = scale_factor
        #: Spill-file root shared by every session's execution context.
        self.spill_dir = spill_dir
        #: The memory governor every session's per-query budgets draw from
        #: (and the serving tier's admission queue consults): this
        #: database's own pool when ``memory_pool_bytes`` was given, the
        #: process-wide default governor otherwise.
        self.memory_governor: MemoryGovernor = (
            MemoryGovernor(memory_pool_bytes)
            if memory_pool_bytes is not None else default_governor())
        #: Whether cold-planned queries run the plan-contract verifier
        #: (database kwarg > ``REPRO_VERIFY_PLANS`` environment default).
        self.verify_plans: bool = (verify_plans_default()
                                   if verify_plans is None else verify_plans)
        #: Deterministic fault-injection plan shared by every session opened
        #: on this database (``None`` = no injection, zero overhead).
        self.fault_plan = fault_plan
        self._result_get_degraded = 0
        self._result_put_degraded = 0
        self.sequence_cache: Optional[EnumerationSequenceCache] = (
            EnumerationSequenceCache(sequence_cache_size)
            if sequence_cache_size > 0 else None)
        self.optimizer = Optimizer(catalog, self.cost_parameters,
                                   sequence_cache=self.sequence_cache)
        #: The TPC-H workload this database was built from, if any
        #: (see :meth:`from_tpch`).
        self.workload = None
        self._plan_cache: "LruCache" = LruCache(plan_cache_size)
        self._result_cache = ResultCache(result_cache_size,
                                         max_bytes=result_cache_bytes)
        #: Result-cache full-invalidation epoch: part of every result key,
        #: bumped on out-of-band catalog changes so older keys become
        #: unreachable instantly.  Table registration does NOT bump it —
        #: it evicts per table, keeping unrelated results hot.
        self._result_epoch = 0
        #: Catalog version the cached plans were built against; any catalog
        #: change — even one made directly on ``db.catalog`` — bumps the
        #: version and invalidates them on the next lookup.
        self._catalog_version = catalog.version
        self._closed = False
        #: Open sessions, tracked weakly so :meth:`close` can shut their
        #: worker pools down without keeping abandoned sessions alive.
        self._sessions: "weakref.WeakSet[Session]" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_tpch(cls, scale_factor: float = 0.01, *,
                  statistics_only: bool = False,
                  query_numbers: Optional[List[int]] = None,
                  **database_kwargs: Any) -> "Database":
        """A database over a generated (or statistics-only) TPC-H catalog.

        The bound workload queries stay reachable through :meth:`tpch_query`,
        and the heuristic thresholds are rescaled to ``scale_factor`` unless
        an explicit ``scale_factor=None`` override is passed.
        """
        from ..tpch.workload import TpchWorkload

        workload = (TpchWorkload.statistics_only(scale_factor,
                                                 query_numbers=query_numbers)
                    if statistics_only else
                    TpchWorkload.generate(scale_factor,
                                          query_numbers=query_numbers))
        database_kwargs.setdefault("scale_factor", scale_factor)
        database = cls(workload.catalog, **database_kwargs)
        database.workload = workload
        return database

    def tpch_query(self, number: int) -> QueryBlock:
        """The bound TPC-H query ``number`` of the backing workload."""
        if self.workload is None:
            raise KeyError("database was not built with Database.from_tpch")
        return self.workload.query(number)

    def register_table(self, name: str,
                       columns: Mapping[str, Sequence], *,
                       null_masks: Optional[Mapping[str, Sequence]] = None,
                       primary_key: Sequence[str] = (),
                       foreign_keys: Sequence[ForeignKey] = (),
                       statistics: Optional[TableStatistics] = None) -> Table:
        """Register an ad-hoc table from column arrays and analyse it.

        Column types are inferred from the numpy dtypes, so
        ``db.register_table("t", {"k": np.arange(10)})`` is all it takes to
        make a table queryable.  NULLs come in two ways: pass explicit
        boolean ``null_masks`` per column, or let NaN floats and
        ``None``-bearing object arrays be inferred as nullable columns with
        a proper mask (NaN never masquerades as data).  Returns the
        materialised table.

        Registration only evicts the cached plans that depend on ``name``
        (see :meth:`cache_stats` for eviction counts); plans over other
        tables stay cached.
        """
        arrays = {col: np.asarray(values) for col, values in columns.items()}
        null_masks = null_masks or {}
        unknown = set(null_masks) - set(arrays)
        if unknown:
            raise ValueError("null masks for unknown columns %r"
                             % sorted(unknown))
        storage = {}
        masks = {}
        for col, data in arrays.items():
            storage[col], masks[col] = _infer_storage_column(
                data, null_masks.get(col))
        schema = make_schema(name,
                             [(col, _infer_column_type(arrays[col]),
                               masks[col] is not None)
                              for col in arrays],
                             primary_key=primary_key,
                             foreign_keys=foreign_keys)
        table = Table(schema, storage, null_masks=masks)
        self._register(table.name, lambda: self.catalog.register_table(
            table, statistics=statistics))
        return table

    def register_schema(self, schema: TableSchema,
                        statistics: Optional[TableStatistics] = None) -> None:
        """Register a statistics-only table (planning without data)."""
        self._register(schema.name, lambda: self.catalog.register_schema(
            schema, statistics))

    def _register(self, table_name: str, register: Callable[[], None]) -> None:
        """Run a catalog registration with per-table plan-cache eviction.

        Any out-of-band catalog change is flushed first (full eviction);
        the registration itself then only drops cached plans that reference
        ``table_name``, and the catalog-version snapshot is advanced so the
        surviving entries stay served.
        """
        self._invalidate_if_catalog_changed()
        register()
        key = table_name.lower()
        self._plan_cache.evict_if(lambda _, entry: key in entry[1])
        self._result_cache.evict_table(key)
        self._catalog_version = self.catalog.version

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def connect(self, **session_kwargs: Any) -> "Session":
        """Open a new session against this database."""
        from .session import Session

        self._check_open()
        session = Session(self, **session_kwargs)
        self._sessions.add(session)
        return session

    def execute_many(self, queries: Sequence, *,
                     workers: Optional[int] = None,
                     deduplicate: bool = True,
                     return_errors: bool = False,
                     **session_kwargs: Any) -> List:
        """Execute a batch of queries concurrently against this database.

        Convenience wrapper over :meth:`Session.execute_many
        <repro.api.session.Session.execute_many>`: opens a throwaway session
        (``history_limit=0`` — batch serving should not retain every result
        twice), runs the whole batch through the shared plan cache with
        per-execution filter scopes, and returns the results in input order.
        With ``return_errors=True`` one failing query no longer poisons the
        batch: its slot carries the error (``QueryResult.error``) and every
        independent request still succeeds.  ``session_kwargs`` configure
        the temporary session (e.g. ``executor_workers`` for morsel
        parallelism inside each query).
        """
        session_kwargs.setdefault("history_limit", 0)
        session = self.connect(**session_kwargs)
        return session.execute_many(queries, workers=workers,
                                    deduplicate=deduplicate,
                                    return_errors=return_errors)

    # ------------------------------------------------------------------
    # Planning (the shared plan cache)
    # ------------------------------------------------------------------

    def bind(self, sql: str, name: str = "query") -> QueryBlock:
        """Parse and bind a SQL string against the catalog."""
        return bind_sql(self.catalog, sql, name=name)

    def resolve_settings(self, mode: OptimizerMode,
                         settings: Optional[BfCboSettings],
                         ) -> BfCboSettings:
        """The effective settings for ``mode`` (defaults, scaling, disabling).

        ``settings=None`` falls back to the database's ``settings``.  Delegates
        the mode defaulting to the optimizer's own
        :func:`~repro.core.optimizer.resolve_optimizer_settings` (so the plan
        cache keys on exactly what the optimizer runs with), then applies the
        scale-factor threshold rescaling the experiment harness uses.
        """
        if settings is None:
            settings = self.default_settings
        settings = resolve_optimizer_settings(mode, settings)
        if mode is OptimizerMode.BF_CBO and self.scale_factor is not None:
            settings = scaled_settings(self.scale_factor, settings)
        return settings

    def optimize(self, query: QueryBlock,
                 mode: Optional[OptimizerMode] = None,
                 settings: Optional[BfCboSettings] = None,
                 ) -> Tuple[OptimizationResult, bool]:
        """Plan ``query``, consulting the plan cache.

        Returns ``(result, from_cache)``.  A cached result is returned as-is
        (plans are immutable during execution); its ``planning_time_ms`` still
        reports the original cold planning time.

        With ``verify_plans`` on, the plan-contract verifier runs on *cold*
        planning only — a cached plan already passed on the miss that
        produced it — and the knob stays out of the cache key: it changes
        whether a plan is checked, never which plan is produced.
        """
        self._check_open()
        mode = mode or self.default_mode
        settings = self.resolve_settings(mode, settings)
        caching = self._plan_cache.max_entries > 0
        if caching:
            # Snapshot the version *before* the invalidation check: a
            # mutation landing anywhere after this line makes the guards
            # below treat the lookup as a miss and refuse the store, so a
            # stale result is neither served nor kept.
            planned_version = self.catalog.version
            self._invalidate_if_catalog_changed()
            # Every settings field can change the plan, so the resolved
            # settings are part of the key as they are.
            key = (query.fingerprint(), mode, settings)
            cached = self._plan_cache.lookup(key)
            if cached is not None and self.catalog.version == planned_version:
                return cached[0], True
        with raise_as(PlanningError, "planning %s failed" % query.name):
            result = self.optimizer.optimize(query, mode, settings)
        if self.verify_plans:
            # PlanContractError subclasses PlanningError, so callers guarding
            # the planning stage catch contract violations with no new paths.
            PlanContractVerifier(self.catalog, query).verify(result.plan)
        if caching and self.catalog.version == planned_version:
            # Entries carry the set of tables the plan reads so that a
            # re-registration of one table evicts only its dependents.
            tables = frozenset(rel.table_name.lower()
                               for rel in query.relations)
            self._plan_cache.store(key, (result, tables))
        return result, False

    def _invalidate_if_catalog_changed(self) -> None:
        """Drop cached plans when the catalog was mutated (any path).

        Only the entries are dropped — the lifetime hit/miss counters keep
        counting so ``cache_stats()`` hit rates survive catalog changes.
        Eviction happens *before* the version mark: a concurrent caller
        racing this method either re-evicts (idempotent) or finds the cache
        already empty, never a stale entry behind a fresh mark.
        """
        version = self.catalog.version
        if version != self._catalog_version:
            self._plan_cache.evict_all()
            self._result_cache.evict_all()
            self._result_epoch += 1
            self._catalog_version = version

    # ------------------------------------------------------------------
    # The shared result cache
    # ------------------------------------------------------------------

    def _result_key(self, result: "QueryResult") -> Tuple[Hashable, ...]:
        """The result-cache key of one planned query.

        Same projection as the plan cache (fingerprint, mode, resolved
        settings) plus the full-invalidation epoch — see
        :class:`~repro.serving.cache.ResultCache`.
        """
        return ResultCache.key(result.query.fingerprint(), result.mode,
                               result.settings,
                               self._result_epoch)

    def cached_result(self, result: "QueryResult",
                      version: int) -> Optional[ExecutionResult]:
        """The cached execution for a planned query, if any.

        ``version`` is the catalog version the caller snapshotted *before*
        planning; a mutation racing the lookup makes this a miss (the
        invalidation pass above already dropped the affected entries).
        """
        if not self._result_cache.enabled:
            return None
        if self.fault_plan is not None \
                and self.fault_plan.fire(SITE_RESULT_CACHE_GET) is not None:
            # The cache is pure memoization, so a failed lookup degrades to
            # a miss (re-execute) instead of failing the query.
            self._result_get_degraded += 1
            return None
        self._invalidate_if_catalog_changed()
        if self.catalog.version != version:
            return None
        return self._result_cache.lookup(self._result_key(result))

    def store_result(self, result: "QueryResult", version: int) -> None:
        """Cache a finished execution unless the catalog moved under it.

        Mirrors the plan cache's store guard: a registration landing while
        the query ran means the result may reflect neither the old nor the
        new catalog consistently, so it is not kept.  The stored batch is
        frozen — every future hit shares it.
        """
        if not self._result_cache.enabled or result.execution is None:
            return
        if self.fault_plan is not None \
                and self.fault_plan.fire(SITE_RESULT_CACHE_PUT) is not None:
            # A failed store loses only the memoization, never the result.
            self._result_put_degraded += 1
            return
        if self.catalog.version != version:
            return
        tables = frozenset(rel.table_name.lower()
                           for rel in result.query.relations)
        self._result_cache.store(self._result_key(result),
                                 result.execution, tables)

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Hit/miss counters for the plan, sequence and result caches."""
        self._invalidate_if_catalog_changed()
        plans = self._plan_cache
        sequence = self.sequence_cache
        results = self._result_cache
        return CacheStats(
            plan_hits=plans.hits, plan_misses=plans.misses,
            plan_entries=len(plans),
            sequence_hits=sequence.hits if sequence else 0,
            sequence_misses=sequence.misses if sequence else 0,
            sequence_entries=len(sequence) if sequence else 0,
            plan_evictions=plans.evictions,
            result_hits=results.hits, result_misses=results.misses,
            result_entries=len(results),
            result_evictions=results.evictions,
            result_get_degraded=self._result_get_degraded,
            result_put_degraded=self._result_put_degraded,
            result_resident_bytes=results.resident_bytes)

    def clear_caches(self) -> None:
        """Drop all cached plans, sequences and results."""
        self._plan_cache.clear()
        self._result_cache.clear()
        self._result_epoch += 1
        self._catalog_version = self.catalog.version
        if self.sequence_cache is not None:
            self.sequence_cache.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("database is closed")

    def close(self) -> None:
        """Close the database deterministically (idempotent).

        Closes every still-open session (shutting their morsel worker
        pools down), drops the caches, and makes ``connect`` /
        ``optimize`` / ``execute_many`` raise
        :class:`~repro.errors.SessionClosedError` from now on.
        """
        if self._closed:
            return
        self._closed = True
        for session in list(self._sessions):
            session.close()
        self.clear_caches()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
