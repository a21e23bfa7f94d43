"""The shared result cache: identical hot queries cost one execution.

Every execution in this engine is deterministic — parallelism is bit-identical
to serial and the simulated metrics are derived from actual row counts — so a
query's :class:`~repro.executor.runtime.ExecutionResult` is a pure function of
``(bound-query fingerprint, optimizer mode, plan-relevant settings, catalog
state)``.  The cache key is that tuple with the catalog state split by how it
changes: two sessions differing only in parallel knobs share one cached
result, and the key's catalog component is the database's *full-invalidation
epoch* — bumped on any out-of-band catalog mutation, so every older key
becomes unreachable even before ``evict_all`` runs.

Table **re-registration** deliberately does not bump the epoch: it rides
PR 3's per-table machinery instead.  Entries carry the set of tables the
query reads, and re-registering one table evicts exactly the dependent
entries (:meth:`ResultCache.evict_table`) while results over other tables
stay hot — the targeted-invalidation behaviour the serving benchmark gates
on.  Stored batches are frozen
(:meth:`~repro.executor.batch.Batch.freeze`) because a cached result is
shared by every future hit — a caller mutating its arrays would otherwise
corrupt every other caller's view.

The cache is owned by :class:`repro.api.Database` (``result_cache_size``
knob, counters in ``db.cache_stats()``) and consulted by both the sync
session path and the async serving tier.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional, Tuple

from ..cache import LruCache
from ..executor.runtime import ExecutionResult


class ResultCache:
    """Bounded LRU over finished executions with per-table invalidation.

    ``max_entries <= 0`` disables the cache: lookups miss, stores are
    discarded — callers never special-case it.  Thread-safe (the underlying
    :class:`~repro.cache.LruCache` locks internally), so any number of
    serving workers can share one instance.

    ``max_bytes`` bounds the cache by what actually occupies memory: every
    stored execution is weighted by its batch's resident bytes
    (:attr:`Batch.nbytes <repro.executor.batch.Batch.nbytes>`) and eviction
    drops least-recently-used entries until the *bytes* fit — a thousand
    tiny aggregates and three huge scans are charged what they really cost,
    not one entry each.  ``None`` keeps the entry-count-only bound.
    """

    def __init__(self, max_entries: int = 256,
                 max_bytes: Optional[int] = None) -> None:
        self._cache = LruCache(max_entries, max_bytes=max_bytes)

    @staticmethod
    def key(fingerprint: str, mode: object, settings: object,
            catalog_epoch: int) -> Tuple[Hashable, ...]:
        """The canonical result-cache key for one request.

        ``settings`` is the resolved planner settings, as the plan cache
        keys on them.  ``catalog_epoch`` is the owner's
        full-invalidation counter — bumped on out-of-band catalog changes
        (making all older keys unreachable), *not* on table registration,
        which invalidates via :meth:`evict_table` so unrelated entries
        stay hot.
        """
        return (fingerprint, mode, settings, catalog_epoch)

    @property
    def enabled(self) -> bool:
        """True when the cache stores anything at all."""
        return self._cache.max_entries > 0

    def __len__(self) -> int:
        return len(self._cache)

    # -- the serving path ---------------------------------------------------

    def lookup(self, key: Hashable) -> Optional[ExecutionResult]:
        """The cached execution for ``key`` (counting hit/miss), if any."""
        entry = self._cache.lookup(key)
        return entry[0] if entry is not None else None

    def store(self, key: Hashable, execution: ExecutionResult,
              tables: FrozenSet[str]) -> None:
        """Cache one finished execution, freezing its batch.

        ``tables`` is the lower-cased set of table names the query read —
        the per-table invalidation index.  Freezing happens on *store* so
        the very first caller already holds the same read-only view later
        hits receive (shared data has one mutability story, not two).
        """
        if not self.enabled:
            return
        execution.batch.freeze()
        self._cache.store(key, (execution, tables),
                          nbytes=execution.batch.nbytes)

    # -- invalidation -------------------------------------------------------

    def evict_table(self, table_name: str) -> int:
        """Drop exactly the entries whose query reads ``table_name``."""
        key = table_name.lower()
        return self._cache.evict_if(lambda _, entry: key in entry[1])

    def evict_all(self) -> int:
        """Drop every entry (out-of-band catalog change), keep counters."""
        return self._cache.evict_all()

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._cache.clear()

    # -- counters -----------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def evictions(self) -> int:
        """Entries dropped by invalidation (not LRU-capacity replacement)."""
        return self._cache.evictions

    @property
    def resident_bytes(self) -> int:
        """Batch bytes currently held by the cached executions."""
        return self._cache.resident_bytes


__all__ = ["ResultCache"]
