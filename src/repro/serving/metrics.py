"""Serving metrics: latency percentiles and request-outcome counters.

The serving tier's observability surface.  A :class:`LatencyRecorder` keeps a
bounded reservoir of per-request latencies and derives p50/p95/p99 on demand
(nearest-rank over the sorted sample — no numpy dependency, the recorder sits
on the request hot path).  :class:`ServingMetrics` aggregates one global
recorder, one per tenant, and the outcome counters
(admitted/rejected/completed/cancelled/failed/retried + result-cache hits),
snapshot via :meth:`ServingMetrics.snapshot` as plain frozen dataclasses
that benchmarks and tests read directly.

Everything here is thread-safe: worker threads record while the event loop
snapshots.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Latency samples kept per recorder; recording beyond the cap drops the
#: oldest sample (a sliding window, so long-running servers report recent
#: behaviour rather than boot-time history).
DEFAULT_RESERVOIR = 4096


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100]).

    The conventional serving-latency definition: the smallest sample such
    that at least ``q``% of the distribution is at or below it.  Raises
    ``ValueError`` on an empty sample set — a latency report over zero
    requests is a caller bug, not a zero.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile q must be in [0, 100], got %r" % q)
    ordered = sorted(samples)
    if q == 0.0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


@dataclass(frozen=True)
class LatencySnapshot:
    """Percentile summary of one recorder at one instant."""

    count: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready mapping (used by the benchmark artifacts)."""
        return {"count": self.count, "p50_ms": self.p50_ms,
                "p95_ms": self.p95_ms, "p99_ms": self.p99_ms,
                "max_ms": self.max_ms}


#: The all-zero snapshot reported before any request completed.
EMPTY_SNAPSHOT = LatencySnapshot(count=0, p50_ms=0.0, p95_ms=0.0,
                                 p99_ms=0.0, max_ms=0.0)


class LatencyRecorder:
    """Thread-safe sliding-window latency reservoir with percentiles."""

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR) -> None:
        if reservoir <= 0:
            raise ValueError("reservoir must be positive, got %r" % reservoir)
        self._reservoir = reservoir
        self._samples: List[float] = []
        self._count = 0
        self._lock = threading.Lock()

    def record(self, latency_ms: float) -> None:
        """Add one request latency (milliseconds)."""
        with self._lock:
            self._count += 1
            self._samples.append(latency_ms)
            if len(self._samples) > self._reservoir:
                del self._samples[:len(self._samples) - self._reservoir]

    @property
    def count(self) -> int:
        """Lifetime number of recorded requests (beyond the window)."""
        with self._lock:
            return self._count

    def snapshot(self) -> LatencySnapshot:
        """Percentiles over the current window (zeros when empty)."""
        with self._lock:
            samples = list(self._samples)
            count = self._count
        if not samples:
            return EMPTY_SNAPSHOT
        return LatencySnapshot(
            count=count,
            p50_ms=percentile(samples, 50),
            p95_ms=percentile(samples, 95),
            p99_ms=percentile(samples, 99),
            max_ms=max(samples))


@dataclass(frozen=True)
class ServingSnapshot:
    """One consistent view of the serving tier's counters and latencies."""

    admitted: int
    rejected: int
    completed: int
    cancelled: int
    failed: int
    result_cache_hits: int
    latency: LatencySnapshot
    tenants: Dict[str, LatencySnapshot]
    #: Transient-failure retries granted (each re-execution counts one).
    retries: int = 0
    #: Retries refused because the attempt cap or tenant budget was spent.
    retries_denied: int = 0

    @property
    def in_flight_or_queued(self) -> int:
        """Requests admitted but not yet finished at snapshot time."""
        return self.admitted - self.completed - self.cancelled - self.failed


class ServingMetrics:
    """Counters plus global and per-tenant latency recorders."""

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR) -> None:
        self._reservoir = reservoir
        self._latency = LatencyRecorder(reservoir)
        self._tenant_latency: Dict[str, LatencyRecorder] = {}
        self._counters = {"admitted": 0, "rejected": 0, "completed": 0,
                          "cancelled": 0, "failed": 0, "result_cache_hits": 0,
                          "retried": 0, "retry_denied": 0}
        self._lock = threading.Lock()

    def count(self, counter: str, delta: int = 1) -> None:
        """Bump one outcome counter (``KeyError`` on unknown names)."""
        with self._lock:
            if counter not in self._counters:
                raise KeyError("unknown serving counter %r" % counter)
            self._counters[counter] += delta

    def record_latency(self, tenant: str, latency_ms: float) -> None:
        """Record one completed request's latency, globally and per tenant."""
        self._latency.record(latency_ms)
        with self._lock:
            recorder = self._tenant_latency.get(tenant)
            if recorder is None:
                recorder = LatencyRecorder(self._reservoir)
                self._tenant_latency[tenant] = recorder
        recorder.record(latency_ms)

    def snapshot(self) -> ServingSnapshot:
        """Freeze counters and percentiles into one consistent view."""
        with self._lock:
            counters = dict(self._counters)
            tenants = dict(self._tenant_latency)
        return ServingSnapshot(
            admitted=counters["admitted"],
            rejected=counters["rejected"],
            completed=counters["completed"],
            cancelled=counters["cancelled"],
            failed=counters["failed"],
            result_cache_hits=counters["result_cache_hits"],
            retries=counters["retried"],
            retries_denied=counters["retry_denied"],
            latency=self._latency.snapshot(),
            tenants={name: recorder.snapshot()
                     for name, recorder in sorted(tenants.items())})


__all__ = ["DEFAULT_RESERVOIR", "EMPTY_SNAPSHOT", "LatencyRecorder",
           "LatencySnapshot", "ServingMetrics", "ServingSnapshot",
           "percentile"]
