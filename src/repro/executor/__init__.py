"""Vectorised execution engine with runtime metrics."""

from .aggregate import aggregate_batch
from .backend import EXECUTOR_BACKENDS, MorselPools, resolve_backend
from .batch import Batch
from .breaker import CircuitBreaker
from .cancel import CancelToken
from .context import (
    DEFAULT_MORSEL_SIZE,
    ExecutionContext,
    FilterScope,
)
from .joins import (
    combine_key_columns,
    cross_join,
    equi_join,
    join_indices,
    sort_search_join_indices,
    spill_equi_join,
)
from .keys import CompositeKeyIndex, FactorizedKeys
from .memory import (
    MemoryBudget,
    MemoryGovernor,
    MemoryStats,
    default_governor,
    reset_default_governor,
)
from .metrics import ExecutionMetrics, OperatorMetrics
from .runtime import ExecutionResult, Executor
from .shm import ArrayRef, ShmArena, attach_array, live_segment_names, \
    live_segment_stats, sweep_arenas
from .sort import combined_sort_key, parallel_sort_order, spill_sort_order

__all__ = [
    "ArrayRef",
    "Batch",
    "CancelToken",
    "CircuitBreaker",
    "CompositeKeyIndex",
    "DEFAULT_MORSEL_SIZE",
    "EXECUTOR_BACKENDS",
    "ExecutionContext",
    "ExecutionMetrics",
    "ExecutionResult",
    "Executor",
    "FactorizedKeys",
    "FilterScope",
    "MemoryBudget",
    "MemoryGovernor",
    "MemoryStats",
    "MorselPools",
    "OperatorMetrics",
    "ShmArena",
    "aggregate_batch",
    "attach_array",
    "combine_key_columns",
    "combined_sort_key",
    "cross_join",
    "default_governor",
    "equi_join",
    "join_indices",
    "live_segment_names",
    "live_segment_stats",
    "parallel_sort_order",
    "reset_default_governor",
    "resolve_backend",
    "sort_search_join_indices",
    "spill_equi_join",
    "spill_sort_order",
    "sweep_arenas",
]
