"""Shared fixtures for the benchmark harness.

Each benchmark module here is a gate: it measures one performance property
of the engine (planner latency, the NULL fast path, executor throughput,
serving latency, plan caching), asserts a bound on it, and records the
measured numbers in the benchmark's ``extra_info``.  Each measurement runs
once per session (``benchmark.pedantic`` with a single round).  The paper's
tables and figures are not regenerated here: ``python -m
repro.experiments.reproduce`` writes them to ``docs/reproduction.md``, and
``tests/test_experiments_and_naive.py`` asserts them.
"""

from __future__ import annotations

import pytest

from repro.tpch import TpchWorkload

#: Scale factor for executed benchmarks.
BENCH_SCALE_FACTOR = 0.01

#: Scale factor for planner-only benchmarks (paper statistics, no data).
PAPER_SCALE_FACTOR = 100.0


@pytest.fixture(scope="session")
def bench_workload() -> TpchWorkload:
    """Materialised TPC-H workload shared by all executed benchmarks."""
    return TpchWorkload.generate(scale_factor=BENCH_SCALE_FACTOR)


@pytest.fixture(scope="session")
def paper_stats_workload() -> TpchWorkload:
    """Statistics-only workload at the paper's SF100 cardinalities."""
    return TpchWorkload.statistics_only(scale_factor=PAPER_SCALE_FACTOR)
