"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper (named in
the module's docstring).  The benchmarks run each experiment once per
session (``benchmark.pedantic`` with a single round) because the interesting
output is the reproduced table itself — printed to stdout and attached to the
benchmark's ``extra_info`` — rather than microsecond-level timing stability.
"""

from __future__ import annotations

import pytest

from repro.tpch import TpchWorkload

#: Scale factor for executed benchmarks (Table 2/3, Figure 5, MAE, case studies).
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
