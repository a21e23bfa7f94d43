"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

# Every plan any test produces through the Database/Session API runs the
# plan-contract verifier (repro.analysis.contracts).  Production keeps the
# knob off; the suite is where contract violations should surface first.
os.environ.setdefault("REPRO_VERIFY_PLANS", "1")

from repro.core import QueryBlock
from repro.experiments.running_example import build_catalog, build_query
from repro.storage import Catalog
from repro.tpch import TpchWorkload

#: Scale factor used by data-backed tests; small enough to keep the suite fast.
TEST_SCALE_FACTOR = 0.005


@pytest.fixture(scope="session")
def tpch_workload() -> TpchWorkload:
    """A small, materialised TPC-H workload shared by the whole session."""
    return TpchWorkload.generate(scale_factor=TEST_SCALE_FACTOR)


@pytest.fixture(scope="session")
def tpch_catalog(tpch_workload) -> Catalog:
    """The catalog behind the shared TPC-H workload."""
    return tpch_workload.catalog


@pytest.fixture()
def running_example_catalog() -> Catalog:
    """Statistics-only catalog for the Section 3 running example."""
    return build_catalog()


@pytest.fixture()
def running_example_query() -> QueryBlock:
    """The three-table running example query of Section 3."""
    return build_query()
