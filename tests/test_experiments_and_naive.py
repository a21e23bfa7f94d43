"""Tests for the experiment harnesses, the reproduction report and the naïve
baseline.

The TPC-H assertions run on two module-scoped suites — the whole workload
executed at the test scale factor, and planned at the paper's SF100
statistics — and are tight enough that a BF-CBO returning BF-Post's plans
fails them.
"""

from __future__ import annotations

import pytest

from repro.core import BfCboSettings, CostModel
from repro.core.cardinality import CardinalityEstimator
from repro.core.heuristics import scaled_settings
from repro.core.naive import NaiveBloomEnumerator
from repro.experiments import (
    RUNS,
    run_delta_semantics,
    run_naive_blowup,
    run_running_example,
    run_tpch_suite,
)
from repro.experiments.naive_blowup import build_chain_catalog, build_chain_query
from repro.experiments.reproduce import render_report, verdict
from repro.textutil import format_table, percent_reduction
from repro.tpch import ANALYZED_QUERIES, PLAN_CHANGED_QUERIES, TpchWorkload

PAPER_ONLY_CHANGE = ("paper changes the plan, BF-CBO keeps BF-Post's order "
                     "at SF100 statistics (ROADMAP A3)")

#: Queries whose SF100 changed-plan membership differs from the paper's.
PLAN_CHANGE_MISMATCHES = {
    2: "BF-CBO changes the plan, paper does not; the min-cost sub-query is "
       "dropped from the join block",
    9: PAPER_ONLY_CHANGE,
    12: PAPER_ONLY_CHANGE,
    16: PAPER_ONLY_CHANGE,
}


@pytest.fixture(scope="module")
def suite(tpch_workload):
    """Every analysed query executed once under each configuration."""
    return run_tpch_suite(tpch_workload)


@pytest.fixture(scope="module")
def paper_suite():
    """Every analysed query planned at the paper's SF100 statistics."""
    return run_tpch_suite(TpchWorkload.statistics_only(100.0))


@pytest.fixture(scope="module")
def blowup():
    """The Section 3.1 growth curve over chains of 3 to 5 tables."""
    return run_naive_blowup(table_counts=[3, 4, 5], naive_budget_seconds=30.0)


class TestReportHelpers:
    def test_percent_reduction(self):
        assert percent_reduction(100.0, 50.0) == pytest.approx(50.0)
        assert percent_reduction(0.0, 10.0) == 0.0

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2], [3, 4]], title="T")
        assert "T" in text and "bb" in text and "3" in text

    def test_scaled_settings(self):
        settings = scaled_settings(0.01)
        default = BfCboSettings.paper_defaults()
        assert settings.min_apply_rows < default.min_apply_rows
        assert settings.max_build_ndv < default.max_build_ndv
        full_scale = scaled_settings(100.0)
        assert full_scale.min_apply_rows == default.min_apply_rows

    def test_verdict(self):
        assert verdict(-28.8, -30.3) == "reproduced"
        assert verdict(-32.8, -7.2) == "direction only"
        assert verdict(-49.2, 0.0) == "not reproduced"


class TestRunningExampleExperiment:
    def test_walkthrough(self):
        result = run_running_example()
        assert set(result.candidates) == {"t1", "t3"}
        assert result.bf_cbo.num_bloom_filters >= 1
        assert result.bf_cbo.estimated_cost <= result.bf_post.estimated_cost * 1.001
        assert "Bloom" in result.to_text() or "BF" in result.to_text()


class TestTpchSuite:
    def test_rows_cover_workload(self, suite, tpch_workload):
        assert [row.number for row in suite.rows] == tpch_workload.query_numbers
        assert all(getattr(row, run).executed
                   for row in suite.rows for run in RUNS)

    def test_table2_totals(self, suite):
        assert suite.reduction("no_bf", "bf_post") > 0
        # Strict: a BF-CBO that kept BF-Post's plans would tie.
        assert suite.total("bf_cbo") < suite.total("bf_post")

    def test_table3_heuristic7_keeps_the_benefit(self, suite):
        assert suite.total("bf_cbo_h7") <= suite.total("no_bf")

    def test_figure5_series(self, suite):
        assert all(row.normalized("bf_cbo") > 0 for row in suite.rows)

    def test_cardinality_mae(self, suite):
        assert suite.mae("bf_cbo") < suite.mae("bf_post")

    def test_q12_case_study(self, suite):
        row = suite.row(12)
        assert row.bf_cbo.num_bloom_filters >= row.bf_post.num_bloom_filters
        assert row.bf_cbo.simulated_latency <= \
            row.bf_post.simulated_latency * 1.02
        assert "actual=" in row.bf_cbo.explain()

    def test_q7_case_study(self, suite):
        row = suite.row(7)
        # Figure 6: BF-CBO transfers the nation predicates through Bloom
        # filters that BF-Post's order cannot place.
        assert row.bf_cbo.num_bloom_filters > row.bf_post.num_bloom_filters
        assert row.bf_cbo.simulated_latency <= \
            row.bf_post.simulated_latency * 1.02


class TestPaperScaleSuite:
    def test_plan_only_runs(self, paper_suite):
        assert all(getattr(row, run).simulated_latency is None
                   for row in paper_suite.rows for run in RUNS)

    def test_planner_latency(self, paper_suite):
        assert paper_suite.planner_ms("bf_post") > 0
        # BF-CBO explores more sub-plans, so it should not plan faster.
        assert paper_suite.planner_ms("bf_cbo") >= \
            paper_suite.planner_ms("bf_post") * 0.8

    @pytest.mark.parametrize("number", [
        pytest.param(number, marks=pytest.mark.xfail(
            strict=True, reason=PLAN_CHANGE_MISMATCHES[number]))
        if number in PLAN_CHANGE_MISMATCHES else number
        for number in ANALYZED_QUERIES])
    def test_plan_changed_matches_paper(self, paper_suite, number):
        changed = number in paper_suite.plan_changed
        assert changed == (number in PLAN_CHANGED_QUERIES)


class TestReproductionReport:
    def test_one_summary_row_per_artefact(self, suite, paper_suite, blowup):
        report = render_report(suite, paper_suite, run_running_example(),
                               run_delta_semantics(), blowup)
        lines = report.splitlines()
        for artefact in ("Table 2: BF-Post vs No-BF", "Table 2: BF-CBO vs No-BF",
                         "Table 2: BF-CBO vs BF-Post", "Fig 5:",
                         "Table 3: BF-CBO+H7", "Fig 1:", "Fig 6:", "Fig 2/3:",
                         "Fig 4:", "§3.1:", "§4.2:", "Plan-changed set"):
            assert sum(line.startswith("| " + artefact)
                       for line in lines) == 1, artefact
        assert "simplified join blocks" in report


class TestNaiveBaseline:
    def test_naive_maintains_more_subplans_than_two_phase(self):
        catalog = build_chain_catalog(4)
        query = build_chain_query(4)
        estimator = CardinalityEstimator(catalog, query)
        settings = BfCboSettings.paper_defaults().with_overrides(min_apply_rows=1.0)
        naive = NaiveBloomEnumerator(catalog, query, estimator, CostModel(),
                                     settings, max_seconds=10.0)
        result = naive.run()
        assert result.subplans_maintained > 8
        assert result.combinations_evaluated > 0

    def test_naive_growth_with_tables(self, blowup):
        subplans = [p.naive_subplans for p in blowup.points]
        times = [p.naive_seconds for p in blowup.points]
        assert subplans[0] < subplans[1] < subplans[2]
        # Super-linear growth: each added table multiplies the maintained
        # sub-plans, and planning time follows.
        assert subplans[2] > subplans[0] * 10
        assert times[2] > times[0] * 5
        # The two-phase approach never carries unresolved sub-plans.
        last = blowup.points[-1]
        assert last.naive_subplans > last.two_phase_subplans * 5
        assert "two-phase" in blowup.to_text()

    def test_naive_budget_abort(self):
        catalog = build_chain_catalog(6)
        query = build_chain_query(6)
        estimator = CardinalityEstimator(catalog, query)
        settings = BfCboSettings.paper_defaults().with_overrides(min_apply_rows=1.0)
        naive = NaiveBloomEnumerator(catalog, query, estimator, CostModel(),
                                     settings, max_total_subplans=500,
                                     max_seconds=5.0)
        result = naive.run()
        assert result.budget_exceeded or result.subplans_maintained <= 2_000
