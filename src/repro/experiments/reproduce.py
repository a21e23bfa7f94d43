"""Regenerate every paper artefact this repository claims, as one report.

Run from the repository root; ``make reproduce`` writes the committed copy::

    PYTHONPATH=src python -m repro.experiments.reproduce > docs/reproduction.md

The command takes no flags.  It prints one markdown document: a summary
with one row per artefact — the paper's number, this engine's number, the
wall-clock reading behind it, whether BF-CBO changed the plan, and a
verdict — followed by the tables and plans the rows are read from.  The
TPC-H suite runs twice: executed at SF 0.01, and planned only at the
paper's SF100 statistics, which gives the planner latencies and the
paper-scale set of changed plans.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Iterable, List, Sequence

from ..textutil import format_table, percent_reduction
from ..tpch.queries import PLAN_CHANGED_QUERIES
from ..tpch.workload import TpchWorkload
from .delta_semantics import DeltaSemanticsResult, run_delta_semantics
from .naive_blowup import BlowupResult, run_naive_blowup
from .running_example import RunningExampleResult, run_running_example
from .tpch_suite import RUNS, SuiteResult, SuiteRow, run_tpch_suite

EXECUTED_SCALE_FACTOR = 0.01
PAPER_SCALE_FACTOR = 100.0

CAVEAT = (
    "The TPC-H query texts are simplified join blocks, not the benchmark's "
    "full queries (see the `repro.tpch.queries` docstring): nested "
    "sub-queries are replaced by joins or dropped, and select lists are "
    "trimmed.  *Model* numbers are the executor's deterministic work-unit "
    "latency.  The wall-clock column is a stopwatch reading (%s) and changes "
    "on every run.")

VERDICT_RULE = (
    "Verdicts: a percentage is *reproduced* within 5 points of the paper's, "
    "*direction only* with the same sign, and *not reproduced* otherwise.  A "
    "claim without a percentage is *reproduced* when it holds.  The "
    "changed-plan set is *direction only* when most of the paper's set "
    "changes here too.")


def verdict(paper: float, model: float) -> str:
    """Grade a signed percentage change against the paper's."""
    if abs(paper - model) <= 5.0:
        return "reproduced"
    if paper * model > 0:
        return "direction only"
    return "not reproduced"


def _holds(claim: bool) -> str:
    return "reproduced" if claim else "not reproduced"


def _pct(change: float) -> str:
    return "%+.1f %%" % (round(change, 1) + 0.0)  # + 0.0 turns -0.0 into 0.0


def _numbers(numbers: Iterable[int]) -> str:
    return "{%s}" % ", ".join(str(number) for number in sorted(numbers))


def _arrow(before: float, after: float, digits: int = 0) -> str:
    return "%.*f → %.*f" % (digits, before, digits, after)


def _yes(flag: bool, no: str = "no") -> str:
    return "yes" if flag else no


def _filters(row: SuiteRow) -> str:
    """Bloom filter counts of BF-Post / BF-CBO / BF-CBO+H7."""
    return "/".join(str(getattr(row, run).num_bloom_filters)
                    for run in RUNS[1:])


def _fenced(text: str) -> List[str]:
    return ["```text", text, "```", ""]


def _markdown_table(headers: Sequence[str],
                    rows: Sequence[Sequence[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines + [""]


def summary_rows(executed: SuiteResult, paper: SuiteResult,
                 example: RunningExampleResult, delta: DeltaSemanticsResult,
                 blowup: BlowupResult) -> List[List[str]]:
    """One row per artefact: paper, model, wall-clock ms, plan changed,
    verdict."""
    count = len(executed.rows)
    changed = "%d of %d" % (len(executed.plan_changed), count)
    h7_changed = "%d of %d" % (
        sum(row.changed("bf_cbo_h7") for row in executed.rows), count)
    rows = []
    for label, paper_change, baseline, improved, plans in (
            ("Table 2: BF-Post vs No-BF", -28.8, "no_bf", "bf_post", "—"),
            ("Table 2: BF-CBO vs No-BF", -52.2, "no_bf", "bf_cbo", changed),
            ("Table 2: BF-CBO vs BF-Post", -32.8, "bf_post", "bf_cbo",
             changed),
            ("Table 3: BF-CBO+H7 vs BF-Post", -31.4, "bf_post", "bf_cbo_h7",
             h7_changed)):
        model = -executed.reduction(baseline, improved)
        rows.append([label, _pct(paper_change), _pct(model),
                     _arrow(executed.wall_ms(baseline),
                            executed.wall_ms(improved)),
                     plans, verdict(paper_change, model)])

    worst = max(executed.rows,
                key=lambda row: -row.reduction("bf_post", "bf_cbo"))
    worst_change = -worst.reduction("bf_post", "bf_cbo")
    rows.append(["Fig 5: slowest query, BF-CBO vs BF-Post", "no query slower",
                 "%s %s" % (worst.query, _pct(worst_change)), "—", changed,
                 _holds(worst_change <= 5.0)])

    for label, number, paper_change, paper_text in (
            ("Fig 1: Q12, BF-CBO vs BF-Post", 12, -49.2,
             "%s, join inputs reversed" % _pct(-49.2)),
            ("Fig 6: Q7, BF-CBO vs BF-Post", 7, -83.7,
             "%s, 1 → 5 BFs" % _pct(-83.7))):
        row = executed.row(number)
        model = -row.reduction("bf_post", "bf_cbo")
        rows.append([label, paper_text,
                     "%s, %d → %d BFs" % (_pct(model),
                                          row.bf_post.num_bloom_filters,
                                          row.bf_cbo.num_bloom_filters),
                     _arrow(row.bf_post.execution.metrics.wall_time_seconds
                            * 1e3,
                            row.bf_cbo.execution.metrics.wall_time_seconds
                            * 1e3, 1),
                     _yes(row.changed()), verdict(paper_change, model)])

    for label, paper_change, baseline, improved in (
            ("Tables 2/3: planner, BF-CBO vs BF-Post", 112.6, "bf_post",
             "bf_cbo"),
            ("Table 3: planner, BF-CBO+H7 vs BF-CBO", -22.0, "bf_cbo",
             "bf_cbo_h7")):
        before, after = paper.planner_ms(baseline), paper.planner_ms(improved)
        model = -percent_reduction(before, after)
        rows.append(["%s (SF %g)" % (label, paper.scale_factor),
                     _pct(paper_change), _pct(model), _arrow(before, after),
                     "—", verdict(paper_change, model)])

    post_mae, cbo_mae = executed.mae("bf_post"), executed.mae("bf_cbo")
    model = -percent_reduction(post_mae, cbo_mae)
    rows.append(["§4.2: cardinality MAE, BF-CBO vs BF-Post", _pct(-78.8),
                 "%s (%.3g → %.3g)" % (_pct(model), post_mae, cbo_mae), "—",
                 changed, verdict(-78.8, model)])

    rows.append([
        "Fig 2/3: δ semantics", "larger δ, fewer rows; 3(b) illegal, 3(c) legal",
        "%.0f < %.0f rows; 3(b) %s, 3(c) %s" % (
            delta.rows_delta_r1_r2, delta.rows_delta_r1,
            "rejected" if delta.illegal_join_rejected else "allowed",
            "allowed" if delta.exception_join_allowed else "rejected"),
        "—", "—",
        _holds(delta.rows_delta_r1_r2 < delta.rows_delta_r1
               and delta.illegal_join_rejected
               and delta.exception_join_allowed)])

    post, cbo = example.bf_post, example.bf_cbo
    rows.append([
        "Fig 4: running example", "BF-CBO cheaper, with a BF",
        "cost %.4g → %.4g, %d → %d BFs" % (
            post.estimated_cost, cbo.estimated_cost,
            post.num_bloom_filters, cbo.num_bloom_filters),
        _arrow(post.planning_time_ms, cbo.planning_time_ms, 1),
        _yes(example.bf_post_join_order != example.bf_cbo_join_order),
        _holds(cbo.estimated_cost < post.estimated_cost
               and cbo.num_bloom_filters >= 1)])

    first, last = blowup.points[0], blowup.points[-1]
    growth = last.naive_seconds / max(first.naive_seconds, 1e-9)
    blows_up = (last.naive_subplans > 10 * first.naive_subplans
                and growth > 5
                and last.naive_subplans > 5 * last.two_phase_subplans)
    grade = "not reproduced"
    if blows_up:
        grade = "reproduced" if growth >= 2000 else "direction only"
    rows.append([
        "§3.1: naive blow-up, %d → %d tables" % (first.num_tables,
                                                 last.num_tables),
        "28 → 56 000 ms (×2000)",
        "%d → %d sub-plans (two-phase %d)" % (
            first.naive_subplans, last.naive_subplans,
            last.two_phase_subplans),
        "%s (×%.0f)" % (_arrow(first.naive_seconds * 1e3,
                               last.naive_seconds * 1e3), growth),
        "—", grade])

    model_set = paper.plan_changed
    agree = len(model_set & PLAN_CHANGED_QUERIES)
    if model_set == PLAN_CHANGED_QUERIES:
        grade = "reproduced"
    elif 2 * agree > len(PLAN_CHANGED_QUERIES):
        grade = "direction only"
    else:
        grade = "not reproduced"
    rows.append(["Plan-changed set (SF %g)" % paper.scale_factor,
                 _numbers(PLAN_CHANGED_QUERIES), _numbers(model_set), "—",
                 "SF %g: %s" % (executed.scale_factor,
                                _numbers(executed.plan_changed)),
                 grade])
    return rows


def _latency_table(suite: SuiteResult) -> str:
    headers = ["Q#", "BF-Post", "BF-CBO", "%down", "changed", "BF-CBO+H7",
               "%down", "changed", "BFs"]
    rows = [[row.query, "%.3f" % row.normalized("bf_post"),
             "%.3f" % row.normalized("bf_cbo"),
             "%.1f" % row.reduction("bf_post", "bf_cbo"),
             _yes(row.changed(), ""),
             "%.3f" % row.normalized("bf_cbo_h7"),
             "%.1f" % row.reduction("bf_post", "bf_cbo_h7"),
             _yes(row.changed("bf_cbo_h7"), ""), _filters(row)]
            for row in suite.rows]
    no_bf = suite.total("no_bf")
    rows.append(["total", "%.3f" % (suite.total("bf_post") / no_bf),
                 "%.3f" % (suite.total("bf_cbo") / no_bf),
                 "%.1f" % suite.reduction("bf_post", "bf_cbo"), "",
                 "%.3f" % (suite.total("bf_cbo_h7") / no_bf),
                 "%.1f" % suite.reduction("bf_post", "bf_cbo_h7"), "", ""])
    return format_table(headers, rows, title=(
        "Latency normalised to No-BF (work units); %down is against BF-Post;"
        " BFs = Bloom filters of BF-Post/BF-CBO/BF-CBO+H7"))


def _mae_table(suite: SuiteResult) -> str:
    rows = [[row.query, "%.1f" % row.mae("bf_post"), "%.1f" % row.mae("bf_cbo")]
            for row in suite.rows]
    rows.append(["mean", "%.1f" % suite.mae("bf_post"),
                 "%.1f" % suite.mae("bf_cbo")])
    text = format_table(["Q#", "BF-Post MAE", "BF-CBO MAE"], rows,
                        title="Cardinality estimation MAE (Section 4.2)")
    return text + "\nBF-CBO improvement: %.1f%%" % percent_reduction(
        suite.mae("bf_post"), suite.mae("bf_cbo"))


def _planner_table(suite: SuiteResult) -> str:
    headers = ["Q#", "No-BF", "BF-Post", "BF-CBO", "BF-CBO+H7", "BFs",
               "changed", "paper changed"]
    rows = [[row.query]
            + ["%.1f" % getattr(row, run).optimization.planning_time_ms
               for run in RUNS]
            + [_filters(row), _yes(row.changed(), ""),
               _yes(row.number in PLAN_CHANGED_QUERIES, "")]
            for row in suite.rows]
    rows.append(["total"] + ["%.1f" % suite.planner_ms(run) for run in RUNS]
                + ["", "", ""])
    return format_table(headers, rows, title=(
        "Cold planner latency (ms) at SF%g statistics" % suite.scale_factor))


def render_report(executed: SuiteResult, paper: SuiteResult,
                  example: RunningExampleResult, delta: DeltaSemanticsResult,
                  blowup: BlowupResult) -> str:
    """The whole report as markdown."""
    machine = "%s, %d CPUs, Python %s" % (
        platform.machine(), os.cpu_count() or 1, platform.python_version())
    scale = "SF %g" % executed.scale_factor
    lines = ["# Reproduction report", "",
             "Generated by `make reproduce` "
             "(`python -m repro.experiments.reproduce`); regenerate it "
             "rather than editing it.", "",
             CAVEAT % machine, "", VERDICT_RULE, "", "## Summary", ""]
    lines += _markdown_table(
        ["Artefact", "Paper", "Model", "Wall-clock ms", "Plan changed",
         "Verdict"],
        summary_rows(executed, paper, example, delta, blowup))
    lines += ["## Table 2, Figure 5 and Table 3: TPC-H at %s, executed"
              % scale, ""]
    lines += _fenced(_latency_table(executed))
    lines += ["## Section 4.2: cardinality estimation at %s" % scale, ""]
    lines += _fenced(_mae_table(executed))
    for title, number in (("Figure 1: Q12", 12), ("Figure 6: Q7", 7)):
        row = executed.row(number)
        lines += ["## %s at %s, executed" % (title, scale), ""]
        for label, run in (("BF-Post", row.bf_post), ("BF-CBO", row.bf_cbo)):
            lines += ["%s plan (%d Bloom filters):" % (label,
                                                      run.num_bloom_filters),
                      ""]
            lines += _fenced(run.explain())
        lines += ["Latency reduction of BF-CBO over BF-Post: %.1f %%."
                  % row.reduction("bf_post", "bf_cbo"), ""]
    lines += ["## Planner latency and changed plans at SF %g statistics"
              % paper.scale_factor, ""]
    lines += _fenced(_planner_table(paper))
    lines += ["## Figures 2 and 3: δ semantics", ""]
    lines += _fenced("\n".join([
        "|R0 ⋉̂ R1|        = %.0f rows" % delta.rows_delta_r1,
        "|R0 ⋉̂ (R1, R2)|  = %.0f rows" % delta.rows_delta_r1_r2,
        "Figure 3(b) illegal join rejected : %s"
        % delta.illegal_join_rejected,
        "Figure 3(c) exception join allowed: %s"
        % delta.exception_join_allowed]))
    lines += ["## Figure 4: the running example of Section 3", ""]
    lines += _fenced(example.to_text())
    lines += ["## Section 3.1: naive single-pass blow-up", ""]
    lines += _fenced(blowup.to_text())
    return "\n".join(lines)


def main() -> None:
    executed = run_tpch_suite(TpchWorkload.generate(EXECUTED_SCALE_FACTOR))
    paper = run_tpch_suite(TpchWorkload.statistics_only(PAPER_SCALE_FACTOR))
    sys.stdout.write(render_report(
        executed, paper, run_running_example(), run_delta_semantics(),
        run_naive_blowup(table_counts=[3, 4, 5], naive_budget_seconds=30.0)))


if __name__ == "__main__":
    main()
