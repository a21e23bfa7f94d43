"""Compare two result files written by ``e2e_run.py --out``.

    python3 benchmarks/e2e/e2e_compare.py out/parent.jsonl out/change.jsonl

Per workload and end-to-end metric: both medians, the change in the
direction that counts as worse, the bound fixed in ``e2e_config.py``, and a
verdict — ``ok``, ``regressed`` (B's median is worse than A's by more than
the bound, or B failed ops that A did not) or ``unresolved`` (either side's
own runs spread wider than the bound, or a side has fewer than two runs, so
the comparison cannot tell).  Exits 1 when anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

import e2e_config as config

#: workload -> metric -> one value per untraced run
Runs = Dict[str, Dict[str, List[float]]]


def load(path: str) -> Tuple[Runs, Dict[str, int]]:
    """The end-to-end values and failed-op counts of a result file."""
    runs: Runs = defaultdict(lambda: defaultdict(list))
    failed: Dict[str, int] = defaultdict(int)
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"]:
                continue
            failed[record["workload"]] += record["failed"]
            for name, metric in record["metrics"].items():
                runs[record["workload"]][name].append(metric["value"])
    return runs, failed


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str, bound: float,
            newly_failed: bool) -> Tuple[float, str]:
    """(relative change towards worse, verdict) of one metric."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = (median_b - median_a) / median_a
    if better == "higher":
        worse = -worse
    if newly_failed:
        return worse, "regressed"
    if min(len(a), len(b)) < 2 or max(spread(a), spread(b)) > bound:
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    (runs_a, failed_a), (runs_b, failed_b) = load(argv[0]), load(argv[1])
    regressed = False
    print("%-14s %-18s %12s %12s %8s %6s  %s"
          % ("workload", "metric", "A median", "B median", "worse", "bound",
             "verdict"))
    for workload in config.WORKLOADS:
        if workload not in runs_a or workload not in runs_b:
            continue
        newly_failed = failed_b[workload] > failed_a[workload]
        for name, _unit, better, bound in config.END_TO_END:
            a, b = runs_a[workload][name], runs_b[workload][name]
            worse, word = verdict(a, b, better, bound, newly_failed)
            regressed |= word == "regressed"
            print("%-14s %-18s %12.4f %12.4f %+7.1f%% %5.0f%%  %s (n=%d/%d)"
                  % (workload, name, statistics.median(a),
                     statistics.median(b), worse * 100, bound * 100, word,
                     len(a), len(b)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
