"""Experiment harnesses reproducing every table and figure of the paper.

``python -m repro.experiments.reproduce`` regenerates them all as one report,
``docs/reproduction.md``.
"""

from .delta_semantics import DeltaSemanticsResult, run_delta_semantics
from .enumeration_latency import (
    EnumerationLatencyResult,
    run_enumeration_latency,
)
from .naive_blowup import BlowupResult, run_naive_blowup
from .running_example import RunningExampleResult, run_running_example
from .tpch_suite import RUNS, SuiteResult, SuiteRow, run_tpch_suite

__all__ = [
    "BlowupResult",
    "DeltaSemanticsResult",
    "EnumerationLatencyResult",
    "RUNS",
    "RunningExampleResult",
    "SuiteResult",
    "SuiteRow",
    "run_delta_semantics",
    "run_enumeration_latency",
    "run_naive_blowup",
    "run_running_example",
    "run_tpch_suite",
]
