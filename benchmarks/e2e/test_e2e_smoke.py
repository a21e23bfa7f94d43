"""Smoke test of the repository benchmark (collected by the tier-1 suite).

Runs all five workloads, untraced and traced, at ``--scale tiny`` and checks
that ``BENCHMARK.json`` and the harness registry name the same things, that
every named metric is emitted, finite and carries its unit, that no op
fails — and that a spoiled reference does fail the run.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import e2e_config as config  # noqa: E402
from e2e_config import HERE, ROOT  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*arguments: str) -> subprocess.CompletedProcess:
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONPATH"}  # the harness finds src/ on its own
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "e2e_run.py"), *arguments],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_registry():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][-1] == "benchmarks/e2e/e2e_run.py"
    assert 1 <= spec["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        list(config.WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == config.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == config.PER_LAYER
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert len(spec["per_layer"]) <= 128


def test_tiny_run_emits_every_metric_and_fails_nothing(tmp_path):
    out = str(tmp_path / "runs.jsonl")
    done = _run("--workload", "all", "--scale", "tiny", "--seed", "3",
                "--out", out)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        records = [json.loads(line) for line in handle]
    by_run = {(r["workload"], r["trace"]): r for r in records}
    assert set(by_run) == {(w, t) for w in config.WORKLOADS for t in (0, 1)}
    for (workload, trace), record in by_run.items():
        assert record["correct"] and record["failed"] == 0, (workload, trace)
        assert record["attempted"] == len(record["samples_ms"]) >= 1
        assert {"commit", "python", "numpy", "nproc", "seed",
                "sizes"} <= set(record)
        expected = ({n: u for n, u, _b in config.PER_LAYER} if trace
                    else {n: u for n, u, _b, _bound in config.END_TO_END})
        assert set(record["metrics"]) == set(expected), (workload, trace)
        for name, metric in record["metrics"].items():
            assert metric["unit"] == expected[name]
            assert math.isfinite(metric["value"]), (workload, name)
            if not trace:
                assert metric["value"] > 0, (workload, name)

    def layer(workload: str, name: str) -> float:
        return by_run[(workload, 1)]["metrics"][name]["value"]

    # The layers read what their workload is built to make them read.
    assert layer("exec_hot", "executor.join_spills") == 0
    assert layer("exec_hot", "executor.spill_bytes_written") == 0
    assert layer("exec_hot", "executor.process_tasks") == 0
    assert layer("exec_spill", "executor.join_spills") > 0
    assert layer("exec_spill", "executor.spill_bytes_written") > 0
    assert layer("exec_hot", "api.plan_hit_rate") == 1.0
    assert layer("plan_cold", "api.plan_hit_rate") == 0.0
    assert layer("plan_cold", "core.join_pairs") > 0
    assert layer("serve_mixed", "serving.result_cache_hits") > 0
    assert layer("serve_mixed", "api.plan_evictions") > 0
    for workload in config.WORKLOADS:
        assert layer(workload, "trace.self_time_coverage") >= 0.9, workload


def test_a_spoiled_reference_fails_the_run():
    done = _run("--workload", "exec_hot", "--scale", "tiny", "--seed", "3",
                "--corrupt-reference")
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
