"""The five workloads.

Each workload is an object with the same four steps, driven by
``e2e_run.py``: ``setup()`` (inputs, database, references, warm-up — all of
it counted in ``setup_s``), ``region(seconds, recorder)`` (the timed closed
loop; returns the ops and the throughput chunks), ``layers(recorder, ...)``
(per-layer numbers of the traced run, may run extra untimed passes) and
``close()``.  ``--seed`` drives the TPC-H data, the op order, the ad-hoc
literals and the refresh contents; the engine sees only those inputs.

Every ``Database`` is built with ``verify_plans=False`` and
``fault_plan=None``, and ``e2e_run.py`` scrubs ``REPRO_*`` from the
environment first, so production defaults are what is measured.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis.contracts import PlanContractVerifier
from repro.api import Database
from repro.bloom import BloomFilter
from repro.core import (
    AggregateCall,
    AggregateFunction,
    BloomPostProcessor,
    CardinalityEstimator,
    ColumnRef,
    CostModel,
    OutputItem,
    TwoPhaseBloomOptimizer,
    mark_bloom_filter_candidates,
)
from repro.core.heuristics import BfCboSettings
from repro.core.optimizer import OptimizerMode
from repro.executor import Executor
from repro.executor.aggregate import aggregate_batch
from repro.executor.batch import Batch
from repro.executor.keys import CompositeKeyIndex
from repro.executor.sort import parallel_sort_order
from repro.experiments.enumeration_latency import (
    build_topology_catalog,
    build_topology_query,
)
from repro.serving import AsyncDatabase, TenantQuota, percentile
from repro.tpch import TpchWorkload
from repro.tpch.queries import QUERY_TEXTS, query_name

import e2e_checks as checks
import e2e_config as config
from e2e_spans import END, NAME, PARENT, START, Recorder

MODES = {mode.value: mode for mode in OptimizerMode}
#: Failures whose traceback is printed before the rest are only counted.
_SHOWN_FAILURES = 3


@dataclass
class Op:
    """One timed call: its class, latency and whether its check passed."""

    kind: str
    seconds: float
    ok: bool


#: (correct ops, wall seconds) of one throughput chunk.
Chunk = Tuple[int, float]


def nearest_rank(samples: List[float], q: float) -> float:
    """The engine's own nearest-rank percentile; 0.0 for no samples (a
    layer metric of a workload that never exercises the layer)."""
    return percentile(samples, q) if samples else 0.0


def mean(samples: List[float]) -> float:
    return statistics.fmean(samples) if samples else 0.0


def median(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0


class _Workload:
    """What the pass-based workloads share: op timing and the pass loop."""

    def __init__(self, seed: int, sizes: config.Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.spill_root = os.path.join(config.OUT_DIR,
                                       "spill-%d" % os.getpid())
        self.rng = np.random.default_rng(seed)
        self._requests = itertools.count()
        self._failures = 0
        #: Results of the most recent pass, by op kind (counters come from
        #: the engine's public stats on these).
        self.last_results: Dict[str, Any] = {}

    def report_failure(self, kind: str, why: str) -> None:
        self._failures += 1
        if self._failures <= _SHOWN_FAILURES:
            print("FAILED op %s: %s" % (kind, why), file=sys.stderr)

    def timed_op(self, kind: str, call: Callable[[], Any],
                 check: Callable[[Any], bool],
                 recorder: Optional[Recorder]) -> Op:
        """Time ``call``; the check runs after the clock stops."""
        root = None
        if recorder is not None:
            root = recorder.open_root("op." + kind,
                                      "r%d" % next(self._requests))
        started = time.perf_counter()
        try:
            result = call()
        except Exception:  # an op that raises is a failed op, not a crash
            result = None
            self.report_failure(kind, traceback.format_exc())
        seconds = time.perf_counter() - started
        if recorder is not None:
            recorder.close_root(root)
            recorder.adopt(None)
        ok = result is not None and check(result)
        if result is not None and not ok:
            self.report_failure(kind, "result differs from its reference")
        self.last_results[kind] = result
        return Op(kind, seconds, ok)

    def run_pass(self, recorder: Optional[Recorder]) -> List[Op]:
        raise NotImplementedError

    def region(self, seconds: float, recorder: Optional[Recorder],
               ) -> Tuple[List[Op], List[Chunk]]:
        """Whole passes until ``seconds`` have gone by; a chunk is a pass."""
        ops: List[Op] = []
        chunks: List[Chunk] = []
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            done = self.run_pass(recorder)
            chunks.append((sum(op.ok for op in done),
                           time.perf_counter() - pass_started))
            ops += done
            if time.perf_counter() - started >= seconds:
                return ops, chunks


def cache_counters(database: Database) -> Dict[str, float]:
    stats = database.cache_stats()
    return {name: float(getattr(stats, name)) for name in (
        "plan_hits", "plan_misses", "sequence_hits", "sequence_misses",
        "result_hits", "result_misses", "plan_evictions",
        "result_evictions")}


def cache_layers(before: Dict[str, float],
                 after: Dict[str, float]) -> Dict[str, float]:
    """Hit rates and evictions of the api layer between two snapshots."""
    delta = {name: after[name] - before[name] for name in after}

    def rate(kind: str) -> float:
        lookups = delta[kind + "_hits"] + delta[kind + "_misses"]
        return delta[kind + "_hits"] / lookups if lookups else 0.0

    return {"api.plan_hit_rate": rate("plan"),
            "api.sequence_hit_rate": rate("sequence"),
            "api.result_hit_rate": rate("result"),
            "api.plan_evictions": delta["plan_evictions"],
            "api.result_evictions": delta["result_evictions"]}


def front_end_layers(recorder: Recorder) -> Dict[str, float]:
    """sql and api span means shared by every workload."""
    overhead = [own for span, own in zip(recorder.spans, recorder.self_ms())
                if span[NAME] in ("api.execute", "api.plan")
                and span[PARENT] is not None]
    return {
        "sql.parse_ms": mean(recorder.durations_ms("sql.parse", rooted=True)),
        "sql.bind_ms": mean(recorder.durations_ms("sql.bind", rooted=True)),
        "api.plan_hit_ms": mean(recorder.durations_ms(
            "api.optimize", tag="plan_hit", rooted=True)),
        "api.overhead_ms": mean(overhead),
        "core.optimize_ms": mean(recorder.durations_ms("core.optimize",
                                                       rooted=True)),
        "executor.execute_ms": mean(recorder.durations_ms(
            "executor.execute", rooted=True)),
        "storage.register_table_ms": mean(recorder.durations_ms(
            "storage.register_table")),
    }


# ---------------------------------------------------------------------------
# plan_cold
# ---------------------------------------------------------------------------


@dataclass
class PlanOp:
    """One planning op of plan_cold."""

    session: Any
    query: Any                     # SQL text or QueryBlock
    mode: OptimizerMode
    check: Callable[[Any], bool]
    name: str
    #: Which ``core.<family>_ms`` the op's planning time adds to.
    family: str


class PlanCold(_Workload):
    """Cold planning of TPC-H SQL at SF100 statistics plus synthetic shapes."""

    def setup(self) -> None:
        self.golden = checks.golden_sections(config.GOLDEN_PLANS)
        uncached = dict(plan_cache_size=0, sequence_cache_size=0,
                        result_cache_size=0, verify_plans=False,
                        fault_plan=None)
        self.database = Database.from_tpch(100.0, statistics_only=True,
                                           **uncached)
        self.session = self.database.connect(history_limit=0)
        self.ops: Dict[str, PlanOp] = {}
        for label in ("bf-post", "bf-cbo"):
            for number in self.sizes.plan_queries:
                self.ops["tpch-%s-Q%d" % (label, number)] = PlanOp(
                    self.session, QUERY_TEXTS[number], MODES[label],
                    self._golden_check(query_name(number), label),
                    query_name(number), "tpch_" + label.replace("-", ""))
        self.synthetic: List[Database] = []
        for point in self.sizes.plan_synthetic:
            label, topology, size = point
            database = Database(build_topology_catalog(size, topology),
                                **uncached)
            self.synthetic.append(database)
            kind = "synth-%s-%s-%d" % point
            pin = config.SYNTHETIC_POINTS[point]
            self.ops[kind] = PlanOp(
                database.connect(history_limit=0),
                build_topology_query(size, topology), MODES[label],
                self._pinned_check(pin), kind,
                "synth_bfcbo" if label == "bf-cbo"
                else "synth_greedy" if pin[1] else "synth_exact")
        # Warm-up: every code path once, without paying a whole pass.
        cheap = [kind for kind in self.ops
                 if kind.startswith(("tpch-bf-post", "synth-bf-cbo-star"))]
        if not all(self._plan(kind, None).ok for kind in cheap):
            raise RuntimeError("plan_cold warm-up failed its checks")

    def _golden_check(self, name: str, label: str) -> Callable[[Any], bool]:
        expected = self.golden[(name, label)]
        return lambda result: (
            checks.render_section(result.optimization) == expected)

    @staticmethod
    def _pinned_check(pin: Tuple[int, str]) -> Callable[[Any], bool]:
        def check(result: Any) -> bool:
            stats = result.optimization.enumeration_stats
            return (stats.join_pairs_considered,
                    stats.fallback_reason) == pin
        return check

    def corrupt_reference(self) -> None:
        next(iter(self.ops.values())).check = lambda result: False

    def _plan(self, kind: str, recorder: Optional[Recorder]) -> Op:
        op = self.ops[kind]
        return self.timed_op(
            kind, lambda: op.session.plan(op.query, op.mode, name=op.name),
            op.check, recorder)

    def run_pass(self, recorder: Optional[Recorder]) -> List[Op]:
        kinds = list(self.ops)
        return [self._plan(kinds[i], recorder)
                for i in self.rng.permutation(len(kinds))]

    def counters(self) -> Dict[str, float]:
        return cache_counters(self.database)

    def close(self) -> None:
        for database in [self.database] + self.synthetic:
            database.close()

    # -- the traced run -----------------------------------------------------

    def layers(self, recorder: Recorder, before: Dict[str, float],
               after: Dict[str, float], passes: int) -> Dict[str, float]:
        out = front_end_layers(recorder)
        out.update(cache_layers(before, after))

        # Planning time per family and pass, from the optimizer's spans.
        family_ms: Dict[str, float] = {}
        for span in recorder.finished():
            if span[NAME] == "core.optimize" and span[PARENT] is not None:
                family = self.ops[recorder.root_name(span)[3:]].family
                family_ms[family] = (family_ms.get(family, 0.0)
                                     + (span[END] - span[START]) * 1e3)
        for family in ("tpch_bfpost", "tpch_bfcbo", "synth_exact",
                       "synth_greedy", "synth_bfcbo"):
            out["core.%s_ms" % family] = family_ms.get(family, 0.0) / passes
        if family_ms.get("tpch_bfpost"):
            out["core.bfcbo_over_bfpost"] = (family_ms["tpch_bfcbo"]
                                             / family_ms["tpch_bfpost"])

        # Exact counts of one pass, from the public result surfaces.
        counts = dict.fromkeys(
            ("join_pairs", "subplan_combinations", "plans_retained",
             "plans_rejected_bloom", "bloom_subplans_created",
             "bloom_subplans_retained", "deltas_total", "fallbacks",
             "bloom_filters_planned", "estimated_cost_sum"), 0.0)
        for kind in self.ops:
            optimization = self.last_results[kind].optimization
            stats = optimization.enumeration_stats
            counts["join_pairs"] += stats.join_pairs_considered
            counts["subplan_combinations"] += stats.subplan_combinations
            counts["plans_retained"] += stats.plans_retained
            counts["plans_rejected_bloom"] += \
                stats.plans_rejected_bloom_constraint
            counts["fallbacks"] += stats.fallback_engaged
            counts["bloom_filters_planned"] += optimization.num_bloom_filters
            counts["estimated_cost_sum"] += optimization.estimated_cost
            report = optimization.bfcbo_report
            if report is not None:
                counts["bloom_subplans_created"] += \
                    report.bloom_subplans_created
                counts["bloom_subplans_retained"] += \
                    report.bloom_subplans_retained
                if report.first_phase is not None:
                    counts["deltas_total"] += report.first_phase.total_deltas
        out.update(("core." + name, value) for name, value in counts.items())

        # One hand-wired pass through the optimizer's public steps for the
        # split of core.optimize_ms, and the verifier's cost per cold plan.
        split = dict.fromkeys(("setup", "candidates", "phase1",
                               "bloom_subplans", "dp", "postprocess"), 0.0)
        verify_ms = []
        for kind in self.ops:
            self._split_plan(kind, split)
            result = self.last_results[kind]
            started = time.perf_counter()
            PlanContractVerifier(self.ops[kind].session.catalog,
                                 result.query).verify(
                result.optimization.plan)
            verify_ms.append((time.perf_counter() - started) * 1e3)
        for step, seconds in split.items():
            out["core.%s_ms" % step] = seconds * 1e3 / len(self.ops)
        out["core.other_ms"] = out["core.optimize_ms"] - sum(
            out["core.%s_ms" % step] for step in split)
        out["analysis.verify_ms"] = mean(verify_ms)
        return out

    def _split_plan(self, kind: str, split: Dict[str, float]) -> None:
        """Plan ``kind`` once more through TwoPhaseBloomOptimizer's steps."""
        mode = self.ops[kind].mode
        query = self.last_results[kind].query
        database = self.ops[kind].session.database
        settings = database.resolve_settings(mode, None)
        clock = time.perf_counter

        t0 = clock()
        estimator = CardinalityEstimator(database.catalog, query)
        two_phase = TwoPhaseBloomOptimizer(
            database.catalog, query, estimator,
            CostModel(database.cost_parameters), settings)
        table = two_phase.enumerator.build_base_plan_table()
        t1 = clock()
        split["setup"] += t1 - t0
        if settings.enabled and len(query.relations) >= 2:
            candidates = mark_bloom_filter_candidates(
                query, estimator, settings, two_phase.join_graph)
            t2 = clock()
            first = two_phase.first_phase(candidates)
            t3 = clock()
            if not (settings.use_heuristic8
                    and first.total_join_input_rows
                    < settings.heuristic8_min_total_join_input):
                two_phase.cost_bloom_subplans(candidates, table)
            t4 = clock()
            split["candidates"] += t2 - t1
            split["phase1"] += t3 - t2
            split["bloom_subplans"] += t4 - t3
        t5 = clock()
        memo = two_phase.enumerator.optimize_table(table)
        best = memo.get(two_phase.join_graph.all_mask).best()
        t6 = clock()
        split["dp"] += t6 - t5
        if mode is not OptimizerMode.NO_BF:
            BloomPostProcessor(database.catalog, query, estimator,
                               BfCboSettings.paper_defaults()).process(best)
            split["postprocess"] += clock() - t6


# ---------------------------------------------------------------------------
# exec_hot / exec_parallel / exec_spill
# ---------------------------------------------------------------------------


class Exec(_Workload):
    """The 16 cached BF-CBO plans on one of three executor routes."""

    #: Session knobs of the measured route (none = serial, unlimited).
    route: Dict[str, object] = {}

    def setup(self) -> None:
        started = time.perf_counter()
        workload = TpchWorkload.generate(self.sizes.tpch_sf, seed=self.seed)
        self.datagen_s = time.perf_counter() - started
        self.database = Database(
            workload.catalog, scale_factor=self.sizes.tpch_sf,
            result_cache_size=0, verify_plans=False, fault_plan=None,
            spill_dir=self.spill_root)
        self.database.workload = workload
        self.blocks = {n: workload.query(n) for n in self.sizes.exec_queries}
        #: The reference route: NO_BF plans, serial, unlimited memory.
        self.serial = self.database.connect(history_limit=0)
        self.session = self.database.connect(history_limit=0, **self.route)
        self.references = {
            n: checks.canonical(self.serial.execute(
                block, OptimizerMode.NO_BF).execution.batch)
            for n, block in self.blocks.items()}
        if (self.seed, self.sizes.tpch_sf) == (
                config.DEFAULT_SEED, config.SCALES["full"].tpch_sf):
            counts = {n: len(self.references[n][1][0]) for n in self.blocks}
            if counts != config.PINNED_ROW_COUNTS:
                raise RuntimeError("row counts %r differ from the pinned %r"
                                   % (counts, config.PINNED_ROW_COUNTS))
        for block in self.blocks.values():
            self.session.plan(block, OptimizerMode.BF_CBO)
        if not all(op.ok for op in self.run_pass(None)):
            raise RuntimeError("warm-up pass failed its checks")

    def corrupt_reference(self) -> None:
        number = next(iter(self.references))
        names, columns = self.references[number]
        self.references[number] = (names + ["corrupted"], columns)

    def _execute(self, number: int, recorder: Optional[Recorder],
                 session: Any = None, mode: OptimizerMode = OptimizerMode.BF_CBO,
                 prefix: str = "") -> Op:
        session = session or self.session
        block = self.blocks[number]
        reference = self.references[number]
        return self.timed_op(
            "%sQ%d" % (prefix, number), lambda: session.execute(block, mode),
            lambda result: checks.same_result(
                checks.canonical(result.execution.batch), reference),
            recorder)

    def run_pass(self, recorder: Optional[Recorder]) -> List[Op]:
        numbers = list(self.blocks)
        return [self._execute(numbers[i], recorder)
                for i in self.rng.permutation(len(numbers))]

    #: ``executor_stats()`` counters reported as ``executor.<name>``.
    POOL_COUNTERS = ("morsel_tasks", "process_tasks", "shm_bytes_exported",
                     "shm_fallbacks", "pools_created", "worker_crashes",
                     "morsel_retries")
    MEMORY_COUNTERS = ("spill_bytes_written", "spill_chunks", "join_spills",
                       "aggregate_spills", "sort_spills",
                       "reservation_denials", "peak_reserved_bytes")
    #: Of those, the ones that are whole-run values, not per-pass deltas.
    WHOLE_RUN = ("pools_created", "peak_reserved_bytes")

    def executor_counters(self) -> Dict[str, float]:
        stats = self.session.executor_stats()
        out = {name: float(stats[name]) for name in self.POOL_COUNTERS}
        out["breaker_trips"] = float(stats["circuit_breaker"]["trips"])
        out.update((name, float(stats["memory"][name]))
                   for name in self.MEMORY_COUNTERS)
        return out

    def counters(self) -> Dict[str, float]:
        return {**cache_counters(self.database), **self.executor_counters()}

    def close(self) -> None:
        self.database.close()

    # -- the traced run -----------------------------------------------------

    def _route_wall(self, recorder: Recorder, prefix: str) -> float:
        """Summed executor time of one pass: per query, the fastest
        ``executor.execute`` span among the ops whose kind has ``prefix``."""
        best: Dict[str, float] = {}
        for span in recorder.finished():
            if span[NAME] != "executor.execute" or span[PARENT] is None:
                continue
            kind = recorder.root_name(span)[3:]
            if kind.startswith(prefix) and kind[len(prefix):].startswith("Q"):
                query = kind[len(prefix):]
                best[query] = min(best.get(query, float("inf")),
                                  span[END] - span[START])
        return sum(best.values())

    def layers(self, recorder: Recorder, before: Dict[str, float],
               after: Dict[str, float], passes: int) -> Dict[str, float]:
        out = front_end_layers(recorder)
        out.update(cache_layers(before, after))
        # Dispatch and memory counters of the traced region; the pool count
        # and the reservation high-water mark are whole-run values.
        for name in self.executor_counters():
            out["executor." + name] = (
                after[name] if name in self.WHOLE_RUN
                else after[name] - before[name])

        # Exact counts of one pass, from ExecutionMetrics.
        work = dict.fromkeys(("ScanNode", "JoinNode", "AggregateNode",
                              "SortNode"), 0.0)
        totals = dict.fromkeys(
            ("total_work_units", "rows_scanned", "rows_bloom_filtered",
             "bloom_probes", "rows_hash_built", "rows_hash_probed",
             "bloom_filters_built", "bloom_filters_applied"), 0.0)
        for number in self.blocks:
            metrics = self.last_results["Q%d" % number].execution.metrics
            for name in totals:
                totals[name] += getattr(metrics, name)
            for operator in metrics.operators.values():
                if operator.kind in work:
                    work[operator.kind] += operator.work_units
        out["executor.work_units"] = totals.pop("total_work_units")
        out.update(("executor." + name, value)
                   for name, value in totals.items())
        for kind, units in work.items():
            out["executor.work_units_" + kind[:-4].lower()] = units

        # Untimed comparison passes: the same plans on the reference route,
        # and the BF-Post and No-BF plans on the measured route (twice each;
        # the faster run of a query counts).
        for _ in range(2):
            for number in self.blocks:
                self._execute(number, recorder, self.serial, prefix="serial-")
                for mode in (OptimizerMode.BF_POST, OptimizerMode.NO_BF):
                    self._execute(number, recorder, mode=mode,
                                  prefix=mode.value + "-")
        wall = self._route_wall(recorder, "")
        serial = self._route_wall(recorder, "serial-")
        bf_post = self._route_wall(recorder, "bf-post-")
        out["executor.ns_per_work_unit"] = \
            wall * 1e9 / out["executor.work_units"]
        out["executor.bfcbo_over_bfpost_wall"] = wall / bf_post
        out["executor.bfcbo_over_nobf_wall"] = \
            wall / self._route_wall(recorder, "no-bf-")
        out["executor.bfcbo_over_bfpost_work"] = (
            out["executor.work_units"]
            / sum(self.last_results["bf-post-Q%d" % n].execution
                  .metrics.total_work_units for n in self.blocks))
        out["executor.parallel_speedup"] = serial / wall
        out["executor.spill_slowdown"] = wall / serial

        # The join tree alone against the whole plan, back to back on the
        # measured route; what the whole plan adds is finalization.
        join_ms, finalize_ms = [], []
        for number in self.blocks:
            planned = self.last_results["Q%d" % number].optimization
            walls = []
            for plan in (planned.join_plan, planned.plan):
                started = time.perf_counter()
                Executor(self.session.context).execute(plan)
                walls.append((time.perf_counter() - started) * 1e3)
            join_ms.append(walls[0])
            finalize_ms.append(walls[1] - walls[0])
        out["executor.join_tree_ms"] = mean(join_ms)
        out["executor.finalize_ms"] = mean(finalize_ms)

        out["tpch.datagen_s"] = self.datagen_s
        out["storage.resident_mb"] = resident_mb(self.database)
        out.update(kernel_layers(self.seed, self.sizes.kernel_rows))
        return out


class ExecParallel(Exec):
    route = config.PARALLEL_SESSION


class ExecSpill(Exec):
    route = config.SPILL_SESSION


def resident_mb(database: Database) -> float:
    catalog = database.catalog
    return sum(column.nbytes
               for name in catalog.table_names() if catalog.has_data(name)
               for column in catalog.table(name).to_dict().values()) / 2 ** 20


def kernel_layers(seed: int, rows: int) -> Dict[str, float]:
    """The executor's kernels called directly on seeded fixed-size arrays."""
    rng = np.random.default_rng(seed)
    build = rng.permutation(rows).astype(np.int64)
    probe = rng.integers(0, 2 * rows, rows)
    groups = rng.integers(0, 1024, rows)
    values = rng.random(rows)
    out: Dict[str, float] = {}

    def timed(name: str, call: Callable[[], Any]) -> Any:
        started = time.perf_counter()
        result = call()
        out[name] = (time.perf_counter() - started) * 1e3
        return result

    index = timed("executor.kernel_join_build_ms",
                  lambda: CompositeKeyIndex([build]))
    matched = timed("executor.kernel_join_probe_ms",
                    lambda: index.probe([probe]))
    if matched[0].shape[0] != int((probe < rows).sum()):
        raise RuntimeError("join kernel matched the wrong number of rows")
    batch = Batch({"t.g": groups, "t.v": values})
    items = [OutputItem(ColumnRef("t", "g"), "g"),
             OutputItem(AggregateCall(AggregateFunction.SUM,
                                      ColumnRef("t", "v")), "s")]
    grouped = timed("executor.kernel_aggregate_ms",
                    lambda: aggregate_batch(batch, [ColumnRef("t", "g")],
                                            items))
    if not np.isclose(grouped.column("s").sum(), values.sum(), rtol=1e-9):
        raise RuntimeError("aggregate kernel lost part of the sum")
    spans = [(start, min(start + 65_536, rows))
             for start in range(0, rows, 65_536)]
    order = timed("executor.kernel_sort_ms",
                  lambda: parallel_sort_order(probe, spans))
    if not np.array_equal(order, np.argsort(probe, kind="stable")):
        raise RuntimeError("sort kernel is not the stable ascending order")
    bloom = timed("bloom.build_ms", lambda: BloomFilter.from_values(build))
    hits = timed("bloom.probe_ms", lambda: bloom.contains_many(probe))
    present = probe < rows
    if not hits[present].all():
        raise RuntimeError("Bloom filter reported a false negative")
    out["bloom.measured_fpr"] = float(hits[~present].mean())
    return out


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

DIM_ROLLUP = ("select d.bucket, count(*) as n, sum(f.measure) as total "
              "from bench_facts f, bench_dim d where f.fk = d.dk "
              "group by d.bucket order by d.bucket")
ADHOC = ("select count(*) as n, sum(o_totalprice) as total "
         "from orders, customer where o_custkey = c_custkey "
         "and c_acctbal >= 0 and o_totalprice <= %.2f")
SLOW = ("select count(*) as n, sum(l_quantity) as total "
        "from customer, orders, lineitem where c_custkey = o_custkey "
        "and l_orderkey = o_orderkey and o_totalprice > %.2f")


@dataclass
class Request:
    """One generated serving request."""

    name: str
    kind: str                      # dash | adhoc | slow | etl
    tenant: str = ""
    sql: str = ""
    #: Computes the reference of a request whose answer does not depend on
    #: bench_dim; called when the request is verified, after the region.
    expected: Optional[Callable[[], checks.Canonical]] = None
    #: New bench_dim buckets of an etl request.
    buckets: Optional[np.ndarray] = None


class ServeMixed(_Workload):
    """Closed-loop clients on the async serving tier, checked afterwards."""

    def setup(self) -> None:
        sizes = self.sizes
        started = time.perf_counter()
        workload = TpchWorkload.generate(sizes.tpch_sf, seed=self.seed)
        self.datagen_s = time.perf_counter() - started
        self.database = Database(
            workload.catalog, scale_factor=sizes.tpch_sf,
            result_cache_size=config.RESULT_CACHE_SIZE, verify_plans=False,
            fault_plan=None, spill_dir=self.spill_root)
        self.facts_fk = self.rng.integers(0, sizes.dim_rows, sizes.facts_rows)
        self.facts_measure = np.round(
            self.rng.random(sizes.facts_rows) * 100.0, 2)
        self.database.register_table("bench_facts", {
            "fk": self.facts_fk, "measure": self.facts_measure})
        #: bench_dim versions: expected dim_rollup answer of each, how many
        #: refreshes have started and how many are visible.
        self.rollups: List[checks.Canonical] = []
        self.refresh_started = 0
        self.refresh_done = 0
        self.refresh(self._new_buckets())

        # The numpy side of the ad-hoc references: each order with whether
        # the customer join keeps it (adhoc additionally wants a customer
        # in credit), each lineitem row with its order's price and fate.
        catalog = workload.catalog
        customer, orders, lineitem = (catalog.table(name) for name in (
            "customer", "orders", "lineitem"))

        def lookup(keys: np.ndarray, wanted: np.ndarray,
                   ) -> Tuple[np.ndarray, np.ndarray]:
            """(row of ``keys`` holding each wanted key, whether it does)."""
            by_key = np.argsort(keys, kind="stable")
            at = by_key[np.minimum(np.searchsorted(keys[by_key], wanted),
                                   len(keys) - 1)]
            return at, keys[at] == wanted

        self.o_total = orders.column("o_totalprice")
        at, self.o_has_customer = lookup(customer.column("c_custkey"),
                                         orders.column("o_custkey"))
        self.o_in_credit = (self.o_has_customer
                            & (customer.column("c_acctbal")[at] >= 0))
        at, has_order = lookup(orders.column("o_orderkey"),
                               lineitem.column("l_orderkey"))
        self.l_kept = has_order & self.o_has_customer[at]
        self.l_order_total = self.o_total[at]
        self.l_quantity = lineitem.column("l_quantity")
        self.adhoc_base = float(np.quantile(self.o_total, 0.5))
        self.slow_base = float(np.quantile(self.o_total, 0.9))

        serial = self.database.connect(history_limit=0)
        #: (SQL text, what computes its reference; None = a bench_dim
        #: version decides) of the hot dashboard queries.
        self.hot: List[Tuple[str, Optional[Callable]]] = []
        for number in config.HOT_QUERIES:
            reference = checks.canonical(serial.execute(
                workload.query(number), OptimizerMode.NO_BF).execution.batch)
            self.hot.append((QUERY_TEXTS[number],
                             lambda reference=reference: reference))
        self.hot.append((DIM_ROLLUP, None))
        serial.close()
        self.requests = self._generate()
        self.serving = AsyncDatabase(
            self.database, workers=config.SERVE_WORKERS,
            quotas={"slow": TenantQuota(max_concurrency=1, weight=0.25)})
        ops, _chunks = self._run(0.0, sizes.serve_warmup, None)
        if not all(op.ok for op in ops):
            raise RuntimeError("serving warm-up failed its checks")

    def corrupt_reference(self) -> None:
        sql, expected = self.hot[0]
        names, columns = expected()
        self.hot[0] = (sql, lambda: (names + ["corrupted"], columns))

    # -- inputs -------------------------------------------------------------

    def _new_buckets(self) -> np.ndarray:
        return self.rng.integers(0, self.sizes.dim_buckets,
                                 self.sizes.dim_rows)

    def refresh(self, buckets: np.ndarray) -> None:
        """Register a new bench_dim (blocking; etl ops run it on a thread)."""
        of_fact = buckets[self.facts_fk]
        present = np.unique(of_fact)
        expected = checks.canonical_columns(
            ["bucket", "n", "total"],
            [present, np.bincount(of_fact)[present],
             np.bincount(of_fact, weights=self.facts_measure)[present]])
        self.rollups.append(expected)
        self.refresh_started += 1
        self.database.register_table(
            "bench_dim", {"dk": np.arange(len(buckets)), "bucket": buckets},
            primary_key=["dk"])
        self.refresh_done += 1

    def _generate(self) -> Iterator[Request]:
        """The endless seeded request list, one fixed-mix block at a time."""
        block = [kind for kind, count in config.SERVE_BLOCK
                 for _ in range(count)]
        serial = itertools.count()
        while True:
            dash = 0
            for position in self.rng.permutation(len(block)):
                kind = block[position]
                unique = next(serial)
                name = "%s-%d" % (kind, unique)
                if kind == "dash":
                    sql, expected = self.hot[dash % len(self.hot)]
                    yield Request(name, kind, "dash-%d" % (dash % 2), sql,
                                  expected)
                    dash += 1
                elif kind == "adhoc":
                    bound = float("%.2f" % (self.adhoc_base + unique * 0.01))
                    yield Request(
                        name, kind, "adhoc", ADHOC % bound,
                        lambda bound=bound: self._scalar_reference(
                            self.o_in_credit & (self.o_total <= bound),
                            self.o_total))
                elif kind == "slow":
                    bound = float("%.2f" % (self.slow_base + unique * 0.01))
                    yield Request(
                        name, kind, "slow", SLOW % bound,
                        lambda bound=bound: self._scalar_reference(
                            self.l_kept & (self.l_order_total > bound),
                            self.l_quantity))
                else:
                    yield Request(name, kind, buckets=self._new_buckets())

    @staticmethod
    def _scalar_reference(keep: np.ndarray,
                          summed: np.ndarray) -> checks.Canonical:
        return checks.canonical_columns(
            ["n", "total"], [np.array([keep.sum()]),
                             np.array([summed[keep].sum()], dtype=float)])

    # -- the closed loop ----------------------------------------------------

    def region(self, seconds: float, recorder: Optional[Recorder],
               ) -> Tuple[List[Op], List[Chunk]]:
        if recorder is not None:
            # Idle workers re-read AdmissionQueue.next once per 0.1 s poll;
            # wait until every one of them runs the traced version.
            time.sleep(0.25)
        return self._run(seconds, self.sizes.serve_min_requests, recorder)

    def _run(self, seconds: float, least: int, recorder: Optional[Recorder],
             ) -> Tuple[List[Op], List[Chunk]]:
        self.lags_ms: List[float] = []
        started = time.perf_counter()
        finished = asyncio.run(self._drive(seconds, least, recorder))
        self.region_wall = time.perf_counter() - started
        ops: List[Op] = []
        for done_at, kind, latency, verify in finished:
            ok = verify()
            if not ok:
                self.report_failure(kind, "result differs from its reference")
            ops.append(Op(kind, latency, ok))
        chunks: List[Chunk] = []
        size = config.SERVE_CHUNK
        for end in range(size, len(ops) + 1, size):
            since = finished[end - size - 1][0] if end > size else started
            chunks.append((sum(op.ok for op in ops[end - size:end]),
                           finished[end - 1][0] - since))
        if not chunks:
            chunks.append((sum(op.ok for op in ops), self.region_wall))
        return ops, chunks

    async def _drive(self, seconds: float, least: int,
                     recorder: Optional[Recorder]) -> list:
        """``SERVE_CLIENTS`` tasks pull requests until time and count are
        both used up; returns (done_at, kind, latency, verify) by finish."""
        deadline = time.perf_counter() + seconds
        issued = 0
        finished: list = []
        etl_lock = asyncio.Lock()

        async def client() -> None:
            nonlocal issued
            while issued < least or time.perf_counter() < deadline:
                issued += 1
                request = next(self.requests)
                finished.append(await self._one(request, recorder, etl_lock))

        async def watch_lag(interval: float = 0.005) -> None:
            loop = asyncio.get_running_loop()
            while True:
                due = loop.time() + interval
                await asyncio.sleep(interval)
                self.lags_ms.append((loop.time() - due) * 1e3)

        clients = [asyncio.create_task(client())
                   for _ in range(config.SERVE_CLIENTS)]
        watcher = asyncio.create_task(watch_lag()) if recorder else None
        try:
            await asyncio.gather(*clients)
        finally:
            if watcher is not None:
                watcher.cancel()
        return finished

    async def _one(self, request: Request, recorder: Optional[Recorder],
                   etl_lock: asyncio.Lock) -> tuple:
        root = None
        if recorder is not None:
            root = recorder.open_root("op." + request.kind, request.name)
        visible = self.refresh_done
        started = time.perf_counter()
        result = None
        try:
            if request.kind == "etl":
                async with etl_lock:  # one refresh at a time: versions order
                    await asyncio.get_running_loop().run_in_executor(
                        None, self._refresh_traced, request, recorder)
                result = True
            else:
                result = await self.serving.execute_async(
                    request.sql, tenant=request.tenant, name=request.name)
        except Exception:  # a failed or refused request is a failed op
            self.report_failure(request.kind, traceback.format_exc())
        done_at = time.perf_counter()
        if recorder is not None:
            recorder.close_root(root)
            # From the worker's last call returning to this task running
            # again: the future's trip back through the event loop.
            recorder.add("serving.handoff",
                         recorder.last_end.get(request.name, started),
                         done_at, request.name)
        return (done_at, request.kind, done_at - started,
                self._verifier(request, result, visible,
                               self.refresh_started))

    def _refresh_traced(self, request: Request,
                        recorder: Optional[Recorder]) -> None:
        if recorder is not None:
            recorder.adopt(request.name)
        self.refresh(request.buckets)

    def _verifier(self, request: Request, result: Any, visible: int,
                  started: int) -> Callable[[], bool]:
        """The deferred check of one finished request.

        A dim_rollup answer must be the roll-up of a bench_dim version that
        was current at some point of the request: not older than the last
        refresh finished before it was sent (a stale read), not newer than
        the last one started before it returned.
        """
        if result is None:
            return lambda: False
        if request.kind == "etl":
            return lambda: True
        batch = result.execution.batch  # not the result: it pins the DP memo
        versions = self.rollups[visible - 1:started]

        def verify() -> bool:
            accepted = ([request.expected()] if request.expected is not None
                        else versions)
            return any(checks.same_result(checks.canonical(batch), reference)
                       for reference in accepted)
        return verify

    def serving_counters(self) -> Dict[str, float]:
        snapshot = self.serving.snapshot()
        out = {name: float(getattr(snapshot, name)) for name in (
            "admitted", "rejected", "completed", "retries",
            "result_cache_hits")}
        out["memory_deferrals"] = float(self.serving.queue.memory_deferrals)
        return out

    def counters(self) -> Dict[str, float]:
        return {**cache_counters(self.database), **self.serving_counters()}

    def close(self) -> None:
        self.serving.close()
        self.database.close()

    # -- the traced run -----------------------------------------------------

    def layers(self, recorder: Recorder, before: Dict[str, float],
               after: Dict[str, float], passes: int) -> Dict[str, float]:
        out = front_end_layers(recorder)
        out.update(cache_layers(before, after))
        for name in self.serving_counters():
            out["serving." + name] = after[name] - before[name]
        waits = recorder.durations_ms("serving.queue_wait")
        out["serving.queue_wait_ms_p50"] = median(waits)
        out["serving.queue_wait_ms_p95"] = nearest_rank(waits, 95)
        service = recorder.durations_ms("api.execute", rooted=True)
        out["serving.service_ms_p50"] = median(service)
        out["serving.hit_ms_p50"] = median(recorder.durations_ms(
            "api.execute", tag="result_hit", rooted=True))
        out["serving.miss_ms_p50"] = median(recorder.durations_ms(
            "api.execute", tag="result_miss", rooted=True))
        for kind, _count in config.SERVE_BLOCK:
            out["serving.%s_ms_p50" % kind] = median(
                recorder.durations_ms("op." + kind))
        out["serving.worker_busy_frac"] = (
            sum(service) / 1e3 / (config.SERVE_WORKERS * self.region_wall))
        out["serving.loop_lag_ms_p95"] = nearest_rank(self.lags_ms, 95)
        out["tpch.datagen_s"] = self.datagen_s
        out["storage.resident_mb"] = resident_mb(self.database)
        return out


WORKLOADS: Dict[str, type] = {
    "plan_cold": PlanCold, "exec_hot": Exec,
    "exec_parallel": ExecParallel, "exec_spill": ExecSpill,
    "serve_mixed": ServeMixed,
}
