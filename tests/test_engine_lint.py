"""Engine-invariant lint tests (:mod:`repro.analysis.lint`).

Each rule gets a negative test proving it fires on a minimal reproduction of
the bug class it guards against, a positive test proving idiomatic code stays
clean, and a suppression test proving ``# lint: allow(<rule>) — <reason>``
is honoured (and that reason-less or unknown-rule suppressions are findings
themselves).  The repo-wide test pins the acceptance criterion: the whole
``src/repro`` tree lints clean.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import lint_paths, lint_source


def findings_for(source: str, **kwargs) -> list:
    return lint_source(textwrap.dedent(source), "src/repro/core/x.py",
                       **kwargs)


def rules_of(findings) -> set:
    return {finding.rule for finding in findings}


# ---------------------------------------------------------------------------
# unordered-iteration
# ---------------------------------------------------------------------------


class TestUnorderedIteration:
    def test_for_loop_over_set_literal(self):
        findings = findings_for("""
            def f(xs: set) -> list:
                out = []
                for x in {1, 2, 3}:
                    out.append(x)
                return out
        """)
        assert rules_of(findings) == {"unordered-iteration"}

    def test_for_loop_over_pending_blooms(self):
        # The exact PR 5 bug class: plan choice fed by set iteration order.
        findings = findings_for("""
            def f(plan: object) -> list:
                picked = []
                for spec in plan.pending_blooms:
                    picked.append(spec)
                return picked
        """)
        assert rules_of(findings) == {"unordered-iteration"}

    def test_set_algebra_result_iteration(self):
        findings = findings_for("""
            def f(a: set, b: set) -> list:
                return [x for x in a.union(b)]
        """)
        assert rules_of(findings) == {"unordered-iteration"}

    def test_order_insensitive_reduction_is_clean(self):
        findings = findings_for("""
            def f(plan: object) -> bool:
                return any(spec.ready for spec in plan.pending_blooms)

            def g(plan: object) -> list:
                return sorted(spec.id for spec in plan.pending_blooms)
        """)
        assert findings == []

    def test_set_comprehension_is_clean(self):
        # A set built from a set: order never materialises.
        findings = findings_for("""
            def f(xs: set) -> set:
                return {x + 1 for x in xs}
        """)
        assert findings == []

    def test_list_iteration_is_clean(self):
        findings = findings_for("""
            def f(xs: list) -> list:
                return [x for x in xs]
        """)
        assert findings == []


# ---------------------------------------------------------------------------
# mask-accessor-bypass
# ---------------------------------------------------------------------------


class TestMaskAccessorBypass:
    def test_np_call_on_raw_column(self):
        findings = lint_source(textwrap.dedent("""
            import numpy as np

            def f(batch: object) -> float:
                return np.sum(batch.column("t.a"))
        """), "src/repro/executor/x.py")
        assert rules_of(findings) == {"mask-accessor-bypass"}

    def test_masked_access_is_clean(self):
        findings = lint_source(textwrap.dedent("""
            import numpy as np

            def f(batch: object) -> float:
                values, mask = batch.resolve_masked(ref)
                if mask is not None:
                    values = values[~mask]
                return np.sum(values)
        """), "src/repro/executor/x.py")
        assert findings == []

    def test_rule_is_scoped_to_executor(self):
        # Outside executor/ the accessor rule does not apply (the planner
        # has no batches); the same snippet is clean there.
        findings = findings_for("""
            import numpy as np

            def f(batch: object) -> float:
                return np.sum(batch.column("t.a"))
        """)
        assert findings == []

    def test_explicit_override(self):
        findings = findings_for("""
            import numpy as np

            def f(batch: object) -> float:
                return np.sum(batch.column("t.a"))
        """, executor_rules=True)
        assert rules_of(findings) == {"mask-accessor-bypass"}


# ---------------------------------------------------------------------------
# sentinel-fill
# ---------------------------------------------------------------------------


class TestSentinelFill:
    def test_np_full_with_negative_sentinel(self):
        findings = findings_for("""
            import numpy as np

            def f(n: int) -> object:
                return np.full(n, -1)
        """)
        assert rules_of(findings) == {"sentinel-fill"}

    def test_iinfo_min_sentinel(self):
        findings = findings_for("""
            import numpy as np

            def f(n: int) -> object:
                pad = np.empty(n)
                pad.fill(np.iinfo(np.int64).min)
                return pad
        """)
        assert rules_of(findings) == {"sentinel-fill"}

    def test_benign_fill_values_are_clean(self):
        findings = findings_for("""
            import numpy as np

            def f(n: int) -> object:
                zeros = np.full(n, 0)
                ones = np.full(n, 1.0)
                ones.fill(0)
                return zeros, ones
        """)
        assert findings == []


# ---------------------------------------------------------------------------
# worker-shared-mutation
# ---------------------------------------------------------------------------


class TestWorkerSharedMutation:
    def test_worker_storing_to_self(self):
        findings = findings_for("""
            class Executor:
                def run(self, pool: object, spans: list) -> list:
                    return list(pool.map(self.work, spans))

                def work(self, span: int) -> int:
                    self.last_span = span
                    return span
        """)
        assert rules_of(findings) == {"worker-shared-mutation"}

    def test_transitive_reachability(self):
        # The mutation hides one call deeper than the submitted callable.
        findings = findings_for("""
            class Executor:
                def run(self, pool: object, spans: list) -> list:
                    return [pool.submit(self.work, s) for s in spans]

                def work(self, span: int) -> int:
                    return self.helper(span)

                def helper(self, span: int) -> int:
                    self.count += 1
                    return span
        """)
        assert rules_of(findings) == {"worker-shared-mutation"}

    def test_module_global_store_from_worker(self):
        findings = findings_for("""
            COUNTER = 0

            def work(span: int) -> int:
                global COUNTER
                COUNTER += 1
                return span

            def run(pool: object, spans: list) -> list:
                return list(pool.map(work, spans))
        """)
        assert rules_of(findings) == {"worker-shared-mutation"}

    def test_per_morsel_state_is_clean(self):
        findings = findings_for("""
            class Executor:
                def run(self, pool: object, spans: list) -> list:
                    return list(pool.map(self.work, spans))

                def work(self, span: int) -> list:
                    local = []
                    local.append(span)
                    return local
        """)
        assert findings == []

    def test_thread_map_dispatch_is_covered(self):
        # The morsel-backend dispatcher counts as a worker entry point just
        # like bare pool.submit/map.
        findings = findings_for("""
            class Runtime:
                def run(self, pools: object, spans: list) -> list:
                    return pools.thread_map(self.work, spans, None, 4)

                def work(self, span: int) -> int:
                    self.hits += 1
                    return span
        """)
        assert rules_of(findings) == {"worker-shared-mutation"}

    def test_thread_map_keyword_dispatch_is_covered(self):
        # The callable passed by its parameter name is a worker entry point
        # as well.
        findings = findings_for("""
            class Runtime:
                def run(self, pools: object, spans: list) -> list:
                    return pools.thread_map(fn=self.work, items=spans,
                                            cancel=None, workers=4)

                def work(self, span: int) -> int:
                    self.hits += 1
                    return span
        """)
        assert rules_of(findings) == {"worker-shared-mutation"}

    @pytest.mark.parametrize("dispatch", [
        "self._segment_map(self.work, spans)",
        "self._segment_map(fn=self.work, items=spans)",
        "self._map_spans(spans, self.work)",
        "self._map_spans(spans, local=self.work)",
    ], ids=["_segment_map", "_segment_map-keyword", "_map_spans",
            "_map_spans-keyword"])
    def test_segment_map_dispatch_is_covered(self, dispatch):
        # The runtime's dispatchers hand their callable to workers too (the
        # span dispatcher takes it second), by position or by keyword, so a
        # mutation reachable from it is flagged.
        findings = findings_for("""
            class Runtime:
                def run(self, spans: list) -> list:
                    return %s

                def work(self, span: int) -> int:
                    self.hits += 1
                    return span
        """ % dispatch)
        assert rules_of(findings) == {"worker-shared-mutation"}

    def test_shared_attribute_store_outside_constructor(self):
        findings = findings_for("""
            class Batch:
                def __init__(self) -> None:
                    self._kernel_memo = {}

                def poke(self, key: object, value: object) -> None:
                    self._kernel_memo[key] = value
        """)
        assert rules_of(findings) == {"worker-shared-mutation"}
        # Exactly one finding: the __init__ store is construction, which
        # happens-before any sharing, and stays exempt.
        assert len(findings) == 1
        assert findings[0].line == 7


# ---------------------------------------------------------------------------
# untyped-def
# ---------------------------------------------------------------------------


class TestUntypedDefs:
    def test_missing_parameter_annotation(self):
        findings = findings_for("""
            def f(x) -> int:
                return x
        """)
        assert rules_of(findings) == {"untyped-def"}
        assert "x" in findings[0].message

    def test_missing_return_annotation(self):
        findings = findings_for("""
            def f(x: int):
                return x
        """)
        assert rules_of(findings) == {"untyped-def"}

    def test_fully_annotated_is_clean(self):
        findings = findings_for("""
            class C:
                def method(self, x: int) -> int:
                    return x

                @classmethod
                def make(cls, x: int) -> "C":
                    return cls()
        """)
        assert findings == []

    def test_rule_is_scoped_to_strict_packages(self):
        source = "def f(x):\n    return x\n"
        assert lint_source(source, "src/repro/storage/x.py") == []
        assert rules_of(lint_source(source, "src/repro/api/x.py")) \
            == {"untyped-def"}


# ---------------------------------------------------------------------------
# blocking-in-async
# ---------------------------------------------------------------------------


def serving_findings_for(source: str, **kwargs) -> list:
    return lint_source(textwrap.dedent(source), "src/repro/serving/x.py",
                       **kwargs)


class TestBlockingInAsync:
    def test_sync_execute_in_async_def(self):
        findings = serving_findings_for("""
            async def handle(session: object, sql: str) -> object:
                return session.execute(sql)
        """)
        assert rules_of(findings) == {"blocking-in-async"}

    def test_time_sleep_in_async_def(self):
        findings = serving_findings_for("""
            import time

            async def backoff() -> None:
                time.sleep(0.1)
        """)
        assert rules_of(findings) == {"blocking-in-async"}

    def test_future_result_in_async_def(self):
        findings = serving_findings_for("""
            async def wait(future: object) -> object:
                return future.result()
        """)
        assert rules_of(findings) == {"blocking-in-async"}

    def test_awaited_calls_are_clean(self):
        findings = serving_findings_for("""
            import asyncio

            async def handle(serving: object, sql: str) -> object:
                await asyncio.sleep(0)
                return await serving.execute_async(sql)
        """)
        assert findings == []

    def test_awaited_execute_is_clean(self):
        # ``await session.execute(...)`` on an async session is the
        # idiomatic call — only the un-awaited sync form blocks the loop.
        findings = serving_findings_for("""
            async def handle(session: object, sql: str) -> object:
                return await session.execute(sql)
        """)
        assert findings == []

    def test_nested_sync_def_runs_on_workers(self):
        # A sync def nested in a coroutine executes where it is called
        # (the worker pool), not on the event loop.
        findings = serving_findings_for("""
            async def handle(session: object, sql: str) -> object:
                def work() -> object:
                    return session.execute(sql)
                return work
        """)
        assert findings == []

    def test_rule_is_scoped_to_serving(self):
        # The sync API calling itself is fine outside serving/.
        findings = findings_for("""
            async def handle(session: object, sql: str) -> object:
                return session.execute(sql)
        """)
        assert findings == []

    def test_suppression_is_honoured(self):
        findings = serving_findings_for("""
            async def handle(session: object, sql: str) -> object:
                return session.execute(sql)  # lint: allow(blocking-in-async) — startup path, loop not running yet
        """)
        assert findings == []


# ---------------------------------------------------------------------------
# unaccounted-allocation
# ---------------------------------------------------------------------------


def spill_findings_for(source: str, **kwargs) -> list:
    return lint_source(textwrap.dedent(source),
                       "src/repro/executor/joins.py", **kwargs)


class TestUnaccountedAllocation:
    def test_data_sized_alloc_without_budget_parameter(self):
        findings = spill_findings_for("""
            import numpy as np

            def probe(keys: np.ndarray) -> np.ndarray:
                return np.zeros(keys.shape[0], dtype=np.int64)
        """)
        assert rules_of(findings) == {"unaccounted-allocation"}

    def test_alloc_under_budget_parameter_is_clean(self):
        findings = spill_findings_for("""
            import numpy as np

            def probe(keys: np.ndarray, budget: object) -> np.ndarray:
                return np.zeros(keys.shape[0], dtype=np.int64)
        """)
        assert findings == []

    def test_constant_size_alloc_is_exempt(self):
        findings = spill_findings_for("""
            import numpy as np

            def empty_result() -> np.ndarray:
                return np.zeros(0, dtype=np.int64)
        """)
        assert findings == []

    def test_rule_gated_to_spill_operator_modules(self):
        # The same data-sized allocation in a non-spill module is fine:
        # only operators with a degrade-to-spill path must account bytes.
        findings = findings_for("""
            import numpy as np

            def scratch(n: int) -> np.ndarray:
                return np.zeros(n, dtype=np.int64)
        """)
        assert findings == []

    def test_suppression_with_reason_is_honoured(self):
        findings = spill_findings_for("""
            import numpy as np

            def pad(n: int) -> np.ndarray:
                # lint: allow(unaccounted-allocation) — output-batch bytes,
                # charged by the executor per operator output
                return np.zeros(n, dtype=np.int64)
        """)
        assert findings == []


# ---------------------------------------------------------------------------
# broad-except-swallow
# ---------------------------------------------------------------------------


class TestBroadExceptSwallow:
    def test_bare_except_without_raise(self):
        findings = findings_for("""
            def f() -> int:
                try:
                    return g()
                except:
                    return 0
        """)
        assert rules_of(findings) == {"broad-except-swallow"}

    def test_base_exception_without_raise(self):
        findings = findings_for("""
            def f() -> int:
                try:
                    return g()
                except BaseException:
                    return 0
        """)
        assert rules_of(findings) == {"broad-except-swallow"}

    def test_base_exception_in_tuple_without_raise(self):
        findings = findings_for("""
            def f() -> int:
                try:
                    return g()
                except (ValueError, BaseException) as exc:
                    return 0
        """)
        assert rules_of(findings) == {"broad-except-swallow"}

    def test_cleanup_then_reraise_is_clean(self):
        findings = findings_for("""
            def f(resource: object) -> int:
                try:
                    return g()
                except BaseException:
                    resource.release()
                    raise
        """)
        assert findings == []

    def test_conditional_reraise_is_clean(self):
        # Any raise on any path counts: the rule is a swallow detector,
        # not a path-sensitive prover.
        findings = findings_for("""
            def f(strict: bool) -> int:
                try:
                    return g()
                except BaseException as exc:
                    if strict:
                        raise
                    return 0
        """)
        assert findings == []

    def test_raise_in_nested_def_does_not_count(self):
        findings = findings_for("""
            def f() -> object:
                try:
                    return g()
                except BaseException:
                    def reraise() -> None:
                        raise ValueError("later")
                    return reraise
        """)
        assert rules_of(findings) == {"broad-except-swallow"}

    def test_except_exception_is_legal(self):
        # `except Exception` already lets KeyboardInterrupt/SystemExit
        # through; the rule only guards the truly unbounded forms.
        findings = findings_for("""
            def f() -> int:
                try:
                    return g()
                except Exception:
                    return 0
        """)
        assert findings == []

    def test_suppression_is_honoured(self):
        findings = findings_for("""
            def f(future: object) -> None:
                try:
                    g()
                # lint: allow(broad-except-swallow) — error resolves the
                # caller's future instead of unwinding the worker thread
                except BaseException as exc:
                    future.set_exception(exc)
        """)
        assert findings == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_allow_with_reason_trailing(self):
        findings = findings_for("""
            def f(xs: set) -> list:
                out = []
                for x in xs.union(xs):  # lint: allow(unordered-iteration) — order feeds a set
                    out.append(x)
                return out
        """)
        assert findings == []

    def test_allow_with_reason_above(self):
        findings = findings_for("""
            def f(xs: set) -> list:
                out = []
                # lint: allow(unordered-iteration) — order cannot escape:
                # the caller sorts the result.
                for x in xs.union(xs):
                    out.append(x)
                return out
        """)
        assert findings == []

    def test_allow_without_reason_is_a_finding(self):
        findings = findings_for("""
            def f(xs: set) -> list:
                out = []
                for x in xs.union(xs):  # lint: allow(unordered-iteration)
                    out.append(x)
                return out
        """)
        assert rules_of(findings) == {"bad-suppression",
                                      "unordered-iteration"}

    def test_allow_naming_unknown_rule_is_a_finding(self):
        findings = findings_for("""
            x = 1  # lint: allow(no-such-rule) — because reasons
        """)
        assert rules_of(findings) == {"bad-suppression"}

    def test_docstring_mentioning_syntax_is_not_a_suppression(self):
        findings = findings_for('''
            def f() -> None:
                """Write '# lint: allow(<rule>) — <reason>' to suppress."""
        ''')
        assert findings == []

    def test_allow_does_not_leak_to_other_rules(self):
        findings = findings_for("""
            import numpy as np

            def f(n: int) -> object:
                # lint: allow(unordered-iteration) — wrong rule for this line
                return np.full(n, -1)
        """)
        assert rules_of(findings) == {"sentinel-fill"}


# ---------------------------------------------------------------------------
# The acceptance criterion: the whole tree lints clean
# ---------------------------------------------------------------------------


def test_repo_lints_clean():
    findings = lint_paths(["src/repro"])
    assert findings == [], "\n".join(
        "%s:%d: [%s] %s" % (f.path, f.line, f.rule, f.message)
        for f in findings)
