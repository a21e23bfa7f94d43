"""Plan-contract verifier tests (:mod:`repro.analysis.contracts`).

Each contract in the catalogue gets at least one hand-built malformed plan
proving the verifier fires and names the offending node, plus a clean-plan
test proving it stays silent on well-formed trees.  The golden corpus test
pins the headline acceptance criterion: every TPC-H plan the optimizer emits
under every configuration verifies with zero violations.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import (
    PlanContractVerifier,
    check_plan,
    verify_plan,
    verify_plans_default,
)
from repro.analysis.verify import verify_golden_corpus
from repro.core.candidates import BloomFilterSpec
from repro.core.cardinality import BloomEstimate
from repro.core.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
)
from repro.core.plans import (
    AggregateNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from repro.core.properties import PlanProperties
from repro.core.query import (
    BaseRelation,
    JoinClause,
    OrderItem,
    OutputItem,
    QueryBlock,
)
from repro.errors import PlanContractError, PlanningError, ReproError
from repro.storage import Catalog, FLOAT64, INT64, STRING, make_schema


@pytest.fixture()
def catalog() -> Catalog:
    """Two small tables covering every dtype/nullability case the tests need."""
    cat = Catalog()
    cat.register_schema(make_schema("t", [
        ("a", INT64), ("s", STRING), ("n", INT64, True)]))
    cat.register_schema(make_schema("u", [
        ("b", INT64), ("c", FLOAT64)]))
    cat.register_schema(make_schema("v", [("d", INT64)]))
    return cat


def scan(alias: str, table: str, rows: float = 100.0, **kwargs) -> ScanNode:
    return ScanNode(rows=rows, alias=alias, table_name=table, **kwargs)


def join(outer: PlanNode, inner: PlanNode, left: ColumnRef, right: ColumnRef,
         rows: float = 100.0, **kwargs) -> JoinNode:
    return JoinNode(rows=rows, outer=outer, inner=inner,
                    clauses=(JoinClause(left, right),), **kwargs)


def spec(filter_id: str = "bf1",
         apply_column: ColumnRef = ColumnRef("t", "a"),
         build_column: ColumnRef = ColumnRef("u", "b")) -> BloomFilterSpec:
    return BloomFilterSpec(
        filter_id=filter_id, apply_column=apply_column,
        build_column=build_column,
        delta=frozenset({build_column.relation}),
        estimate=BloomEstimate(selectivity=0.1, false_positive_rate=0.01,
                               build_ndv=1000.0))


def contracts_of(violations) -> set:
    return {violation.contract for violation in violations}


# ---------------------------------------------------------------------------
# Clean plans stay silent
# ---------------------------------------------------------------------------


class TestCleanPlans:
    def test_simple_join_plan_is_clean(self, catalog):
        plan = join(scan("t", "t"), scan("u", "u"),
                    ColumnRef("t", "a"), ColumnRef("u", "b"))
        assert check_plan(plan, catalog) == []

    def test_bloom_pair_is_clean(self, catalog):
        bf = spec()
        consumer = scan("t", "t", rows=10.0, bloom_filters=(bf,),
                        pre_bloom_rows=100.0)
        plan = join(consumer, scan("u", "u"),
                    ColumnRef("t", "a"), ColumnRef("u", "b"),
                    built_filters=(bf,))
        assert check_plan(plan, catalog) == []

    def test_verify_plan_passes_silently(self, catalog):
        verify_plan(join(scan("t", "t"), scan("u", "u"),
                         ColumnRef("t", "a"), ColumnRef("u", "b")), catalog)


# ---------------------------------------------------------------------------
# column-resolution
# ---------------------------------------------------------------------------


class TestColumnResolution:
    def test_dangling_scan_predicate(self, catalog):
        plan = scan("t", "t", predicates=(
            Comparison(ComparisonOp.EQ, ColumnRef("t", "nope"), Literal(1)),))
        violations = check_plan(plan, catalog)
        assert contracts_of(violations) == {"column-resolution"}
        assert "t.nope" in violations[0].message

    def test_unknown_table(self, catalog):
        violations = check_plan(scan("x", "missing"), catalog)
        assert contracts_of(violations) == {"column-resolution"}

    def test_dangling_join_key(self, catalog):
        plan = join(scan("t", "t"), scan("u", "u"),
                    ColumnRef("t", "a"), ColumnRef("u", "ghost"))
        violations = check_plan(plan, catalog)
        assert any(v.contract == "column-resolution"
                   and "u.ghost" in v.message for v in violations)

    def test_violation_names_offending_node(self, catalog):
        plan = join(scan("t", "t"),
                    scan("u", "u", predicates=(
                        Comparison(ComparisonOp.EQ, ColumnRef("u", "zzz"),
                                   Literal(0)),)),
                    ColumnRef("t", "a"), ColumnRef("u", "b"))
        (violation,) = check_plan(plan, catalog)
        assert "ScanNode(u)" in violation.node_path

    def test_foreign_column_in_scan_predicate(self, catalog):
        plan = scan("t", "t", predicates=(
            Comparison(ComparisonOp.EQ, ColumnRef("u", "b"), Literal(1)),))
        violations = check_plan(plan, catalog)
        assert any("foreign column" in v.message for v in violations)


# ---------------------------------------------------------------------------
# join-key-dtype
# ---------------------------------------------------------------------------


class TestJoinKeyDtype:
    def test_string_int_join_rejected(self, catalog):
        plan = join(scan("t", "t"), scan("u", "u"),
                    ColumnRef("t", "s"), ColumnRef("u", "b"))
        violations = check_plan(plan, catalog)
        assert contracts_of(violations) == {"join-key-dtype"}
        assert "incompatible" in violations[0].message

    def test_int_float_join_allowed(self, catalog):
        plan = join(scan("t", "t"), scan("u", "u"),
                    ColumnRef("t", "a"), ColumnRef("u", "c"))
        assert check_plan(plan, catalog) == []

    def test_both_keys_on_one_side(self, catalog):
        # Both clause columns resolve on the (t ⨝ u) probe side; nothing
        # binds the v build side, so the hash tables never line up.
        lower = join(scan("t", "t"), scan("u", "u"),
                     ColumnRef("t", "a"), ColumnRef("u", "b"))
        plan = join(lower, scan("v", "v"),
                    ColumnRef("t", "a"), ColumnRef("u", "b"))
        violations = check_plan(plan, catalog)
        assert any("both sides" in v.message for v in violations)


# ---------------------------------------------------------------------------
# bloom-barrier
# ---------------------------------------------------------------------------


class TestBloomBarrier:
    def test_consumer_without_producer(self, catalog):
        bf = spec()
        plan = join(scan("t", "t", bloom_filters=(bf,), pre_bloom_rows=100.0),
                    scan("u", "u"),
                    ColumnRef("t", "a"), ColumnRef("u", "b"))
        violations = check_plan(plan, catalog)
        assert contracts_of(violations) == {"bloom-barrier"}
        assert "no join builds it" in violations[0].message

    def test_consumer_on_build_side(self, catalog):
        # The consuming scan sits on the *inner* (build) side of its own
        # producer: the probe would run before the build completes.
        bf = spec(apply_column=ColumnRef("u", "b"),
                  build_column=ColumnRef("u", "b"))
        plan = join(scan("t", "t"),
                    scan("u", "u", rows=10.0, bloom_filters=(bf,),
                         pre_bloom_rows=100.0),
                    ColumnRef("t", "a"), ColumnRef("u", "b"),
                    built_filters=(bf,))
        violations = check_plan(plan, catalog)
        assert any("probe" in v.message and v.contract == "bloom-barrier"
                   for v in violations)

    def test_build_alias_not_on_inner_side(self, catalog):
        bf = spec(build_column=ColumnRef("t", "a"))  # t is the outer side
        consumer = scan("t", "t", rows=10.0, bloom_filters=(bf,),
                        pre_bloom_rows=100.0)
        plan = join(consumer, scan("u", "u"),
                    ColumnRef("t", "a"), ColumnRef("u", "b"),
                    built_filters=(bf,))
        violations = check_plan(plan, catalog)
        assert any("build (inner) side" in v.message for v in violations)

    def test_built_but_unconsumed(self, catalog):
        plan = join(scan("t", "t"), scan("u", "u"),
                    ColumnRef("t", "a"), ColumnRef("u", "b"),
                    built_filters=(spec(),))
        violations = check_plan(plan, catalog)
        assert any("no scan consumes it" in v.message for v in violations)

    def test_pending_blooms_at_root(self, catalog):
        node = scan("t", "t")
        node.properties = PlanProperties(
            pending_blooms=frozenset({spec()}))
        violations = check_plan(node, catalog)
        assert any("pending Bloom specs" in v.message for v in violations)


# ---------------------------------------------------------------------------
# hidden-sort-keys
# ---------------------------------------------------------------------------


def sorted_over_project(drop_keys, items=None, order=None) -> SortNode:
    base = scan("t", "t")
    project = ProjectNode(rows=100.0, child=base, items=tuple(
        items or (OutputItem(ColumnRef("t", "a"), "a"),
                  OutputItem(ColumnRef("t", "s"), "hidden"))))
    return SortNode(rows=100.0, child=project,
                    order_by=tuple(order
                                   or (OrderItem(ColumnRef("", "hidden")),)),
                    drop_keys=tuple(drop_keys))


class TestHiddenSortKeys:
    def test_carried_key_dropped_once_is_clean(self, catalog):
        assert check_plan(sorted_over_project(["hidden"]), catalog) == []

    def test_key_dropped_twice_in_one_sort(self, catalog):
        violations = check_plan(sorted_over_project(["hidden", "hidden"]),
                                catalog)
        assert any("dropped twice" in v.message for v in violations)

    def test_key_dropped_by_two_sorts(self, catalog):
        inner = sorted_over_project(["hidden"])
        outer = SortNode(rows=100.0, child=inner,
                         order_by=(OrderItem(ColumnRef("", "a")),),
                         drop_keys=("hidden",))
        query = QueryBlock(relations=[BaseRelation("t", "t")],
                           output=[OutputItem(ColumnRef("t", "a"), "a")])
        violations = check_plan(outer, catalog, query)
        # The second drop has nothing to drop, and the whole-plan check sees
        # the key dropped by two different sort nodes.
        assert any("already dropped, or never carried" in v.message
                   for v in violations)
        assert any("2 sort nodes" in v.message for v in violations)

    def test_drop_key_shadowing_visible_output(self, catalog):
        query = QueryBlock(relations=[BaseRelation("t", "t")],
                           output=[OutputItem(ColumnRef("t", "a"), "a"),
                                   OutputItem(ColumnRef("t", "s"), "hidden")])
        violations = check_plan(sorted_over_project(["hidden"]), catalog,
                                query)
        assert any("visible output column" in v.message for v in violations)

    def test_sort_key_resolution_is_tolerant(self, catalog):
        # Rewritten order items reference the bare output name — the verifier
        # must accept exactly what the executor's tolerant lookup accepts.
        plan = sorted_over_project(
            ["hidden"], order=(OrderItem(ColumnRef("", "hidden")),
                               OrderItem(ColumnRef("", "a"))))
        assert check_plan(plan, catalog) == []


# ---------------------------------------------------------------------------
# cardinality
# ---------------------------------------------------------------------------


class TestCardinality:
    def test_negative_rows(self, catalog):
        violations = check_plan(scan("t", "t", rows=-5.0), catalog)
        assert contracts_of(violations) == {"cardinality"}

    def test_bloom_scan_growing_rows(self, catalog):
        bf = spec()
        consumer = scan("t", "t", rows=500.0, bloom_filters=(bf,),
                        pre_bloom_rows=100.0)
        plan = join(consumer, scan("u", "u"),
                    ColumnRef("t", "a"), ColumnRef("u", "b"),
                    built_filters=(bf,))
        violations = check_plan(plan, catalog)
        assert any("grows its input" in v.message for v in violations)

    def test_limit_exceeding_bound(self, catalog):
        plan = LimitNode(rows=50.0, child=scan("t", "t", rows=100.0),
                         limit=10)
        violations = check_plan(plan, catalog)
        assert any("not monotone under selection" in v.message
                   for v in violations)

    def test_aggregate_exceeding_input(self, catalog):
        plan = AggregateNode(
            rows=1000.0, child=scan("t", "t", rows=100.0),
            group_by=(ColumnRef("t", "a"),),
            aggregates=(OutputItem(ColumnRef("t", "a"), "a"),))
        violations = check_plan(plan, catalog)
        assert any(v.contract == "cardinality" for v in violations)

    def test_row_preserving_operator_changing_rows(self, catalog):
        plan = SortNode(rows=7.0, child=scan("t", "t", rows=100.0),
                        order_by=(OrderItem(ColumnRef("t", "a")),))
        violations = check_plan(plan, catalog)
        assert any("row-preserving" in v.message for v in violations)


# ---------------------------------------------------------------------------
# mask-closure
# ---------------------------------------------------------------------------


class _UnregisteredOp(PlanNode):
    """A hypothetical operator nobody taught about null masks."""

    def __init__(self, child: PlanNode) -> None:
        super().__init__(rows=child.rows)
        self._child = child

    @property
    def children(self):
        return [self._child]


class TestMaskClosure:
    def test_unregistered_operator_over_nullable_input(self, catalog):
        violations = check_plan(_UnregisteredOp(scan("t", "t")), catalog)
        assert contracts_of(violations) == {"mask-closure"}
        assert "t.n" in violations[0].message  # names the maskable column

    def test_unregistered_operator_over_non_nullable_input(self, catalog):
        assert check_plan(_UnregisteredOp(scan("u", "u")), catalog) == []


# ---------------------------------------------------------------------------
# The typed error
# ---------------------------------------------------------------------------


class TestPlanContractError:
    def test_verify_raises_typed_error_with_violations(self, catalog):
        plan = scan("t", "t", predicates=(
            Comparison(ComparisonOp.EQ, ColumnRef("t", "nope"), Literal(1)),))
        with pytest.raises(PlanContractError) as excinfo:
            verify_plan(plan, catalog)
        error = excinfo.value
        assert isinstance(error, PlanningError)
        assert isinstance(error, ReproError)
        assert len(error.violations) == 1
        assert error.violations[0].contract == "column-resolution"
        assert "ScanNode" in str(error)

    def test_error_message_carries_query_name(self, catalog):
        query = QueryBlock(relations=[BaseRelation("t", "t")], name="Q99")
        plan = scan("t", "t", rows=-1.0)
        with pytest.raises(PlanContractError, match="Q99"):
            PlanContractVerifier(catalog, query).verify(plan)

    def test_check_is_reusable_and_side_effect_free(self, catalog):
        verifier = PlanContractVerifier(catalog)
        bad = scan("t", "t", rows=-1.0)
        good = scan("t", "t")
        assert verifier.check(bad)
        assert verifier.check(good) == []
        assert verifier.check(bad)  # state fully reset between plans


# ---------------------------------------------------------------------------
# Knob wiring
# ---------------------------------------------------------------------------


class TestKnobWiring:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
        assert verify_plans_default() is False
        for value in ("1", "true", "ON", "yes"):
            monkeypatch.setenv("REPRO_VERIFY_PLANS", value)
            assert verify_plans_default() is True
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
        assert verify_plans_default() is False

    def test_database_kwarg_overrides_env(self, monkeypatch, tpch_catalog):
        from repro.api import Database

        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        assert Database(tpch_catalog).verify_plans is True
        assert Database(tpch_catalog, verify_plans=False).verify_plans is False
        monkeypatch.delenv("REPRO_VERIFY_PLANS")
        assert Database(tpch_catalog).verify_plans is False
        assert Database(tpch_catalog, verify_plans=True).verify_plans is True

    def test_end_to_end_verified_execution(self, tpch_catalog):
        from repro.api import Database

        db = Database(tpch_catalog, verify_plans=True)
        result = db.connect().execute(
            "SELECT o_orderpriority FROM orders WHERE o_orderkey < 100")
        assert result.num_rows >= 0


# ---------------------------------------------------------------------------
# The acceptance criterion: the golden corpus verifies clean
# ---------------------------------------------------------------------------


def test_golden_corpus_verifies_clean():
    failures = verify_golden_corpus(scale_factor=100.0)
    assert failures == [], "\n".join(
        "%s/%s: %s" % failure for failure in failures)


def test_suite_runs_with_verification_on():
    # conftest.py exports REPRO_VERIFY_PLANS=1 so *every* plan produced by
    # any test in this suite is contract-checked, not just the ones here.
    assert os.environ.get("REPRO_VERIFY_PLANS") == "1"
