"""Tests for plan properties, plan-list pruning and Heuristic 7."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ColumnRef, Cost, PlanList, PlanNode
from repro.core.candidates import BloomFilterSpec
from repro.core.cardinality import BloomEstimate
from repro.core.properties import Distribution, DistributionKind, PlanProperties


def make_spec(filter_id, delta, selectivity=0.1):
    return BloomFilterSpec(
        filter_id=filter_id,
        apply_column=ColumnRef("big", "fk"),
        build_column=ColumnRef("small", "pk"),
        delta=frozenset(delta),
        estimate=BloomEstimate(selectivity=selectivity,
                               false_positive_rate=0.01, build_ndv=1000))


def make_plan(cost, rows, pending=(), distribution=None):
    properties = PlanProperties(
        distribution=distribution or Distribution.random(),
        pending_blooms=frozenset(pending))
    return PlanNode(rows=rows, cost=Cost(0.0, cost), properties=properties)


class TestDistribution:
    def test_hash_requires_keys(self):
        with pytest.raises(ValueError):
            Distribution(DistributionKind.HASH)
        with pytest.raises(ValueError):
            Distribution(DistributionKind.RANDOM, (ColumnRef("t", "a"),))

    def test_is_hashed_on(self):
        keys = (ColumnRef("t", "a"),)
        dist = Distribution.hashed(keys)
        assert dist.is_hashed_on(keys)
        assert not dist.is_hashed_on((ColumnRef("t", "b"),))
        assert not Distribution.random().is_hashed_on(keys)

    def test_signatures_differ(self):
        assert Distribution.random().signature() != Distribution.broadcast().signature()
        assert Distribution.hashed((ColumnRef("t", "a"),)).signature() != \
            Distribution.hashed((ColumnRef("t", "b"),)).signature()


class TestPlanProperties:
    def test_signature_includes_pending(self):
        spec = make_spec("bf1", {"small"})
        with_bloom = PlanProperties(pending_blooms=frozenset({spec}))
        without = PlanProperties()
        assert with_bloom.signature() != without.signature()
        assert with_bloom.has_pending_blooms
        assert not without.has_pending_blooms

    def test_with_helpers(self):
        props = PlanProperties()
        spec = make_spec("bf1", {"small"})
        assert props.with_pending({spec}).pending_blooms == frozenset({spec})
        assert props.with_distribution(Distribution.broadcast()).distribution == \
            Distribution.broadcast()


class TestPlanListPruning:
    def test_keeps_cheapest_same_properties(self):
        plan_list = PlanList()
        cheap = make_plan(cost=10, rows=100)
        expensive = make_plan(cost=20, rows=100)
        assert plan_list.add(cheap)
        assert not plan_list.add(expensive)
        assert plan_list.best() is cheap

    def test_replaces_dominated_plan(self):
        plan_list = PlanList()
        expensive = make_plan(cost=20, rows=100)
        cheap = make_plan(cost=10, rows=100)
        plan_list.add(expensive)
        plan_list.add(cheap)
        assert len(plan_list) == 1
        assert plan_list.best() is cheap

    def test_different_distribution_both_kept(self):
        plan_list = PlanList()
        plan_list.add(make_plan(cost=10, rows=100))
        plan_list.add(make_plan(cost=20, rows=100,
                                distribution=Distribution.broadcast()))
        assert len(plan_list) == 2

    def test_bloom_plan_with_fewer_rows_survives(self):
        plan_list = PlanList()
        plain = make_plan(cost=10, rows=1_000)
        bloom = make_plan(cost=12, rows=100, pending={make_spec("bf1", {"small"})})
        plan_list.add(plain)
        assert plan_list.add(bloom)
        assert len(plan_list) == 2

    def test_superset_delta_without_fewer_rows_pruned(self):
        """Section 3.5: more required relations but no fewer rows -> prune."""
        plan_list = PlanList()
        small_delta = make_plan(cost=10, rows=100,
                                pending={make_spec("bf1", {"small"})})
        big_delta = make_plan(cost=10, rows=100,
                              pending={make_spec("bf1", {"small"}),
                                       make_spec("bf2", {"small", "other"})})
        plan_list.add(small_delta)
        assert not plan_list.add(big_delta)

    def test_superset_delta_with_fewer_rows_kept(self):
        plan_list = PlanList()
        small_delta = make_plan(cost=10, rows=100,
                                pending={make_spec("bf1", {"small"})})
        big_delta = make_plan(cost=10, rows=10,
                              pending={make_spec("bf1", {"small"}),
                                       make_spec("bf2", {"small", "other"})})
        plan_list.add(small_delta)
        assert plan_list.add(big_delta)
        assert len(plan_list) == 2

    def test_best_prefers_complete_plans(self):
        plan_list = PlanList()
        bloom = make_plan(cost=1, rows=10, pending={make_spec("bf1", {"x"})})
        plain = make_plan(cost=100, rows=1_000)
        plan_list.add(bloom)
        plan_list.add(plain)
        assert plan_list.best() is plain
        assert plan_list.best_any() is bloom

    def test_empty_plan_list(self):
        plan_list = PlanList()
        assert plan_list.best() is None
        assert plan_list.best_any() is None


class TestHeuristic7:
    def test_caps_bloom_subplans(self):
        plan_list = PlanList()
        plan_list.add(make_plan(cost=5, rows=1_000))
        keeper = make_plan(cost=50, rows=10, pending={make_spec("bf0", {"a"})})
        plan_list.add(keeper)
        for i in range(1, 6):
            plan_list.add(make_plan(cost=10 + i, rows=100 + i,
                                    pending={make_spec("bf%d" % i, {"a", "x%d" % i})}))
        pruned = plan_list.apply_heuristic7(max_bloom_subplans=4)
        assert pruned > 0
        assert len(plan_list.bloom_plans()) == 1
        assert plan_list.bloom_plans()[0] is keeper
        assert len(plan_list.non_bloom_plans()) == 1

    def test_no_pruning_below_cap(self):
        plan_list = PlanList()
        plan_list.add(make_plan(cost=50, rows=10, pending={make_spec("bf0", {"a"})}))
        assert plan_list.apply_heuristic7(max_bloom_subplans=4) == 0


class _ReferencePlanList:
    """The plan list as it was before the scalar rule and the pre-check:
    node-to-node dominance over one flat list.  Kept as the oracle."""

    def __init__(self):
        self.plans = []

    @staticmethod
    def dominates(keeper, challenger):
        if keeper.properties.distribution.signature() != \
                challenger.properties.distribution.signature():
            return False
        keeper_pending = keeper.properties.pending_blooms
        challenger_pending = challenger.properties.pending_blooms
        if not keeper_pending <= challenger_pending:
            return False
        cheaper_or_equal = keeper.cost.total <= challenger.cost.total + 1e-9
        no_more_rows = keeper.rows <= challenger.rows + 1e-9
        if keeper_pending == challenger_pending:
            return cheaper_or_equal and no_more_rows
        return challenger.rows >= keeper.rows - 1e-9

    def add(self, plan):
        if any(self.dominates(existing, plan) for existing in self.plans):
            return False
        self.plans = [existing for existing in self.plans
                      if not self.dominates(plan, existing)]
        self.plans.append(plan)
        return True


_SPECS = [make_spec("bf%d" % i, {"small", "x%d" % i}) for i in range(3)]
_DISTRIBUTIONS = [Distribution.random(), Distribution.broadcast(),
                  Distribution.hashed((ColumnRef("t", "a"),)),
                  Distribution.hashed((ColumnRef("t", "b"),))]
#: Few distinct values (so candidates collide and dominate each other), some
#: of them a hair apart to sit on both sides of the rule's 1e-9 tolerance.
_MAGNITUDES = st.sampled_from([1.0, 1.0 + 5e-10, 1.0 + 2e-9, 2.0, 3.0, 5.0])
_CANDIDATES = st.lists(
    st.tuples(st.sampled_from(_DISTRIBUTIONS),
              st.sets(st.sampled_from(_SPECS)).map(frozenset),
              _MAGNITUDES, _MAGNITUDES),
    max_size=40)


class TestRejectsPreCheck:
    @given(_CANDIDATES)
    @settings(max_examples=200, deadline=None)
    def test_rejects_agrees_with_add_and_the_old_rule(self, candidates):
        """rejects(scalars) is true exactly when add(node) would refuse, and
        only building the nodes it lets through retains the same list as
        adding every node — which is what the old node-to-node rule kept."""
        add_everything = PlanList()
        pre_checked = PlanList()
        reference = _ReferencePlanList()
        for distribution, pending, cost, rows in candidates:
            plan = make_plan(cost, rows, pending, distribution)
            signature = distribution.signature()
            refused = add_everything.rejects(signature, pending, cost, rows)
            assert add_everything.add(plan) == (not refused)
            assert reference.add(plan) == (not refused)
            if not pre_checked.rejects(signature, pending, cost, rows):
                assert pre_checked.add(plan)
        assert [id(p) for p in pre_checked] == \
            [id(p) for p in add_everything] == [id(p) for p in reference.plans]

    def test_heuristic7_rebuilds_the_buckets_rejects_reads(self):
        plan_list = PlanList()
        plan_list.add(make_plan(cost=5, rows=1_000))
        for i, spec in enumerate(_SPECS):
            plan_list.add(make_plan(cost=10 + i, rows=100 - i, pending={spec}))
        signature = Distribution.random().signature()
        pruned_spec = frozenset({_SPECS[0]})
        assert plan_list.rejects(signature, pruned_spec, 50.0, 100.0)
        assert plan_list.apply_heuristic7(max_bloom_subplans=2) == 2
        # The δ={bf0} keeper is gone, so a costlier δ={bf0} plan is no longer
        # dominated by it (the plain plan still beats anything with >= rows).
        assert not plan_list.rejects(signature, pruned_spec, 50.0, 100.0)
        assert plan_list.rejects(signature, pruned_spec, 50.0, 1_000.0)
