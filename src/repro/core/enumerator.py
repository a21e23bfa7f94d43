"""Bottom-up join enumeration (the DP at the heart of a System-R optimizer).

The enumerator builds, for every connected relation subset, a
:class:`~repro.core.planlist.PlanList` of retained sub-plans, by combining the
plan lists of every connected (outer, inner) split of that subset.  It is used
in three ways:

* plain cost-based optimization (no Bloom filter sub-plans in the base plan
  lists) — the "No BF" and "BF-Post" baselines;
* the *second* bottom-up phase of BF-CBO, where base plan lists additionally
  contain Bloom filter scan sub-plans and joins must respect the δ constraints
  of Section 3.6 (including the Figure 3 exception);
* structurally (``enumerate_join_pairs``) for the *first* bottom-up phase of
  BF-CBO, which only needs to observe which relation sets can appear on the
  build side of a join with each Bloom filter candidate.

Relation sets travel through the DP as integer bitmasks (see
:class:`~repro.core.joingraph.JoinGraph` for the alias↔bit mapping and the
DPccp connected-subgraph/complement generators).  The (csg, cmp) pairs are
collected per component, cross-product stitching joins disconnected components
in FROM order, and the whole sequence is sorted into the canonical bottom-up
order — union size, then FROM-order bit tuple, then split rank — so both
BF-CBO phases observe the identical pair sequence.  ``FrozenSet[str]`` appears
only at the public seams (:class:`JoinPair` fields, plan-list dict keys).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..cache import LruCache
from ..storage.catalog import Catalog
from .candidates import BloomFilterSpec
from .cardinality import CardinalityEstimator
from .cost import Cost, CostModel, CostPair, add_pair
from .expressions import ColumnRef, Predicate
from .greedy import greedy_unordered_pairs
from .heuristics import BfCboSettings
from .joingraph import JoinGraph
from .planlist import PlanList, PlanTable
from .plans import (
    ExchangeKind,
    ExchangeNode,
    JoinMethod,
    JoinNode,
    PlanNode,
    ScanNode,
)
from .properties import Distribution, PlanProperties
from .query import JoinClause, JoinType, QueryBlock, join_type_between

_FILTER_ID = attrgetter("filter_id")
_HASH, _MERGE, _LOOP = JoinMethod.HASH, JoinMethod.MERGE, JoinMethod.NESTED_LOOP
_BROADCAST, _REDISTRIBUTE = ExchangeKind.BROADCAST, ExchangeKind.REDISTRIBUTE
#: One physical variant of a join as the DP step prices it: (method,
#: (redistribute both sides?, output distribution, its signature), cost of
#: the two inputs, cost of the join's own work).
_Variant = Tuple[JoinMethod, Tuple[bool, Distribution, Tuple], CostPair, CostPair]


@dataclass(frozen=True)
class JoinPair:
    """One ordered (outer, inner) split of a relation set considered by DP.

    The frozenset fields are the public seam; the ``*_mask`` fields carry the
    same sets as bitmasks for mask-keyed consumers (0 when constructed
    directly without a graph, e.g. in experiments).
    """

    union: FrozenSet[str]
    outer: FrozenSet[str]
    inner: FrozenSet[str]
    clauses: Tuple[JoinClause, ...]
    is_cross_product: bool = False
    union_mask: int = 0
    outer_mask: int = 0
    inner_mask: int = 0


@dataclass
class EnumerationStatistics:
    """Counters describing the work done by one enumeration run."""

    join_pairs_considered: int = 0
    subplan_combinations: int = 0
    plans_retained: int = 0
    plans_rejected_bloom_constraint: int = 0
    heuristic7_pruned: int = 0
    #: Physical variants (join method x distribution strategy) priced as a
    #: float pair, and how many of them the plan list's pre-check let through
    #: to become plan nodes (docs/enumeration.md, "Cost before construct").
    variants_costed: int = 0
    variants_constructed: int = 0
    #: Ordered cross-product pairs considered while stitching disconnected
    #: components — like join_pairs_considered, this counts both orientations
    #: of each stitch step, so a query with k+1 components reports 2k.
    cross_products_stitched: int = 0
    #: Adaptive-planning telemetry (docs/enumeration.md): did the exact DPccp
    #: walk hit its pair budget, did the greedy fallback supply the pair
    #: sequence (and why: "budget" or "relations"), and how many merge steps
    #: the greedy join tree has.
    budget_exhausted: bool = False
    fallback_engaged: bool = False
    fallback_reason: str = ""
    greedy_merge_steps: int = 0


class EnumerationSequenceCache(LruCache):
    """Cross-query cache of canonical DPccp mask-triple sequences.

    The (union, outer, inner) triple sequence of the bottom-up walk is a pure
    function of the join graph's *shape*
    (:meth:`~repro.core.joingraph.JoinGraph.edge_signature`), not of its
    predicates or statistics.  Repeated workloads — the same query template
    with different constants, or different queries over the same join
    topology — therefore share one sequence: the first query pays for the
    DPccp walk, every later same-shape query skips it entirely.

    Keys are edge signatures; values are ``(sequence, emitted)`` pairs — the
    tuple of (union, outer, inner) mask triples plus the number of unordered
    pairs the walk emitted, so a consumer with a tighter
    ``enumeration_budget`` can reject a cached over-budget sequence instead
    of inheriting another session's unbounded DP.  A budget-aborted walk
    stores ``(None, emitted)``: the shape-pure fact "this shape emits more
    than ``emitted`` pairs", letting every later same-shape query under a
    budget ``<= emitted`` skip straight to the greedy fallback instead of
    re-paying the aborted walk.  Storage, LRU eviction, locking and the
    hit/miss counters feeding ``Database.cache_stats()`` come from
    :class:`repro.cache.LruCache`.
    """


class JoinEnumerator:
    """Bottom-up, bushy, property-aware join enumeration."""

    def __init__(self, catalog: Catalog, query: QueryBlock,
                 estimator: CardinalityEstimator, cost_model: CostModel,
                 settings: Optional[BfCboSettings] = None,
                 join_graph: Optional[JoinGraph] = None,
                 sequence_cache: Optional[EnumerationSequenceCache] = None) -> None:
        self.catalog = catalog
        self.query = query
        self.estimator = estimator
        self.cost_model = cost_model
        self.settings = settings or BfCboSettings.disabled()
        self.join_graph = join_graph or JoinGraph(query)
        self.stats = EnumerationStatistics()
        self._sequence_cache = sequence_cache
        self._row_widths: Dict[str, int] = {}
        self._pair_masks_cache: Optional[Sequence[Tuple[int, int, int]]] = None
        self._pair_cache: Optional[List[JoinPair]] = None
        # (id(child), kind, keys) -> ExchangeNode.  Exchange placement is a
        # pure function of its inputs and plan nodes are immutable during
        # planning, so every surviving join over the same input shares one
        # exchange node; the node value keeps its child alive, which keeps
        # the id() key stable.
        self._exchange_cache: Dict[Tuple[int, ExchangeKind, Tuple[ColumnRef, ...]],
                                   ExchangeNode] = {}

    # ------------------------------------------------------------------
    # Relation-set enumeration (shared by both BF-CBO phases)
    # ------------------------------------------------------------------

    def connected_subsets(self) -> List[FrozenSet[str]]:
        """All plannable relation subsets, ordered by increasing size.

        Derived from the pair walk itself: singletons plus the union of every
        (csg, cmp) pair.  On the exact path that is precisely the connected
        subsets of each component plus the cross-product-stitched prefix
        unions; under the greedy fallback it is the (much smaller) set of
        join-tree nodes the DP will actually populate.
        """
        graph = self.join_graph
        masks = {graph.mask_of_alias(alias) for alias in self.query.aliases}
        masks.update(union for union, _, _ in self._pair_masks())
        return [graph.aliases_of(mask)
                for mask in sorted(masks, key=self._union_order_key)]

    def enumerate_join_pairs(self) -> Iterator[JoinPair]:
        """Yield every ordered (outer, inner) split, bottom-up by union size.

        The first bottom-up phase of BF-CBO iterates exactly this sequence to
        populate Δ; the second phase iterates it again to build costed plans,
        so both phases observe the same join combinations.  The constructed
        pair sequence is cached — the second walk is free.
        """
        if self._pair_cache is None:
            self._pair_cache = self._build_pairs()
        return iter(self._pair_cache)

    def _build_pairs(self) -> List[JoinPair]:
        graph = self.join_graph
        aliases_of = graph.aliases_of
        clause_pairs = list(zip(self.query.join_clauses, graph.clause_bits))
        # clauses_between is symmetric: both orientations of a split share one
        # clause tuple, keyed by the unordered (mask, mask) pair.
        clause_cache: Dict[Tuple[int, int], Tuple[JoinClause, ...]] = {}
        cache_get = clause_cache.get
        pairs: List[JoinPair] = []
        append = pairs.append
        make_pair = JoinPair
        for union_mask, outer_mask, inner_mask in self._pair_masks():
            key = ((outer_mask, inner_mask) if outer_mask < inner_mask
                   else (inner_mask, outer_mask))
            clauses = cache_get(key)
            if clauses is None:
                clauses = tuple(
                    clause for clause, (left_bit, right_bit) in clause_pairs
                    if (left_bit & outer_mask and right_bit & inner_mask)
                    or (left_bit & inner_mask and right_bit & outer_mask))
                clause_cache[key] = clauses
            append(make_pair(aliases_of(union_mask), aliases_of(outer_mask),
                             aliases_of(inner_mask), clauses, not clauses,
                             union_mask, outer_mask, inner_mask))
        return pairs

    def _pair_masks(self) -> Sequence[Tuple[int, int, int]]:
        """The ordered (union, outer, inner) mask triples of the DP walk.

        Computed once per enumerator (the query is fixed): DPccp emits each
        unordered connected (csg, cmp) pair once per component, both
        orientations are kept, cross-product stitching appends the
        component-prefix unions, and everything is sorted into the canonical
        bottom-up order.  With a shared :class:`EnumerationSequenceCache` the
        whole walk is skipped for join graphs whose shape
        (:meth:`~repro.core.joingraph.JoinGraph.edge_signature`) was already
        enumerated by an earlier query.

        Two adaptive escape hatches bound the Θ(3^n) walk on large graphs
        (docs/enumeration.md): queries beyond
        ``settings.fallback_relation_threshold`` relations skip the walk
        entirely, and a walk that emits more than
        ``settings.enumeration_budget`` unordered pairs is abandoned
        mid-flight.  Both return the greedy (GOO / IKKBZ) join tree of
        :mod:`repro.core.greedy` instead, run through the identical canonical
        ordering so the DP downstream cannot tell the sources apart.
        """
        if self._pair_masks_cache is None:
            self._pair_masks_cache = self._compute_pair_masks()
        return self._pair_masks_cache

    def _compute_pair_masks(self) -> Tuple[Tuple[int, int, int], ...]:
        graph = self.join_graph
        threshold = self.settings.fallback_relation_threshold
        if 0 < threshold < graph.num_relations:
            return self._fallback_pair_masks("relations")
        budget = self.settings.enumeration_budget
        signature: Optional[Tuple] = None
        if self._sequence_cache is not None:
            signature = graph.edge_signature()
            cached = self._sequence_cache.lookup(signature)
            if cached is not None:
                sequence, emitted = cached
                # The cache stores the walk's unordered pair count (or, for
                # an aborted walk, its lower bound) alongside the sequence:
                # a shape enumerated by a roomier session must not smuggle an
                # over-budget DP into a session whose budget exists to bound
                # exactly that DP — and a shape known to exceed this budget
                # skips the walk entirely.  The check keeps plans a pure
                # function of (query, settings), not of cache history.
                if 0 < budget < emitted:
                    self.stats.budget_exhausted = True
                    return self._fallback_pair_masks("budget")
                if sequence is not None:
                    return sequence
                # Only a lower bound was cached and our budget exceeds it:
                # fall through and run the walk for real.
        emitted = 0
        unordered_by_union: Dict[int, List[Tuple[int, int]]] = {}
        for component in graph.component_masks():
            for csg, cmp_mask in graph.csg_cmp_pairs(component):
                emitted += 1
                if 0 < budget < emitted:
                    self.stats.budget_exhausted = True
                    if signature is not None:
                        self._sequence_cache.store(signature, (None, emitted))
                    return self._fallback_pair_masks("budget")
                unordered_by_union.setdefault(csg | cmp_mask, []).append(
                    (csg, cmp_mask))
        for union, prefix, component in self._stitch_steps():
            unordered_by_union[union] = [(prefix, component)]
        sequence = self._canonical_triples(unordered_by_union)
        if signature is not None:
            self._sequence_cache.store(signature, (sequence, emitted))
        return sequence

    def _fallback_pair_masks(self, reason: str) -> Tuple[Tuple[int, int, int], ...]:
        """Greedy join tree as canonical mask triples (budget/threshold path).

        The greedy ordering depends on the catalog's statistics, not just the
        graph shape, so fallback sequences are never stored in the shape-keyed
        sequence cache.
        """
        self.stats.fallback_engaged = True
        self.stats.fallback_reason = reason
        unordered = greedy_unordered_pairs(self.join_graph, self.estimator)
        self.stats.greedy_merge_steps = sum(len(splits)
                                            for splits in unordered.values())
        return self._canonical_triples(unordered)

    def _canonical_triples(self, unordered_by_union: Dict[int, List[Tuple[int, int]]],
                           ) -> Tuple[Tuple[int, int, int], ...]:
        """Sort unordered splits into the canonical bottom-up pair sequence."""
        graph = self.join_graph
        ordered_unions = sorted(unordered_by_union,
                                key=self._union_order_key)
        triples: List[Tuple[int, int, int]] = []
        for union in ordered_unions:
            # Rank a split by its outer side's bit pattern over the
            # union's alphabetically sorted members (the seed enumerator's
            # subset-mask iteration order).  Each unordered pair is ranked
            # once: the swapped orientation's rank is the complement.
            position_of = {graph.bit_of[alias]: position
                           for position, alias
                           in enumerate(sorted(graph.aliases_of(union)))}
            full_rank = (1 << len(position_of)) - 1
            ranked: List[Tuple[int, int, int]] = []
            for csg, cmp_mask in unordered_by_union[union]:
                rank = 0
                remaining = csg
                while remaining:
                    low = remaining & -remaining
                    rank |= 1 << position_of[low.bit_length() - 1]
                    remaining ^= low
                ranked.append((rank, csg, cmp_mask))
                ranked.append((full_rank ^ rank, cmp_mask, csg))
            ranked.sort()
            triples.extend((union, outer, inner)
                           for _, outer, inner in ranked)
        return tuple(triples)

    def _stitch_steps(self) -> List[Tuple[int, int, int]]:
        """Cross-product stitching plan for disconnected join graphs.

        Components (ordered by lowest FROM-order bit) are stitched
        incrementally: C1∪C2, C1∪C2∪C3, ... — giving every intermediate
        disconnected union an explicit cross-product split instead of leaving
        multi-component queries unplannable.  Returns one
        ``(union, prefix, newest component)`` triple per stitch step, the
        source the exact pair walk appends after the per-component DPccp
        pairs (:meth:`connected_subsets` sees them through the walk's unions).
        """
        components = self.join_graph.component_masks()
        steps: List[Tuple[int, int, int]] = []
        accumulated = components[0] if components else 0
        for component in components[1:]:
            steps.append((accumulated | component, accumulated, component))
            accumulated |= component
        return steps

    def _union_order_key(self, mask: int) -> Tuple[int, Tuple[int, ...]]:
        """Bottom-up union order: size first, then FROM-order combination rank."""
        bits = tuple(JoinGraph._bit_indices(mask))
        return len(bits), bits

    # ------------------------------------------------------------------
    # Base relation plan lists
    # ------------------------------------------------------------------

    def row_width(self, alias: str) -> int:
        """Approximate output row width for a base relation."""
        if alias not in self._row_widths:
            schema = self.catalog.schema(self.query.table_name(alias))
            self._row_widths[alias] = max(8, schema.row_width_bytes)
        return self._row_widths[alias]

    def make_seq_scan(self, alias: str) -> ScanNode:
        """Build and cost a plain sequential scan sub-plan for ``alias``."""
        predicates = tuple(self.query.predicates_for(alias))
        base_rows = self.estimator.base_rows(alias)
        rows = self.estimator.scan_rows(alias)
        width = self.row_width(alias)
        cost = self.cost_model.seq_scan(base_rows, width, len(predicates))
        return ScanNode(alias=alias, table_name=self.query.table_name(alias),
                        predicates=predicates, bloom_filters=(),
                        pre_bloom_rows=rows, rows=rows, cost=cost,
                        properties=PlanProperties(), row_width=width)

    def make_bloom_scan(self, alias: str,
                        specs: Sequence[BloomFilterSpec]) -> ScanNode:
        """Build and cost a Bloom filter scan sub-plan for ``alias``.

        The Bloom filters are applied on top of the plain scan: the scan still
        reads every base row and evaluates local predicates, then probes each
        Bloom filter for every surviving row (the paper's ``k * input rows``
        extra cost), producing the reduced, semi-join-sized output.
        """
        plain = self.make_seq_scan(alias)
        specs = tuple(specs)
        rows = self.estimator.bloom_scan_rows(alias,
                                              [s.estimate for s in specs])
        extra = self.cost_model.bloom_apply(plain.pre_bloom_rows, len(specs))
        properties = PlanProperties(distribution=plain.properties.distribution,
                                    pending_blooms=frozenset(specs))
        return ScanNode(alias=alias, table_name=plain.table_name,
                        predicates=plain.predicates, bloom_filters=specs,
                        pre_bloom_rows=plain.pre_bloom_rows, rows=rows,
                        cost=plain.cost + extra, properties=properties,
                        row_width=plain.row_width)

    def build_base_plan_table(self) -> PlanTable:
        """Plan lists for single relations (plain scans only), mask-keyed."""
        table = PlanTable()
        for alias in self.query.aliases:
            plan_list = PlanList()
            plan_list.add(self.make_seq_scan(alias))
            table.set(self.join_graph.mask_of_alias(alias), plan_list)
        return table

    def build_base_plan_lists(self) -> Dict[FrozenSet[str], PlanList]:
        """Plan lists for single relations, keyed by frozenset (public seam)."""
        return self.build_base_plan_table().to_alias_dict(self.join_graph)

    # ------------------------------------------------------------------
    # The DP itself
    # ------------------------------------------------------------------

    def optimize_table(self, base_table: Optional[PlanTable] = None) -> PlanTable:
        """Run the bottom-up DP over the mask-keyed memo and return it.

        The pairs arrive in canonical bottom-up order, so every pair reads
        only plan lists of strictly smaller unions, already complete.
        """
        table = base_table if base_table is not None \
            else self.build_base_plan_table()
        self._run_pairs(table, self.enumerate_join_pairs())
        return table

    def _run_pairs(self, table: PlanTable, pairs: Iterable[JoinPair]) -> None:
        """The DP loop: read sub-plans from ``table`` and write each union's
        list back into it."""
        for pair in pairs:
            self.stats.join_pairs_considered += 1
            if pair.is_cross_product:
                self.stats.cross_products_stitched += 1
            outer_list = table.get(pair.outer_mask)
            inner_list = table.get(pair.inner_mask)
            if outer_list and inner_list:
                self._dp_step(pair, outer_list, inner_list,
                              table.target(pair.union_mask))

    def _dp_step(self, pair: JoinPair, outer_list: PlanList,
                 inner_list: PlanList, target: PlanList) -> None:
        """One DP pair: every legal join of every sub-plan pair into
        ``target``, then Heuristic 7's cap on the target list."""
        self.stats.subplan_combinations += len(outer_list) * len(inner_list)
        join_type = self._join_type_for(pair)
        if join_type is not None:
            self._offer_joins(pair, join_type, outer_list, inner_list, target)
        if self.settings.use_heuristic7:
            self.stats.heuristic7_pruned += target.apply_heuristic7(
                self.settings.heuristic7_max_subplans)

    def _offer_joins(self, pair: JoinPair, join_type: JoinType,
                     outer_list: PlanList, inner_list: PlanList,
                     target: PlanList) -> None:
        """The body of the step: cost before construct (docs/enumeration.md).

        Whatever depends only on the pair, on the outer plan or on the inner
        plan is derived once at that level.  Each (join method x distribution
        strategy) variant is then priced as a ``(startup, total)`` float pair
        — the formulas, addition order and clamps of summing :class:`Cost`
        objects — and only a variant ``target.rejects`` lets through becomes
        a plan node.  Variants are offered hash, merge, nested loop; within a
        method broadcast-inner first, then redistribute-both.
        """
        stats = self.stats
        model = self.cost_model
        clauses = pair.clauses
        num_clauses = len(clauses)
        outer_cols, inner_cols = self._join_columns(pair)
        residuals = self._new_residuals(pair)
        base_rows = self.estimator.join_rows(pair.union)
        check_ndv = self.settings.enabled
        max_ndv = self.settings.max_build_ndv
        # The distribution strategies, as (redistribute?, output distribution,
        # its signature): broadcast the inner (build) side under the outer's
        # distribution, or — equi-joins only — hash-redistribute both sides
        # on the join columns.
        if clauses:
            hashed = Distribution.hashed(outer_cols)
            shuffle_both = (True, hashed, hashed.signature())

        # Once per inner plan.  Exchanges are priced here but built only
        # under a surviving join (_exchange shares them from then on).
        inner_sides = []
        for plan in inner_list:
            pending = plan.pending_blooms
            delta_union = {alias for spec in pending for alias in spec.delta}
            rows = plan.rows
            reshuffle, shuffled_cost = self._priced_shuffle(plan, inner_cols)
            inner_sides.append((
                plan, plan.relations, pending, delta_union,
                self._output_rows(base_rows, pending), rows,
                add_pair(plan.cost.pair(),
                         model.broadcast_pair(rows, plan.row_width)),
                reshuffle, shuffled_cost, model.sort_pair(rows)))

        costed = built = 0
        for outer in outer_list:
            # Once per outer plan.  Sorted by filter id: the resolved specs
            # become the join's built_filters tuple, and frozenset iteration
            # order varies with the per-process string hash seed.
            outer_specs = sorted(outer.pending_blooms, key=_FILTER_ID)
            outer_rows = outer.rows
            outer_cost = outer.cost.pair()
            outer_dist = outer.properties.distribution
            broadcast_inner = (False, outer_dist, outer_dist.signature())
            outer_reshuffle, outer_shuffled_cost = self._priced_shuffle(
                outer, outer_cols)
            outer_sort = model.sort_pair(outer_rows)

            for (inner, inner_relations, inner_pending, inner_delta_union,
                 inner_only_rows, inner_rows, broadcast_cost, inner_reshuffle,
                 shuffled_cost, inner_sort) in inner_sides:
                # δ-consistency (Section 3.6): an outer-side pending filter
                # is resolved when its whole δ is on the inner side — or, the
                # Figure 3(c) exception, when the inner side's own pending
                # filters cover what is missing — carried along when δ and
                # the inner side are disjoint, and illegal otherwise.
                resolved: List[BloomFilterSpec] = []
                pending, rows = inner_pending, inner_only_rows
                if outer_specs:
                    carried = []
                    legal = True
                    for spec in outer_specs:
                        delta = spec.delta
                        if delta <= inner_relations:
                            resolved.append(spec)
                        elif not delta & inner_relations:
                            carried.append(spec)
                        elif delta - inner_relations <= inner_delta_union:
                            resolved.append(spec)
                        else:
                            legal = False
                            break
                    # Heuristic 5 re-check: a resolved filter must still fit.
                    if not legal or (check_ndv and not all(
                            spec.estimate.build_ndv <= max_ndv
                            for spec in resolved)):
                        stats.plans_rejected_bloom_constraint += 1
                        continue
                    if carried:
                        pending = frozenset(carried) | inner_pending
                        rows = self._output_rows(base_rows, pending)

                # A join that resolves a filter builds it, so it must hash
                # (Section 3.6, second constraint) — and a cross product
                # cannot.  Any pending δ overlapping the inner side was
                # either resolved or illegal above, so that is the whole rule.
                via_broadcast = add_pair(outer_cost, broadcast_cost)
                variants: List[_Variant] = []
                if clauses:
                    via_shuffle = add_pair(outer_shuffled_cost, shuffled_cost)
                    variants = [
                        (_HASH, broadcast_inner, via_broadcast,
                         model.hash_join_pair(inner_rows, outer_rows, rows,
                                              num_clauses, True)),
                        (_HASH, shuffle_both, via_shuffle,
                         model.hash_join_pair(inner_rows, outer_rows, rows,
                                              num_clauses))]
                if not resolved:
                    if clauses:
                        merge = model.merge_join_pair(
                            outer_rows, inner_rows, rows, outer_sort,
                            inner_sort)
                        variants += [
                            (_MERGE, broadcast_inner, via_broadcast, merge),
                            (_MERGE, shuffle_both, via_shuffle, merge)]
                    variants.append((
                        _LOOP, broadcast_inner, via_broadcast,
                        model.nested_loop_pair(outer_rows, inner_rows, rows,
                                               True)))
                extras = []
                if resolved:
                    extras.append(model.bloom_build(inner_rows,
                                                    len(resolved)).pair())
                if residuals:
                    extras.append(model.project(rows, len(residuals)).pair())

                costed += len(variants)
                for method, strategy, inputs, work in variants:
                    cost = add_pair(inputs, work)
                    for extra in extras:
                        cost = add_pair(cost, extra)
                    shuffle, distribution, signature = strategy
                    if target.rejects(signature, pending, cost[1], rows):
                        continue
                    built += 1
                    if shuffle:
                        outer_input = self._exchange(
                            outer, _REDISTRIBUTE, outer_cols) \
                            if outer_reshuffle else outer
                        inner_input = self._exchange(
                            inner, _REDISTRIBUTE, inner_cols) \
                            if inner_reshuffle else inner
                    else:
                        outer_input = outer
                        inner_input = self._exchange(inner, _BROADCAST, ())
                    target.add(JoinNode(
                        method=method, join_type=join_type, outer=outer_input,
                        inner=inner_input, clauses=clauses,
                        built_filters=tuple(resolved),
                        residual_predicates=residuals, rows=rows,
                        cost=Cost(*cost),
                        properties=PlanProperties(distribution, pending),
                        row_width=outer.row_width + inner.row_width))
        stats.variants_costed += costed
        stats.variants_constructed += built
        stats.plans_retained += built

    def optimize(self, base_plan_lists: Optional[Dict[FrozenSet[str], PlanList]] = None,
                 ) -> Dict[FrozenSet[str], PlanList]:
        """Run bottom-up DP and return the plan list for every relation set."""
        base_table = None
        if base_plan_lists is not None:
            base_table = PlanTable.from_alias_dict(base_plan_lists,
                                                   self.join_graph)
        table = self.optimize_table(base_table)
        return table.to_alias_dict(self.join_graph)

    def combine(self, pair: JoinPair, outer_plan: PlanNode,
                inner_plan: PlanNode) -> List[PlanNode]:
        """The join plans one DP step retains for a single sub-plan pair:
        the step itself, run on one-plan lists into an empty target."""
        target = PlanList()
        self._dp_step(pair, PlanList([outer_plan]), PlanList([inner_plan]),
                      target)
        return list(target)

    # ------------------------------------------------------------------
    # Per-pair and per-plan inputs of the step
    # ------------------------------------------------------------------

    @staticmethod
    def _join_type_for(pair: JoinPair) -> Optional[JoinType]:
        """Join type of the pair; None if this orientation is illegal."""
        return join_type_between(pair.clauses, pair.outer)

    @staticmethod
    def _output_rows(join_rows: float,
                     pending: FrozenSet[BloomFilterSpec]) -> float:
        """Estimated output rows of a join carrying ``pending`` filters.

        Resolved Bloom filters contribute nothing here — once the build side is
        joined, the filter only removes rows the join would have removed anyway
        (Section 3.6: "the cardinality estimate simply becomes the original
        cardinality estimate for the joined relation").  Unresolved filters
        keep reducing the estimate by their effective selectivity.
        """
        # Sorted so the float product is bitwise-stable across processes.
        for spec in sorted(pending, key=_FILTER_ID):
            join_rows *= spec.estimate.effective_selectivity
        return max(1.0, join_rows)

    def _new_residuals(self, pair: JoinPair) -> Tuple[Predicate, ...]:
        """Residual predicates that become applicable exactly at this join."""
        now = set(self.query.residuals_applicable(pair.union))
        before = set(self.query.residuals_applicable(pair.outer))
        before |= set(self.query.residuals_applicable(pair.inner))
        return tuple(p for p in self.query.residual_predicates
                     if p in now and p not in before)

    def _join_columns(self, pair: JoinPair) -> Tuple[Tuple[ColumnRef, ...],
                                                     Tuple[ColumnRef, ...]]:
        outer_cols: List[ColumnRef] = []
        inner_cols: List[ColumnRef] = []
        for clause in pair.clauses:
            if clause.left.relation in pair.outer:
                outer_cols.append(clause.left)
                inner_cols.append(clause.right)
            else:
                outer_cols.append(clause.right)
                inner_cols.append(clause.left)
        return tuple(outer_cols), tuple(inner_cols)

    def _priced_shuffle(self, plan: PlanNode, columns: Tuple[ColumnRef, ...],
                        ) -> Tuple[bool, CostPair]:
        """Whether ``plan`` needs a redistribute exchange to be hash
        partitioned on the join ``columns``, and what its output costs then."""
        cost = plan.cost.pair()
        if not columns or plan.properties.distribution.is_hashed_on(columns):
            return False, cost
        return True, add_pair(cost, self.cost_model.redistribute_pair(
            plan.rows, plan.row_width))

    def _exchange(self, child: PlanNode, kind: ExchangeKind,
                  keys: Tuple[ColumnRef, ...]) -> ExchangeNode:
        """``child`` under a broadcast or redistribute exchange, costed for
        the data movement; one shared node per distinct request."""
        cache_key = (id(child), kind, keys)
        node = self._exchange_cache.get(cache_key)
        if node is None:
            if kind is ExchangeKind.BROADCAST:
                move = self.cost_model.broadcast(child.rows, child.row_width)
                distribution = Distribution.broadcast()
            else:
                move = self.cost_model.redistribute(child.rows,
                                                    child.row_width)
                distribution = Distribution.hashed(keys)
            node = ExchangeNode(
                kind=kind, child=child, hash_keys=keys, rows=child.rows,
                cost=child.cost + move, row_width=child.row_width,
                properties=PlanProperties(distribution, child.pending_blooms))
            self._exchange_cache[cache_key] = node
        return node
