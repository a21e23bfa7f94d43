"""Greedy join-ordering fallback for large join graphs.

The exact DPccp walk of :class:`~repro.core.enumerator.JoinEnumerator` emits
Θ(3^n) (csg, cmp) pairs on clique-shaped queries, so past roughly a dozen
relations the enumeration — not execution — dominates end-to-end latency.
Production optimizers bound the walk with a pair budget and fall back to a
greedy ordering; this module supplies that ordering:

* **GOO** (Greedy Operator Ordering, Fegaras 1998): repeatedly merge the two
  connected relation groups whose join has the smallest estimated
  cardinality.  Works on any graph shape and is the general fallback.
* **IKKBZ-style linearization** (Ibaraki/Kameda, Krishnamurthy/Boral/Zaniolo):
  for *acyclic* join graphs the precedence-tree rank ordering produces an
  optimal left-deep order under ASI cost functions, so tree-shaped components
  (chains, stars, snowflakes) get the classic linearization instead of GOO.

The output is deliberately *not* a plan: it is the same
``{union mask: [(left mask, right mask)]}`` structure the exact walk produces,
one unordered split per union, so the enumerator's canonical ordering, the
costing and Bloom-constraint checks of ``JoinEnumerator._dp_step`` and both
BF-CBO phases run unchanged over the greedy join tree.  Disconnected
components are ordered independently and stitched with the same FROM-order
cross products as the exact path, so multi-component queries stay plannable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cardinality import CardinalityEstimator
from .joingraph import JoinGraph
from .query import JoinType, join_type_between

#: Floor for selectivities/costs so rank computations never divide by zero.
_EPSILON = 1e-12

#: Beyond this many relations in one acyclic component, IKKBZ tries only the
#: smallest-cardinality relations as precedence-tree roots instead of all of
#: them — the all-roots sweep is O(n^2) estimator calls, which at hundreds of
#: relations costs more than the orders differ.
_MAX_IKKBZ_ROOTS = 16


def _merge_is_legal(graph: JoinGraph, left: int, right: int) -> bool:
    """True if joining ``left`` and ``right`` is legal in some orientation.

    The DP step's own rule (:func:`~repro.core.query.join_type_between`):
    outer/semi/anti clauses pin their row-preserving side to the probe side,
    and conflicting non-inner types between the same two sets are unplannable
    in either orientation.
    GOO must not pick such a merge — the enumerator would reject both
    orientations downstream and leave the union without a plan even though a
    different merge order (which the exact DP finds) is perfectly plannable.
    """
    clauses = [clause for clause, (left_bit, right_bit)
               in zip(graph.query.join_clauses, graph.clause_bits)
               if (left_bit & left and right_bit & right)
               or (left_bit & right and right_bit & left)]
    if not clauses:
        return True  # cross product: always joinable
    return (join_type_between(clauses, graph.aliases_of(left)) is not None
            or join_type_between(clauses, graph.aliases_of(right)) is not None)


def greedy_unordered_pairs(graph: JoinGraph,
                           estimator: CardinalityEstimator,
                           ) -> Dict[int, List[Tuple[int, int]]]:
    """One unordered (left, right) split per union mask of a greedy join tree.

    Each connected component is ordered independently — IKKBZ linearization
    when the component is acyclic, GOO otherwise — and the per-component
    results are stitched with FROM-order cross products exactly like
    :meth:`JoinEnumerator._stitch_steps`, so the enumerator's downstream
    machinery (both orientations, canonical sort, cross-product accounting)
    treats the greedy tree like any other pair source.
    """
    pairs: Dict[int, List[Tuple[int, int]]] = {}
    component_roots: List[int] = []
    for component in graph.component_masks():
        if _is_tree(graph, component) and _all_inner(graph, component):
            merges = _ikkbz_merges(graph, estimator, component)
        else:
            merges = _goo_merges(graph, estimator, component)
        for left, right in merges:
            pairs.setdefault(left | right, []).append((left, right))
        component_roots.append(component)
    accumulated = component_roots[0] if component_roots else 0
    for component in component_roots[1:]:
        pairs.setdefault(accumulated | component, []).append(
            (accumulated, component))
        accumulated |= component
    return pairs


def _is_tree(graph: JoinGraph, component: int) -> bool:
    """True if the component's induced join graph is acyclic.

    A connected graph is a tree iff it has exactly ``vertices - 1`` edges;
    multi-clause edges between the same relation pair count once (they do not
    create a cycle in the precedence structure IKKBZ relies on).
    """
    bits = list(JoinGraph._bit_indices(component))
    edges = set()
    for bit in bits:
        for other in JoinGraph._bit_indices(graph.neighbor_masks[bit]):
            if (1 << other) & component and other > bit:
                edges.add((bit, other))
    return len(edges) == len(bits) - 1


def _all_inner(graph: JoinGraph, component: int) -> bool:
    """True when every clause inside the component is a plain inner join.

    IKKBZ's rank ordering assumes freely reorderable joins; components with
    outer/semi/anti clauses go through GOO, whose merge selection checks
    orientation legality per step.
    """
    for clause, (left_bit, right_bit) in zip(graph.query.join_clauses,
                                             graph.clause_bits):
        if (left_bit | right_bit) & component \
                and clause.join_type is not JoinType.INNER:
            return False
    return True


# ----------------------------------------------------------------------
# GOO: greedy operator ordering over one connected component
# ----------------------------------------------------------------------

def _goo_merges(graph: JoinGraph, estimator: CardinalityEstimator,
                component: int) -> List[Tuple[int, int]]:
    """Merge steps of GOO: join the legal pair with the smallest result.

    Candidate merges whose clauses are orientation-illegal in both directions
    (see :func:`_merge_is_legal`) are deferred behind every legal one, so
    outer-join patterns the exact DP can plan stay plannable under the
    fallback.  Ties are broken by the (lower, higher) union mask so the
    ordering is a pure function of the statistics, never of iteration order.
    """
    groups = [1 << bit for bit in JoinGraph._bit_indices(component)]
    merges: List[Tuple[int, int]] = []
    while len(groups) > 1:
        best: Optional[Tuple[float, int, int, int]] = None
        fallback: Optional[Tuple[float, int, int, int]] = None
        for i, left in enumerate(groups):
            left_neighbors = graph.neighbor_mask(left)
            for right in groups[i + 1:]:
                if not left_neighbors & right:
                    continue
                union = left | right
                rows = estimator.join_rows(graph.aliases_of(union))
                key = (rows, union, left, right)
                if _merge_is_legal(graph, left, right):
                    if best is None or key < best:
                        best = key
                elif fallback is None or key < fallback:
                    fallback = key
        if best is None:
            # Every connected merge is orientation-illegal right now (an
            # unusual outer-join corner); take the cheapest anyway rather
            # than stall — the DP rejects it downstream exactly as it would
            # have without the legality filter.
            best = fallback
        if best is None:  # unreachable for a connected component
            break
        _, union, left, right = best
        merges.append((left, right))
        groups = [g for g in groups if g not in (left, right)]
        groups.append(union)
    return merges


# ----------------------------------------------------------------------
# IKKBZ: rank-based linearization of an acyclic component
# ----------------------------------------------------------------------

@dataclass
class _Segment:
    """A run of already-ordered relations treated as one chain element.

    ``t`` is the product of the members' rank terms (selectivity × rows) and
    ``c`` the ASI cost of the run, composed with C(S1 S2) = C(S1) + T(S1)C(S2);
    normalization merges adjacent segments whose ranks are out of order.
    """

    bits: List[int]
    t: float
    c: float

    @property
    def rank(self) -> float:
        return (self.t - 1.0) / max(self.c, _EPSILON)

    def absorb(self, other: "_Segment") -> None:
        self.c = self.c + self.t * other.c
        self.t = self.t * other.t
        self.bits.extend(other.bits)


def _ikkbz_merges(graph: JoinGraph, estimator: CardinalityEstimator,
                  component: int) -> List[Tuple[int, int]]:
    """Left-deep merge steps of the best IKKBZ linearization.

    Every relation of the component is tried as the precedence-tree root; each
    root's rank-ordered linearization is costed with the engine's own
    cardinality estimator (the sum of intermediate join sizes, i.e. the
    C_out ASI cost), and the cheapest order wins.  Ties fall to the lowest
    root bit, keeping the result deterministic.
    """
    bits = list(JoinGraph._bit_indices(component))
    if len(bits) == 1:
        return []
    roots = bits
    if len(bits) > _MAX_IKKBZ_ROOTS:
        roots = sorted(bits, key=lambda bit: (
            estimator.scan_rows(graph.aliases[bit]), bit))[:_MAX_IKKBZ_ROOTS]
    best_order: List[int] = bits
    best_cost = float("inf")
    for root in roots:
        order = _linearize_from_root(graph, estimator, component, root)
        cost = _left_deep_cost(graph, estimator, order)
        if cost < best_cost:
            best_cost = cost
            best_order = order
    merges: List[Tuple[int, int]] = []
    prefix = 1 << best_order[0]
    for bit in best_order[1:]:
        merges.append((prefix, 1 << bit))
        prefix |= 1 << bit
    return merges


def _linearize_from_root(graph: JoinGraph, estimator: CardinalityEstimator,
                         component: int, root: int) -> List[int]:
    """IKKBZ chain for one root: merge child chains by rank, normalizing."""
    children: Dict[int, List[int]] = {root: []}
    parent: Dict[int, int] = {}
    frontier = [root]
    seen = 1 << root
    while frontier:
        node = frontier.pop(0)
        for other in JoinGraph._bit_indices(graph.neighbor_masks[node]):
            if not (1 << other) & component or (1 << other) & seen:
                continue
            seen |= 1 << other
            parent[other] = node
            children.setdefault(node, []).append(other)
            children.setdefault(other, [])
            frontier.append(other)

    # Iterative post-order: the fallback exists precisely for huge graphs,
    # where a recursive traversal would blow the interpreter's stack on a
    # deep precedence tree (e.g. a 1200-relation chain).
    chains: Dict[int, List[_Segment]] = {}
    stack: List[Tuple[int, bool]] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            stack.append((node, True))
            for child in children[node]:
                stack.append((child, False))
            continue
        # Merge the (already normalized) child chains by ascending rank,
        # then pull the node's own segment to the front and re-normalize.
        # The merge MUST preserve each chain's internal order — a flat
        # re-sort would let a segment jump ahead of its precedence-tree
        # ancestor on rank ties, turning a connected left-deep prefix into
        # a cross product.
        merged = _merge_chains([chains.pop(child)
                                for child in children[node]])
        if node == root:
            chains[node] = merged
            continue
        rows = estimator.scan_rows(graph.aliases[node])
        selectivity = _edge_selectivity(graph, estimator, node, parent[node])
        t = max(selectivity * rows, _EPSILON)
        normalized: List[_Segment] = [_Segment(bits=[node], t=t, c=t)]
        for segment in merged:
            normalized.append(segment)
            while (len(normalized) > 1
                   and normalized[-2].rank > normalized[-1].rank):
                tail = normalized.pop()
                normalized[-1].absorb(tail)
        chains[node] = normalized

    order = [root]
    for segment in chains[root]:
        order.extend(segment.bits)
    return order


def _merge_chains(chains: List[List[_Segment]]) -> List[_Segment]:
    """Stable k-way merge of rank-sorted chains.

    Within one chain relative order is preserved (that order encodes the
    precedence-tree parent-before-child constraint); rank ties across chains
    resolve to the earliest chain, i.e. the children's deterministic BFS
    discovery order.
    """
    merged: List[_Segment] = []
    positions = [0] * len(chains)
    while True:
        best = -1
        for index, chain in enumerate(chains):
            if positions[index] >= len(chain):
                continue
            if best < 0 or chain[positions[index]].rank \
                    < chains[best][positions[best]].rank:
                best = index
        if best < 0:
            return merged
        merged.append(chains[best][positions[best]])
        positions[best] += 1


def _edge_selectivity(graph: JoinGraph, estimator: CardinalityEstimator,
                      node: int, parent: int) -> float:
    """Selectivity of the join edge between a node and its tree parent."""
    node_alias = graph.aliases[node]
    parent_alias = graph.aliases[parent]
    joined = estimator.join_rows(frozenset((node_alias, parent_alias)))
    denominator = max(estimator.scan_rows(node_alias)
                      * estimator.scan_rows(parent_alias), _EPSILON)
    return min(1.0, max(joined / denominator, _EPSILON))


def _left_deep_cost(graph: JoinGraph, estimator: CardinalityEstimator,
                    order: List[int]) -> float:
    """C_out of a left-deep order: the sum of intermediate result sizes."""
    cost = 0.0
    prefix = 1 << order[0]
    for bit in order[1:]:
        prefix |= 1 << bit
        cost += estimator.join_rows(graph.aliases_of(prefix))
    return cost
