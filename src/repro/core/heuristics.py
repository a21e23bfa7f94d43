"""Configuration of the BF-CBO search-space-limiting heuristics.

The paper enumerates nine heuristics (Section 3.10).  All of them are
represented here as independently togglable settings so that the ablation
experiments (Table 3 and the heuristic-ablation example) can flip them without
touching optimizer code.  The default values mirror Section 4.1 of the paper:

* selectivity threshold 2/3 (Heuristic 6),
* apply-side row threshold 10,000 (Heuristic 2),
* maximum build-side distinct count 2,000,000 (Heuristic 5),
* Heuristic 7 disabled for the main results, enabled for Table 3 with a
  plan-list cap of four.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class BfCboSettings:
    """Tunable behaviour of Bloom-filter-aware bottom-up optimization."""

    #: Master switch: when False the optimizer behaves exactly like plain CBO.
    enabled: bool = True

    # Heuristic 1: candidate only on the larger relation of a join clause.
    use_heuristic1: bool = True
    # Heuristic 2: minimum (filtered) row count of the apply relation.
    min_apply_rows: float = 10_000.0
    # Heuristic 3: skip δ's whose build side is an unfiltered, lossless PK for
    # an FK apply column.  (A correctness-neutral skip, but listed as H3.)
    use_heuristic3: bool = True
    # Heuristic 4: apply all candidates on a relation simultaneously.
    apply_all_candidates: bool = True
    # Heuristic 5: maximum estimated distinct values on the filter build side.
    max_build_ndv: float = 2_000_000.0
    # Heuristic 6: keep a Bloom filter only if its true-match selectivity is at
    # most this value (2/3 means it must remove at least a third of the rows).
    max_selectivity: float = 2.0 / 3.0
    # Heuristic 7: if a relation accumulates more than ``heuristic7_max_subplans``
    # Bloom filter sub-plans, keep only the one with the fewest estimated rows.
    use_heuristic7: bool = False
    heuristic7_max_subplans: int = 4
    # Heuristic 8: skip Bloom filter candidates entirely when the total
    # join-input cardinality observed in the first pass is below the threshold
    # (fast transactional queries are not worth the extra planning effort).
    use_heuristic8: bool = False
    heuristic8_min_total_join_input: float = 1_000_000.0
    # Heuristic 9: allow candidates on both sides of a clause, keeping only
    # δ's whose estimated build cardinality is smaller than the apply side.
    use_heuristic9: bool = False

    # Safety cap used only by the naïve single-pass baseline (Section 3.1) so
    # that the exponential blow-up experiment terminates.
    naive_max_subplans_per_relation: int = 64

    # ------------------------------------------------------------------
    # Adaptive large-join-graph planning (docs/enumeration.md).
    # These knobs bound the Θ(3^n) DPccp pair walk the way production
    # optimizers do: an enumeration budget plus a greedy ordering fallback.
    # The defaults are far above anything an 8-relation TPC-H query (or the
    # pinned chain-12 / star-12 / clique-10 benchmark topologies) emits, so
    # plans below the fallback regime are byte-identical to the exact DP.
    # ------------------------------------------------------------------

    #: Maximum unordered (csg, cmp) pairs the exact DPccp walk may emit
    #: before the enumerator abandons it and falls back to the greedy
    #: ordering; <= 0 means unlimited.
    enumeration_budget: int = 100_000
    #: Relation count above which the exact walk is not even attempted and
    #: the greedy fallback is used directly; <= 0 means never.
    fallback_relation_threshold: int = 18

    def with_overrides(self, **kwargs: object) -> "BfCboSettings":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def disabled(cls) -> "BfCboSettings":
        """Settings for plain cost-based optimization (no Bloom awareness)."""
        return cls(enabled=False)

    @classmethod
    def paper_defaults(cls) -> "BfCboSettings":
        """The configuration used for the paper's main results (Table 2)."""
        return cls()

    @classmethod
    def with_heuristic7(cls) -> "BfCboSettings":
        """The configuration used for Table 3 (Heuristic 7 enabled)."""
        return cls(use_heuristic7=True)


def scaled_settings(scale_factor: float,
                    base: Optional[BfCboSettings] = None) -> BfCboSettings:
    """Scale the paper's absolute heuristic thresholds to a scale factor.

    The paper's thresholds (Heuristic 2's 10,000-row apply minimum and
    Heuristic 5's 2,000,000-distinct-value filter cap) were chosen for TPC-H
    SF100.  When the reproduction runs at a smaller scale factor the same
    *relative* behaviour is obtained by scaling both thresholds by
    ``scale_factor / 100``.
    """
    base = base or BfCboSettings.paper_defaults()
    ratio = max(scale_factor / 100.0, 1e-9)
    return base.with_overrides(
        min_apply_rows=max(1.0, base.min_apply_rows * ratio),
        max_build_ndv=max(64.0, base.max_build_ndv * ratio),
        heuristic8_min_total_join_input=base.heuristic8_min_total_join_input * ratio,
    )
