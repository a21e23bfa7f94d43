"""The physical cost model.

Costs are expressed in abstract work units, PostgreSQL-style: every operator
charges a per-row CPU cost for the work it does, scans additionally charge for
reading column data, and exchange operators charge for the bytes they move
between the simulated SMP workers.  The Bloom-filter-specific knobs follow the
paper (Section 3.5):

* applying a Bloom filter costs a constant ``k`` per probed row, with ``k``
  strictly smaller than the per-row cost of a hash-table lookup;
* building a Bloom filter has an (optional) per-row cost that defaults to zero
  because the authors measured it to be negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

#: A cost as bare ``(startup, total)`` floats — what the join enumerator
#: prices candidates in before it decides to build a plan node.
CostPair = Tuple[float, float]


def _clamp_total(startup: float, total: float) -> float:
    """The one clamp: total work is never less than its blocking part."""
    return startup if total < startup - 1e-9 else total


def add_pair(left: CostPair, right: CostPair) -> CostPair:
    """``Cost.__add__`` on float pairs: same sums, same clamp, no object."""
    startup = left[0] + right[0]
    return startup, _clamp_total(startup, left[1] + right[1])


@dataclass(frozen=True)
class CostParameters:
    """Tunable constants of the cost model.

    The defaults are chosen so that relative magnitudes mirror a conventional
    disk-less, columnar, in-memory engine: hashing a row is several times more
    expensive than streaming it, probing a Bloom filter is cheaper than probing
    a hash table, and shuffling a row across workers costs more than touching
    it locally.
    """

    #: Cost of emitting / touching one tuple in any operator.
    cpu_tuple_cost: float = 0.01
    #: Cost of evaluating one predicate (or expression) on one tuple.
    cpu_operator_cost: float = 0.0025
    #: Per-row cost of reading a tuple from columnar storage during a scan.
    scan_row_cost: float = 0.01
    #: Additional per-byte cost of reading column data during a scan.
    scan_byte_cost: float = 0.0001
    #: Per-row cost of inserting a row into a hash-join hash table.
    hash_build_row_cost: float = 0.04
    #: Per-row cost of probing a hash-join hash table.
    hash_probe_row_cost: float = 0.02
    #: Per-row cost of applying a Bloom filter (the paper's ``k``); strictly
    #: less than :attr:`hash_probe_row_cost`.
    bloom_probe_row_cost: float = 0.005
    #: Per-row cost of inserting into a Bloom filter while building the hash
    #: table.  The paper found this negligible and sets it to zero.
    bloom_build_row_cost: float = 0.0
    #: Per-row, per-comparison cost of a nested-loop join.
    nestloop_compare_cost: float = 0.005
    #: Per-row cost of a sort, multiplied by log2(n).
    sort_row_cost: float = 0.01
    #: Per-row cost of the merge phase of a merge join.
    merge_row_cost: float = 0.015
    #: Per-byte cost of redistributing (shuffling) a row to another worker.
    redistribute_byte_cost: float = 0.0004
    #: Per-byte cost of broadcasting a row to every worker.
    broadcast_byte_cost: float = 0.0004
    #: Per-row cost of computing one aggregate transition.
    agg_row_cost: float = 0.015
    #: Degree of parallelism assumed for exchange costing (paper uses 48).
    degree_of_parallelism: int = 48
    #: Default row width (bytes) when a plan node cannot derive one.
    default_row_width: int = 32

    def with_dop(self, dop: int) -> "CostParameters":
        """Return a copy of the parameters with a different DOP."""
        return replace(self, degree_of_parallelism=dop)


DEFAULT_COST_PARAMETERS = CostParameters()


@dataclass(frozen=True)
class Cost:
    """A plan cost: total work units plus the startup (blocking) portion.

    ``startup`` models work that must finish before the first output row can
    be produced (building hash tables, sorting, building Bloom filters); it is
    what makes nested-loop inner rescans and Bloom-filter wait semantics
    costable, but most comparisons only use :attr:`total`.
    """

    startup: float = 0.0
    total: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "total",
                           _clamp_total(self.startup, self.total))

    def pair(self) -> CostPair:
        """This cost as bare floats."""
        return self.startup, self.total

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.startup + other.startup, self.total + other.total)

    def add_work(self, work: float, blocking: bool = False) -> "Cost":
        """Return a new cost with ``work`` added (optionally to startup too)."""
        return Cost(self.startup + (work if blocking else 0.0),
                    self.total + work)

    def __lt__(self, other: "Cost") -> bool:
        return self.total < other.total

    def __le__(self, other: "Cost") -> bool:
        return self.total <= other.total


ZERO_COST = Cost(0.0, 0.0)


class CostModel:
    """Computes operator costs from :class:`CostParameters`."""

    def __init__(self, params: CostParameters = DEFAULT_COST_PARAMETERS) -> None:
        self.params = params

    # -- scans -------------------------------------------------------------

    def seq_scan(self, rows: float, row_width: int,
                 num_predicates: int = 0) -> Cost:
        """Cost of a full sequential scan with ``num_predicates`` filters."""
        p = self.params
        work = rows * (p.scan_row_cost + row_width * p.scan_byte_cost)
        work += rows * num_predicates * p.cpu_operator_cost
        return Cost(0.0, work)

    def bloom_apply(self, input_rows: float, num_filters: int) -> Cost:
        """Extra cost of probing ``num_filters`` Bloom filters per input row.

        This is the paper's ``extra cost = k * input_rows`` term; it is charged
        on the rows *entering* the filter (the pre-filter scan output).
        """
        work = input_rows * num_filters * self.params.bloom_probe_row_cost
        return Cost(0.0, work)

    def bloom_build(self, build_rows: float, num_filters: int) -> Cost:
        """Cost of inserting build-side rows into ``num_filters`` filters."""
        work = build_rows * num_filters * self.params.bloom_build_row_cost
        return Cost(work, work)

    # -- joins -------------------------------------------------------------
    # The ``*_pair`` forms are the formulas (docs/enumeration.md, "Cost before
    # construct", says who calls them); the ``Cost`` forms wrap them.

    def hash_join_pair(self, build_rows: float, probe_rows: float,
                       output_rows: float, num_clauses: int = 1,
                       broadcast_build: bool = False) -> CostPair:
        p = self.params
        if broadcast_build:  # materialised (and hashed) once per worker
            build_rows = build_rows * p.degree_of_parallelism
        build = build_rows * p.hash_build_row_cost * max(1, num_clauses)
        probe = probe_rows * p.hash_probe_row_cost * max(1, num_clauses)
        emit = output_rows * p.cpu_tuple_cost
        return build, _clamp_total(build, build + probe + emit)

    def hash_join(self, build_rows: float, probe_rows: float,
                  output_rows: float, num_clauses: int = 1) -> Cost:
        """Cost of a hash join given already-costed inputs."""
        return Cost(*self.hash_join_pair(build_rows, probe_rows, output_rows,
                                         num_clauses))

    def nested_loop_pair(self, outer_rows: float, inner_rows: float,
                         output_rows: float,
                         rescan_inner: bool = False) -> CostPair:
        p = self.params
        compare = outer_rows * inner_rows * p.nestloop_compare_cost
        # Re-reading the materialised inner for every outer row but the first.
        rescan = max(0.0, outer_rows - 1.0) * (inner_rows * p.cpu_tuple_cost) \
            if rescan_inner else 0.0
        emit = output_rows * p.cpu_tuple_cost
        return 0.0, _clamp_total(0.0, compare + rescan + emit)

    def nested_loop(self, outer_rows: float, inner_rows: float,
                    output_rows: float, rescan_inner: bool = False) -> Cost:
        """Cost of a (materialised-inner) nested-loop join."""
        return Cost(*self.nested_loop_pair(outer_rows, inner_rows, output_rows,
                                           rescan_inner))

    def sort_pair(self, rows: float) -> CostPair:
        rows = max(2.0, rows)
        work = rows * math.log2(rows) * self.params.sort_row_cost
        return work, work

    def sort(self, rows: float) -> Cost:
        """Cost of sorting ``rows`` rows."""
        return Cost(*self.sort_pair(rows))

    def merge_join_pair(self, left_rows: float, right_rows: float,
                        output_rows: float, left_sort: CostPair,
                        right_sort: CostPair) -> CostPair:
        """Merge join given what sorting each input costs."""
        p = self.params
        merge = (left_rows + right_rows) * p.merge_row_cost \
            + output_rows * p.cpu_tuple_cost
        return add_pair(add_pair((0.0, _clamp_total(0.0, merge)), left_sort),
                        right_sort)

    def merge_join(self, left_rows: float, right_rows: float,
                   output_rows: float) -> Cost:
        """Cost of a merge join, including the sort of each input."""
        return Cost(*self.merge_join_pair(
            left_rows, right_rows, output_rows, self.sort_pair(left_rows),
            self.sort_pair(right_rows)))

    # -- exchanges ----------------------------------------------------------

    def broadcast_pair(self, rows: float, row_width: int) -> CostPair:
        p = self.params
        bytes_moved = rows * row_width * p.degree_of_parallelism
        return 0.0, _clamp_total(0.0, bytes_moved * p.broadcast_byte_cost
                                 + rows * p.cpu_tuple_cost)

    def broadcast(self, rows: float, row_width: int) -> Cost:
        """Cost of broadcasting ``rows`` to every worker."""
        return Cost(*self.broadcast_pair(rows, row_width))

    def redistribute_pair(self, rows: float, row_width: int) -> CostPair:
        p = self.params
        bytes_moved = rows * row_width
        return 0.0, _clamp_total(0.0, bytes_moved * p.redistribute_byte_cost
                                 + rows * p.cpu_tuple_cost)

    def redistribute(self, rows: float, row_width: int) -> Cost:
        """Cost of hash-redistributing ``rows`` across workers."""
        return Cost(*self.redistribute_pair(rows, row_width))

    def gather(self, rows: float, row_width: int) -> Cost:
        """Cost of gathering ``rows`` to a single worker."""
        return self.redistribute(rows, row_width)

    # -- other operators ------------------------------------------------------

    def aggregate(self, input_rows: float, output_groups: float) -> Cost:
        """Cost of a hash aggregation."""
        p = self.params
        work = input_rows * p.agg_row_cost + output_groups * p.cpu_tuple_cost
        return Cost(work, work)

    def project(self, rows: float, num_expressions: int) -> Cost:
        """Cost of computing ``num_expressions`` output expressions per row."""
        return Cost(0.0, rows * num_expressions * self.params.cpu_operator_cost)

    def limit(self, rows: float) -> Cost:
        """Cost of a LIMIT (essentially free)."""
        return Cost(0.0, rows * self.params.cpu_tuple_cost * 0.1)
