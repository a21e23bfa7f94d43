"""Vectorised join kernels.

Equi-joins run on a *factorized hash kernel*: the build side's keys are
factorized once into a :class:`~repro.executor.keys.CompositeKeyIndex`
(``np.unique``-based, memoized on the build :class:`Batch` so repeated probes
— morsels, or a batch reused across joins — never re-sort the build side) and
each probe is a single ``searchsorted`` over the distinct build keys.  The
legacy ``argsort`` + ``searchsorted`` sort/search kernel is retained as
:func:`sort_search_join_indices`, both as the executable specification the
property tests compare against and as the baseline for the kernel-speedup
benchmark gate.

NULL handling follows SQL equality semantics: a NULL key never matches
anything (not even another NULL), so null-keyed rows are excluded from the
match kernel on both sides.  Outer joins do not pad unmatched rows with
sentinel values — padded columns carry an all-null mask, so a legitimate
``-1`` key or empty string in the data can never collide with padding (see
``docs/nulls.md``).
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.expressions import ColumnRef
from ..core.query import JoinClause, JoinType
from ..errors import ExecutionError
from .batch import Batch
from .keys import CompositeKeyIndex, FactorizedKeys, combine_key_columns
from .memory import MemoryBudget
from .shm import ShmArena, attach_array

__all__ = [
    "DEFAULT_MAX_CROSS_JOIN_ROWS",
    "SPILL_JOIN_PARTITIONS",
    "build_probe_state",
    "clause_key_columns",
    "combine_key_columns",
    "concat_pair_results",
    "cross_join",
    "equi_join",
    "export_probe_task",
    "join_indices",
    "probe_morsel_kernel",
    "probe_span_pairs",
    "sort_search_join_indices",
    "spill_equi_join",
    "stitch_equi_join",
]

#: Alias for the ``(probe_idx, build_idx, counts)`` triple every probe
#: kernel returns.
PairResult = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Safety net for cross joins reached outside the executor (which passes the
#: :class:`~repro.executor.context.ExecutionContext` knob explicitly): a
#: Cartesian product beyond this many output rows raises instead of silently
#: allocating ``n * m`` rows.
DEFAULT_MAX_CROSS_JOIN_ROWS = 10_000_000


def sort_search_join_indices(probe_keys: np.ndarray, build_keys: np.ndarray,
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The legacy sort/search match kernel over all-valid key arrays.

    Re-sorts the full build side on every call; kept as the executable
    specification of the match semantics (the factorized kernel must produce
    bit-identical output) and as the benchmark baseline.
    """
    if build_keys.size == 0 or probe_keys.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        # lint: allow(unaccounted-allocation) — one int64 per probe row in
        # the reference kernel; the executor reserved the build side plus
        # 8 bytes per row before probing (estimate_build_bytes).
        return empty, empty, np.zeros(probe_keys.shape[0], dtype=np.int64)
    order = np.argsort(build_keys, kind="stable")
    sorted_build = build_keys[order]
    left = np.searchsorted(sorted_build, probe_keys, side="left")
    right = np.searchsorted(sorted_build, probe_keys, side="right")
    counts = (right - left).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, counts
    probe_idx = np.repeat(np.arange(probe_keys.shape[0], dtype=np.int64), counts)
    starts = np.repeat(left.astype(np.int64), counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts)
    build_idx = order[starts + offsets]
    return probe_idx, build_idx, counts


class BuildSideIndex:
    """Null-aware factorized index over a build side's key columns.

    Wraps :class:`~repro.executor.keys.CompositeKeyIndex` built over the
    *valid* build rows (NULL keys never match, so they are excluded up
    front) and remembers the valid-row selection so probe results map back
    to original build row numbers.  Instances are memoized per build
    :class:`Batch` and key-column set via :meth:`Batch.kernel_memo`.
    """

    def __init__(self, build_columns: Sequence[np.ndarray],
                 build_null: Optional[np.ndarray]) -> None:
        if build_null is not None and not build_null.any():
            build_null = None
        if build_null is not None:
            self.selection: Optional[np.ndarray] = np.flatnonzero(~build_null)
            build_columns = [np.asarray(col)[self.selection]
                             for col in build_columns]
        else:
            self.selection = None
        self.index = CompositeKeyIndex(build_columns)

    def probe(self, probe_columns: Sequence[np.ndarray],
              probe_null: Optional[np.ndarray],
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(probe_idx, build_idx, counts)`` over original row numbers."""
        # Filters upstream may have dropped every NULL: an all-False mask is
        # semantically None, and the plain kernel is much cheaper than the
        # subset-and-remap path.
        if probe_null is not None and not probe_null.any():
            probe_null = None
        if probe_null is not None:
            probe_sel = np.flatnonzero(~probe_null)
            probe_columns = [np.asarray(col)[probe_sel]
                             for col in probe_columns]
        else:
            probe_sel = None
        probe_idx, build_idx, sub_counts = self.index.probe(probe_columns)
        if self.selection is not None:
            build_idx = self.selection[build_idx]
        if probe_sel is not None:
            probe_idx = probe_sel[probe_idx]
            # lint: allow(unaccounted-allocation) — per-probe-row match
            # counts: the 8 bytes per row estimate_build_bytes added to
            # the build-side reservation.
            counts = np.zeros(
                probe_null.shape[0] if probe_null is not None else 0,
                dtype=np.int64)
            counts[probe_sel] = sub_counts
        else:
            counts = sub_counts
        return probe_idx, build_idx, counts


def join_indices(probe_keys: np.ndarray, build_keys: np.ndarray,
                 probe_null: Optional[np.ndarray] = None,
                 build_null: Optional[np.ndarray] = None,
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matching row index pairs between probe and build key arrays.

    Null-masked keys (``True`` in the optional masks) never match any row;
    their match count is 0, so outer-join padding and anti-join retention
    fall out of the counts exactly as for keys with no partner.

    Returns:
        ``(probe_idx, build_idx, match_counts)`` where the first two arrays are
        parallel and give every matching pair, and ``match_counts[i]`` is the
        number of build matches for probe row ``i`` (used for outer / semi /
        anti semantics).
    """
    probe_keys = np.asarray(probe_keys)
    build_keys = np.asarray(build_keys)
    index = BuildSideIndex([build_keys], build_null)
    return index.probe([probe_keys], probe_null)


def clause_key_columns(clauses: Sequence[JoinClause], probe: Batch,
                       build: Batch) -> Tuple[np.ndarray, np.ndarray,
                                              Optional[np.ndarray],
                                              Optional[np.ndarray]]:
    """Extract and combine the probe-side and build-side key arrays.

    Returns ``(probe_keys, build_keys, probe_null, build_null)``; the null
    masks mark rows where *any* key component is NULL (a composite key with a
    NULL component compares UNKNOWN, hence never matches).
    """
    probe_cols, build_cols, probe_null, build_null, _ = _clause_key_parts(
        clauses, probe, build)
    return (combine_key_columns(probe_cols), combine_key_columns(build_cols),
            probe_null, build_null)


def _clause_key_parts(clauses: Sequence[JoinClause], probe: Batch,
                      build: Batch) -> Tuple[List[np.ndarray],
                                             List[np.ndarray],
                                             Optional[np.ndarray],
                                             Optional[np.ndarray],
                                             Tuple[str, ...]]:
    """Raw per-clause key columns, null masks and build key names."""
    probe_cols: List[np.ndarray] = []
    build_cols: List[np.ndarray] = []
    build_names: List[str] = []
    probe_null: Optional[np.ndarray] = None
    build_null: Optional[np.ndarray] = None
    for clause in clauses:
        left_key = "%s.%s" % (clause.left.relation, clause.left.column)
        right_key = "%s.%s" % (clause.right.relation, clause.right.column)
        if probe.has_column(left_key):
            probe_key, build_key = left_key, right_key
        else:
            probe_key, build_key = right_key, left_key
        probe_cols.append(probe.column(probe_key))
        build_cols.append(build.column(build_key))
        build_names.append(build_key)
        pmask = probe.null_mask(probe_key)
        if pmask is not None:
            probe_null = pmask if probe_null is None else (probe_null | pmask)
        bmask = build.null_mask(build_key)
        if bmask is not None:
            build_null = bmask if build_null is None else (build_null | bmask)
    return probe_cols, build_cols, probe_null, build_null, tuple(build_names)


def _null_batch(like: Batch, num_rows: int) -> Batch:
    """A ``num_rows``-row batch of NULL rows matching ``like``'s columns.

    Every column keeps its original dtype (so concatenating matched and
    padded rows never silently promotes the column type) and carries an
    all-null mask; the filler values underneath are zero / empty and are
    never read as data.
    """
    columns = {}
    masks = {}
    # lint: allow(unaccounted-allocation) — NULL padding is part of the
    # join's output batch, which the executor charges per operator output
    # (check_rows / the downstream reservation), not build-side state.
    all_null = np.ones(num_rows, dtype=bool)
    for key in like.keys:
        dtype = like.column(key).dtype
        if dtype.kind == "O":
            # lint: allow(unaccounted-allocation) — output-batch padding,
            # same accounting as the all-null mask above.
            columns[key] = np.full(num_rows, None, dtype=object)
        else:
            # lint: allow(unaccounted-allocation) — output-batch padding,
            # same accounting as the all-null mask above.
            columns[key] = np.zeros(num_rows, dtype=dtype)
        masks[key] = all_null
    return Batch(columns, masks)


def build_probe_state(probe: Batch, build: Batch,
                      clauses: Sequence[JoinClause],
                      ) -> Tuple[BuildSideIndex, List[np.ndarray],
                                 Optional[np.ndarray]]:
    """The memoized build index plus the probe-side key columns and mask.

    This is the *build phase* of the morsel hash join, factored out so the
    executor can run it exactly once and then probe any number of morsels
    against it (serially, on the thread pool, or in worker processes).  The
    memo key matches the one :func:`equi_join` always used, so serial and
    morsel executions share one factorization per build batch.
    """
    probe_cols, build_cols, probe_null, build_null, build_names = \
        _clause_key_parts(clauses, probe, build)
    index = build.kernel_memo(
        ("build_index", build_names),
        lambda: BuildSideIndex(build_cols, build_null))
    return index, probe_cols, probe_null


def probe_span_pairs(index: BuildSideIndex,
                     probe_cols: Sequence[np.ndarray],
                     probe_null: Optional[np.ndarray],
                     start: int, stop: int) -> PairResult:
    """Probe one morsel ``[start, stop)`` of the probe side.

    Key columns and mask are sliced (zero-copy views) and the resulting
    probe indices are shifted back to whole-batch row numbers.  Because the
    match kernel emits pairs in probe-row order with a per-row count vector,
    concatenating span results in span order reproduces the whole-batch
    probe bit-for-bit (see :func:`concat_pair_results`).
    """
    cols = [np.asarray(col)[start:stop] for col in probe_cols]
    null = probe_null[start:stop] if probe_null is not None else None
    probe_idx, build_idx, counts = index.probe(cols, null)
    if start:
        probe_idx = probe_idx + np.int64(start)
    return probe_idx, build_idx, counts


def concat_pair_results(results: Sequence[PairResult]) -> PairResult:
    """Stitch ordered per-span probe results back into whole-batch pairs."""
    if len(results) == 1:
        return results[0]
    probe_idx = np.concatenate([pairs[0] for pairs in results])
    build_idx = np.concatenate([pairs[1] for pairs in results])
    counts = np.concatenate([pairs[2] for pairs in results])
    return probe_idx, build_idx, counts


def stitch_equi_join(probe: Batch, build: Batch, join_type: JoinType,
                     probe_idx: np.ndarray, build_idx: np.ndarray,
                     counts: np.ndarray) -> Batch:
    """Materialise a join's output rows from whole-batch match pairs.

    This serial tail is shared by every probe strategy: the pair arrays are
    already in canonical (probe-row) order, so SEMI/ANTI filtering, INNER
    gathering and LEFT/FULL null-padding produce the identical row order no
    matter how the pairs were computed.
    """
    if join_type is JoinType.SEMI:
        return probe.filter(counts > 0)
    if join_type is JoinType.ANTI:
        return probe.filter(counts == 0)

    matched = probe.take(probe_idx).merge(build.take(build_idx))
    if join_type is JoinType.INNER:
        return matched
    if join_type in (JoinType.LEFT, JoinType.FULL):
        pieces = [matched]
        unmatched_mask = counts == 0
        if unmatched_mask.any():
            unmatched = probe.filter(unmatched_mask)
            pieces.append(unmatched.merge(_null_batch(build,
                                                      unmatched.num_rows)))
        if join_type is JoinType.FULL:
            # lint: allow(unaccounted-allocation) — one bool per build row,
            # within the build-side reservation held while stitching.
            build_matched = np.zeros(build.num_rows, dtype=bool)
            build_matched[build_idx] = True
            if not build_matched.all():
                unmatched_build = build.filter(~build_matched)
                pieces.append(_null_batch(
                    probe, unmatched_build.num_rows).merge(unmatched_build))
        return Batch.concat(pieces)
    raise ValueError("unsupported join type %r" % join_type)


def equi_join(probe: Batch, build: Batch, clauses: Sequence[JoinClause],
              join_type: JoinType = JoinType.INNER,
              max_cross_join_rows: Optional[int] = None) -> Batch:
    """Join two batches on the given equi-join clauses.

    ``probe`` corresponds to the plan's outer input and ``build`` to the inner
    input; for LEFT joins the probe side is the row-preserving side, matching
    how the enumerator orients non-inner joins.  FULL joins preserve both
    sides: unmatched probe rows are null-padded on the build columns and
    unmatched build rows are null-padded on the probe columns.  Null-keyed
    probe rows count as unmatched (preserved by LEFT/FULL and ANTI, dropped
    by INNER and SEMI) and null-keyed build rows never match.
    """
    if not clauses:
        return cross_join(probe, build, max_cross_join_rows)
    index, probe_cols, probe_null = build_probe_state(probe, build, clauses)
    probe_idx, build_idx, counts = index.probe(probe_cols, probe_null)
    return stitch_equi_join(probe, build, join_type,
                            probe_idx, build_idx, counts)


# -- grace-style spill join --------------------------------------------------

#: Partition fan-out of the spill join.  Constant (not derived from the data)
#: so the chaos suite's spill-chunk counters are exactly reproducible.
SPILL_JOIN_PARTITIONS = 8

#: Multiplier applied when an equal float key must land in one partition:
#: signed zeros are collapsed by adding +0.0 and NaNs by rewriting to one
#: canonical bit pattern, mirroring the match kernel's NaN-matches-NaN rule.
_CANONICAL_NAN_BITS = np.float64(np.nan).view(np.int64)


def estimate_build_bytes(build: Batch) -> int:
    """Bytes the in-memory build phase pins: the batch plus index overhead.

    The factorized index keeps an int64 ``row_order`` (plus smaller
    unique/count arrays) alongside the build batch itself, so the
    reservation a hash join asks its budget for is the batch's resident
    bytes plus eight bytes per build row.
    """
    return build.nbytes + 8 * build.num_rows


def _column_hash_bits(values: np.ndarray) -> np.ndarray:
    """Value-stable int64 hash input for one key column.

    Partitioning must send equal keys from *both* sides to the same
    partition, so the mapping may depend only on values, never on per-batch
    factorization.  Floats are canonicalised first (``-0.0`` folded into
    ``+0.0``, every NaN to one bit pattern) because the match kernel treats
    those as equal; strings/objects hash their distinct values through
    ``crc32`` so both sides agree without sharing a code space.
    """
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind in ("i", "u", "b"):
        return values.astype(np.int64, copy=False)
    if kind == "f":
        floats = values.astype(np.float64, copy=False) + 0.0
        bits = floats.view(np.int64).copy()
        nan = np.isnan(floats)
        if nan.any():
            bits[nan] = _CANONICAL_NAN_BITS
        return bits
    if kind in ("M", "m"):
        return values.view(np.int64).astype(np.int64, copy=False)
    uniques, codes = np.unique(values, return_inverse=True)
    unique_bits = np.fromiter(
        (zlib.crc32(repr(value).encode("utf-8")) for value in uniques),
        dtype=np.int64, count=uniques.shape[0])
    return unique_bits[codes]


def _partition_ids(columns: Sequence[np.ndarray],
                   num_partitions: int) -> np.ndarray:
    """Deterministic per-row partition ids over composite key columns."""
    combined: Optional[np.ndarray] = None
    for column in columns:
        bits = _column_hash_bits(column)
        if combined is None:
            combined = bits.copy()
        else:
            combined = combined * np.int64(0x9E3779B1) + bits
    if combined is None:
        return np.zeros(0, dtype=np.int64)
    # Cheap avalanche so dense consecutive keys spread over partitions.
    combined = combined * np.int64(0x9E3779B1) + np.int64(0x85EBCA6B)
    return combined % np.int64(num_partitions)


def spill_equi_join(probe: Batch, build: Batch,
                    clauses: Sequence[JoinClause], join_type: JoinType,
                    budget: MemoryBudget,
                    poll: Optional[Callable[[], None]] = None,
                    num_partitions: int = SPILL_JOIN_PARTITIONS) -> Batch:
    """Grace-style partitioned hash join, bit-identical to :func:`equi_join`.

    The degraded path taken when the budget denies the build-side
    reservation: valid build rows are hash-partitioned *by key value* into
    spill files, then each partition is loaded back one at a time, indexed,
    and probed with the matching probe partition.  Because every key maps
    to exactly one partition, each probe row's matches all come from one
    partition in ascending build-row order — a stable sort of the combined
    pairs by probe row therefore reproduces the canonical pair order of the
    in-memory kernel exactly, and :func:`stitch_equi_join` does the rest.

    ``poll`` is called once per partition (the spill-chunk granularity), so
    a cancelled query stops within one partition of work.
    """
    probe_cols, build_cols, probe_null, build_null, _ = _clause_key_parts(
        clauses, probe, build)
    if probe_null is not None and not probe_null.any():
        probe_null = None
    if build_null is not None and not build_null.any():
        build_null = None
    build_valid = np.flatnonzero(~build_null) if build_null is not None \
        else np.arange(build.num_rows, dtype=np.int64)
    probe_valid = np.flatnonzero(~probe_null) if probe_null is not None \
        else np.arange(probe.num_rows, dtype=np.int64)

    budget.count_operator_spill("join")
    build_parts = _partition_ids(
        [np.asarray(col)[build_valid] for col in build_cols], num_partitions)
    probe_parts = _partition_ids(
        [np.asarray(col)[probe_valid] for col in probe_cols], num_partitions)

    # Build phase: every non-empty build partition goes to a spill file; the
    # in-memory footprint from here on is one partition at a time.
    spill_paths: List[Optional[str]] = [None] * num_partitions
    for part in range(num_partitions):
        rows = build_valid[build_parts == part]
        if rows.shape[0] == 0:
            continue
        arrays: Dict[str, np.ndarray] = {
            "col%d" % i: np.ascontiguousarray(np.asarray(col)[rows])
            for i, col in enumerate(build_cols)}
        arrays["rows"] = rows
        spill_paths[part] = budget.write_spill("join", arrays)

    # Probe phase, partition-wise.  NULL-keyed and unmatched rows keep
    # count 0, exactly as the in-memory kernel leaves them.
    counts = np.zeros(probe.num_rows, dtype=np.int64)
    pair_pieces: List[Tuple[np.ndarray, np.ndarray]] = []
    for part in range(num_partitions):
        if poll is not None:
            poll()
        path = spill_paths[part]
        if path is None:
            continue
        arrays = MemoryBudget.read_spill(path)
        MemoryBudget.drop_spill(path)
        part_rows = arrays["rows"]
        part_cols = [arrays["col%d" % i] for i in range(len(build_cols))]
        chunk_bytes = int(sum(array.nbytes for array in arrays.values()))
        budget.require(chunk_bytes, "join spill partition %d" % part)
        try:
            index = BuildSideIndex(part_cols, None)
            probe_rows = probe_valid[probe_parts == part]
            if probe_rows.shape[0]:
                sub_cols = [np.asarray(col)[probe_rows]
                            for col in probe_cols]
                sub_probe, sub_build, sub_counts = index.probe(sub_cols,
                                                               None)
                counts[probe_rows] = sub_counts
                if sub_probe.shape[0]:
                    pair_pieces.append((probe_rows[sub_probe],
                                        part_rows[sub_build]))
        finally:
            budget.release(chunk_bytes)

    if pair_pieces:
        probe_idx = np.concatenate([piece[0] for piece in pair_pieces])
        build_idx = np.concatenate([piece[1] for piece in pair_pieces])
        order = np.argsort(probe_idx, kind="stable")
        probe_idx = probe_idx[order]
        build_idx = build_idx[order]
    else:
        probe_idx = np.zeros(0, dtype=np.int64)
        build_idx = np.zeros(0, dtype=np.int64)
    return stitch_equi_join(probe, build, join_type,
                            probe_idx, build_idx, counts)


# -- process-backend probe kernel -------------------------------------------

def export_probe_task(index: BuildSideIndex,
                      probe_cols: Sequence[np.ndarray],
                      probe_null: Optional[np.ndarray],
                      arena: ShmArena) -> Dict[str, Any]:
    """Publish a probe task's shared state for worker processes.

    The build index's arrays and the full probe key columns go into the
    arena exactly once (exports are memoized by array identity, so fifty
    morsels of one join ship one copy); the returned payload contains only
    picklable :class:`~repro.executor.shm.ArrayRef` descriptors and scalars.
    """
    composite = index.index
    keys = composite.index
    payload: Dict[str, Any] = {
        "selection": arena.export_optional(index.selection),
        "mode": composite._mode,
        "num_columns": composite._num_columns,
        "column_uniques": [arena.export(uniques)
                           for uniques in composite._column_uniques],
        "pack_steps": None,
        "uniques": arena.export(keys.uniques),
        "counts": arena.export(keys.counts),
        "starts": arena.export(keys.starts),
        "row_order": arena.export(keys.row_order),
        "num_build_rows": keys.num_rows,
        "probe_cols": [arena.export(np.asarray(col)) for col in probe_cols],
        "probe_null": arena.export_optional(probe_null),
    }
    if composite._mode == CompositeKeyIndex._MODE_CODES:
        payload["pack_steps"] = [
            (cardinality, arena.export_optional(compress))
            for cardinality, compress in composite._pack_steps]
    return payload


def _index_from_payload(payload: Dict[str, Any]) -> BuildSideIndex:
    """Worker-side reconstruction of an exported :class:`BuildSideIndex`.

    Pure wiring: every array is a zero-copy view over the exported shared
    pages, so rebuilding the index per morsel costs a handful of attribute
    assignments, not a re-factorization.
    """
    keys = FactorizedKeys(attach_array(payload["uniques"]),
                          attach_array(payload["counts"]),
                          attach_array(payload["starts"]),
                          attach_array(payload["row_order"]),
                          payload["num_build_rows"])
    composite = CompositeKeyIndex.__new__(CompositeKeyIndex)
    composite._mode = payload["mode"]
    composite._num_columns = payload["num_columns"]
    composite._column_uniques = [attach_array(ref)
                                 for ref in payload["column_uniques"]]
    if payload["pack_steps"] is not None:
        composite._pack_steps = [(cardinality, attach_array(ref))
                                 for cardinality, ref in payload["pack_steps"]]
    composite.index = keys
    index = BuildSideIndex.__new__(BuildSideIndex)
    index.selection = attach_array(payload["selection"])
    index.index = composite
    return index


def probe_morsel_kernel(payload: Dict[str, Any], start: int,
                        stop: int) -> PairResult:
    """Process-pool kernel: probe one morsel against an exported index.

    Runs in a worker process; only the morsel-sized pair arrays are pickled
    back to the parent.  Output is bit-identical to
    :func:`probe_span_pairs` over the same span.
    """
    index = _index_from_payload(payload)
    cols = [attach_array(ref)[start:stop] for ref in payload["probe_cols"]]
    null_full = attach_array(payload["probe_null"])
    null = null_full[start:stop] if null_full is not None else None
    probe_idx, build_idx, counts = index.probe(cols, null)
    if start:
        probe_idx = probe_idx + np.int64(start)
    return probe_idx, build_idx, counts


def cross_join(probe: Batch, build: Batch,
               max_rows: Optional[int] = None) -> Batch:
    """Cartesian product of two batches (only used for tiny inputs).

    Raises :class:`~repro.errors.ExecutionError` when the product would
    exceed ``max_rows`` (the executor passes its ``max_cross_join_rows``
    knob; ``None`` falls back to :data:`DEFAULT_MAX_CROSS_JOIN_ROWS`, and a
    non-positive limit disables the guard) — a disconnected join graph over
    large tables should fail loudly instead of silently allocating ``n * m``
    rows.
    """
    n, m = probe.num_rows, build.num_rows
    limit = DEFAULT_MAX_CROSS_JOIN_ROWS if max_rows is None else max_rows
    if limit > 0 and n * m > limit:
        raise ExecutionError(
            "cross join of %d x %d rows would produce %d rows, above the "
            "configured max_cross_join_rows=%d; add a join predicate or "
            "raise the limit" % (n, m, n * m, limit))
    probe_idx = np.repeat(np.arange(n, dtype=np.int64), m)
    build_idx = np.tile(np.arange(m, dtype=np.int64), n)
    return probe.take(probe_idx).merge(build.take(build_idx))
