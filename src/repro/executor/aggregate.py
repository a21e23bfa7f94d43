"""Hash aggregation over column batches.

NULL semantics follow the SQL standard (see ``docs/nulls.md``): SUM / AVG /
MIN / MAX skip NULL inputs and return NULL for groups with no valid input,
``COUNT(col)`` counts only non-null values while ``COUNT(*)`` counts rows,
and GROUP BY treats NULL as a single group of its own (distinct from every
value, equal to itself for grouping purposes).  Columns without a null mask
take exactly the pre-mask vectorised code paths.

Aggregation is *two-phase*: group ids are assigned over the whole batch,
then every non-distinct aggregate folds fixed-width row segments
(:data:`AGG_SEGMENT_ROWS`) into per-segment partial states (count + sum /
min / max; AVG carries sum and count) which are merged in segment order.
The segment width is a constant — never derived from worker count or morsel
size — so the partial fold decomposes the same way no matter how many
workers compute the partials: serial, thread-parallel and process-parallel
executions produce bit-identical floats.  A batch that fits one segment
takes the historical single-pass code path exactly.  DISTINCT aggregates
dedup against the whole batch and stay single-phase.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.expressions import (
    AggregateCall,
    AggregateFunction,
    ScalarExpression,
    fill_masked,
)
from ..core.query import OutputItem
from .batch import Batch
from .keys import combine_key_columns
from .memory import MemoryBudget
from .shm import ShmArena, attach_array

#: Fixed partial-state segment width (rows).  Per-morsel thread-local
#: partials are computed over these segments and merged left-to-right;
#: keeping the width independent of ``executor_workers`` / ``morsel_size``
#: is what makes floating-point aggregate results decomposition-invariant.
AGG_SEGMENT_ROWS = 65_536

#: One aggregate call's full-batch input: ``(function, values, null_mask)``
#: where ``values`` is ``None`` for ``COUNT(*)``.
CallData = Tuple[AggregateFunction, Optional[np.ndarray], Optional[np.ndarray]]

#: One call's per-segment partial state: ``(valid_counts, statistic)`` where
#: the statistic is ``None`` for COUNT, per-group sums for SUM/AVG and
#: per-group running min/max for MIN/MAX.
Partial = Tuple[np.ndarray, Optional[np.ndarray]]

#: Maps ``(calls_data, group_ids, num_groups, spans)`` to per-span partial
#: lists — the hook the executor uses to fan segment work out to a backend.
PartialsMap = Callable[[Sequence[CallData], np.ndarray, int,
                        Sequence[Tuple[int, int]]], List[List[Partial]]]


def _expand(values: np.ndarray, mask: Optional[np.ndarray], num_rows: int,
            ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Broadcast a scalar evaluation result (and its mask) to batch length."""
    values = np.asarray(values)
    if values.ndim == 0:
        # lint: allow(unaccounted-allocation) — broadcast scratch bounded
        # by the input batch, which is charged as the upstream operator's
        # output; the aggregate reservation covers only the partial state.
        values = np.full(num_rows, values)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim == 0:
            # lint: allow(unaccounted-allocation) — same bound as the
            # values broadcast above: one bool per input-batch row.
            mask = np.full(num_rows, bool(mask))
    return values, mask


def _group_ids(batch: Batch, group_by: Sequence[ScalarExpression],
               ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Assign a dense group id to every row.

    NULL group keys are canonicalised (filler value + the mask itself joins
    the key) so all NULL rows land in one group regardless of the filler
    underneath.

    Returns ``(group_ids, first_row_index_per_group, num_groups)``.
    """
    if not group_by:
        # lint: allow(unaccounted-allocation) — one int64 per input-batch
        # row; the batch itself is charged as the upstream operator's
        # output, and group ids are bounded by it.
        ids = np.zeros(batch.num_rows, dtype=np.int64)
        # lint: allow(unaccounted-allocation) — at most one element.
        first = np.zeros(1 if batch.num_rows else 0, dtype=np.int64)
        return ids, first, 1 if batch.num_rows else 0
    resolve = batch.masked_resolver()
    key_columns: List[np.ndarray] = []
    for expr in group_by:
        values, mask = expr.evaluate_masked(resolve)
        values, mask = _expand(values, mask, batch.num_rows)
        if mask is not None and not mask.any():
            mask = None  # filters upstream dropped every NULL
        if mask is not None:
            # The mask itself joins the key, so the canonical filler can
            # never merge a NULL group with a value group — it only has to
            # be sortable against the valid values (fill_masked borrows one
            # for object columns; None does not order against str).
            key_columns.append(fill_masked(values, mask))
            # int64, not bool: keeps combine_key_columns on its packed
            # two-int fast path for a single nullable integer group key.
            key_columns.append(mask.astype(np.int64))
        else:
            key_columns.append(values)
    combined = combine_key_columns(key_columns)
    _, first, inverse = np.unique(combined, return_index=True, return_inverse=True)
    return inverse.astype(np.int64), first.astype(np.int64), int(first.shape[0])


def _aggregate_column(call: AggregateCall, batch: Batch, group_ids: np.ndarray,
                      num_groups: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Compute one aggregate over all groups; returns ``(values, null_mask)``."""
    if call.operand is None:
        # COUNT(*) counts rows regardless of null content.
        # lint: allow(unaccounted-allocation) — COUNT(*) weights: one
        # float64 per input-batch row, bounded by the charged input batch.
        values = np.ones(batch.num_rows, dtype=np.float64)
        null_mask: Optional[np.ndarray] = None
    else:
        values, null_mask = call.operand.evaluate_masked(
            batch.masked_resolver())
        values, null_mask = _expand(values, null_mask, batch.num_rows)
        if null_mask is not None and not null_mask.any():
            null_mask = None

    # Aggregates over a column skip NULL inputs entirely.
    if null_mask is not None:
        keep = ~null_mask
        values = values[keep]
        group_ids = group_ids[keep]

    if call.distinct and call.operand is not None:
        # Distinct aggregates: reduce to one row per (group, value) first.
        pair_key = combine_key_columns([group_ids, np.asarray(values)])
        _, keep = np.unique(pair_key, return_index=True)
        group_ids = group_ids[keep]
        values = values[keep]

    valid_counts = np.bincount(group_ids, minlength=num_groups)
    if call.func is AggregateFunction.COUNT:
        return valid_counts.astype(np.float64), None

    # Groups with no valid input aggregate to NULL (SQL semantics).
    empty = valid_counts == 0
    result_mask = empty if bool(empty.any()) else None

    numeric = values.astype(np.float64)
    if call.func is AggregateFunction.SUM:
        out = np.bincount(group_ids, weights=numeric, minlength=num_groups)
    elif call.func is AggregateFunction.AVG:
        sums = np.bincount(group_ids, weights=numeric, minlength=num_groups)
        out = np.divide(sums, valid_counts, out=np.zeros_like(sums),
                        where=valid_counts > 0)
    elif call.func is AggregateFunction.MIN:
        # lint: allow(unaccounted-allocation) — one float64 per group
        # (groups <= rows), inside the caller's partials reservation.
        out = np.full(num_groups, np.inf)
        np.minimum.at(out, group_ids, numeric)
    elif call.func is AggregateFunction.MAX:
        # lint: allow(unaccounted-allocation) — same per-group bound as
        # the MIN branch above.
        out = np.full(num_groups, -np.inf)
        np.maximum.at(out, group_ids, numeric)
    else:
        raise ValueError("unsupported aggregate %r" % call.func)
    if result_mask is not None:
        out = out.copy()
        out[result_mask] = 0.0  # filler under the mask, never read as data
    return out, result_mask


# -- two-phase segment partials ---------------------------------------------

def segment_spans(num_rows: int) -> List[Tuple[int, int]]:
    """Fixed-width partial-state segments covering ``num_rows`` rows.

    Always at least one span — an empty batch yields one empty segment, so
    the zero-row global aggregate still produces its partial state (COUNT 0,
    everything else NULL).
    """
    if num_rows <= 0:
        return [(0, 0)]
    return [(start, min(start + AGG_SEGMENT_ROWS, num_rows))
            for start in range(0, num_rows, AGG_SEGMENT_ROWS)]


def _call_input(call: AggregateCall, batch: Batch) -> CallData:
    """Evaluate one aggregate call's operand over the whole batch."""
    if call.operand is None:
        # COUNT(*) counts rows regardless of null content.
        return call.func, None, None
    values, null_mask = call.operand.evaluate_masked(batch.masked_resolver())
    values, null_mask = _expand(values, null_mask, batch.num_rows)
    if null_mask is not None and not null_mask.any():
        null_mask = None
    return call.func, np.asarray(values), null_mask


def compute_segment_partials(calls_data: Sequence[CallData],
                             group_ids: np.ndarray, num_groups: int,
                             start: int, stop: int) -> List[Partial]:
    """Partial aggregate states of one row segment, one per call.

    Pure over read-only slices (runs unchanged in worker threads and worker
    processes).  A single whole-batch segment performs exactly the
    historical one-pass aggregation, operation for operation.
    """
    segment_ids = group_ids[start:stop]
    partials: List[Partial] = []
    for func, values, null_mask in calls_data:
        ids = segment_ids
        keep: Optional[np.ndarray] = None
        if null_mask is not None:
            # Aggregates over a column skip NULL inputs entirely.
            keep = ~null_mask[start:stop]
            ids = ids[keep]
        counts = np.bincount(ids, minlength=num_groups)
        if values is None or func is AggregateFunction.COUNT:
            partials.append((counts, None))
            continue
        numeric = values[start:stop]
        if keep is not None:
            numeric = numeric[keep]
        numeric = numeric.astype(np.float64)
        if func in (AggregateFunction.SUM, AggregateFunction.AVG):
            stat = np.bincount(ids, weights=numeric, minlength=num_groups)
        elif func is AggregateFunction.MIN:
            # lint: allow(unaccounted-allocation) — per-span partial state
            # (16 bytes x calls x groups), exactly what the executor's
            # estimate_partials_bytes reservation covers.
            stat = np.full(num_groups, np.inf)
            np.minimum.at(stat, ids, numeric)
        elif func is AggregateFunction.MAX:
            # lint: allow(unaccounted-allocation) — same partials-
            # reservation bound as the MIN branch above.
            stat = np.full(num_groups, -np.inf)
            np.maximum.at(stat, ids, numeric)
        else:
            raise ValueError("unsupported aggregate %r" % func)
        partials.append((counts, stat))
    return partials


def fold_partial_pair(func: AggregateFunction, left: Partial,
                      right: Partial) -> Partial:
    """Fold one later-segment partial into the running accumulation.

    The single fold step shared by the in-memory merge and the spill path's
    streaming merge: applying it left-to-right over the canonical segment
    sequence performs exactly the same float operations either way, which is
    what keeps spilled aggregation bit-identical.
    """
    counts = left[0] + right[0]
    if left[1] is None or right[1] is None:
        return counts, None
    if func in (AggregateFunction.SUM, AggregateFunction.AVG):
        stat = left[1] + right[1]
    elif func is AggregateFunction.MIN:
        stat = np.minimum(left[1], right[1])
    else:
        stat = np.maximum(left[1], right[1])
    return counts, stat


def finalize_partial(func: AggregateFunction, folded: Partial,
                     ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Turn the fully folded partial state into final group values."""
    counts, stat = folded
    if func is AggregateFunction.COUNT:
        return counts.astype(np.float64), None

    # Groups with no valid input aggregate to NULL (SQL semantics).
    empty = counts == 0
    result_mask: Optional[np.ndarray] = empty if bool(empty.any()) else None

    if func is AggregateFunction.AVG:
        out = np.divide(stat, counts, out=np.zeros_like(stat),
                        where=counts > 0)
    else:
        out = stat
    if result_mask is not None:
        out = out.copy()
        out[result_mask] = 0.0  # filler under the mask, never read as data
    return out, result_mask


def merge_partials(func: AggregateFunction, partials: Sequence[Partial],
                   ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Fold per-segment partials (in segment order) into final group values.

    The fold is left-to-right over the canonical segment sequence, so its
    floating-point result depends only on the segment width, never on which
    backend computed the partials.
    """
    folded = partials[0]
    for partial in partials[1:]:
        folded = fold_partial_pair(func, folded, partial)
    return finalize_partial(func, folded)


# -- process-backend partials kernel ------------------------------------------

def export_partials_task(arena: ShmArena, calls_data: Sequence[CallData],
                         group_ids: np.ndarray,
                         num_groups: int) -> Dict[str, Any]:
    """Publish the full-batch aggregation inputs for worker processes.

    Operand values, null masks and the group-id vector are exported once
    (memoized) into shared memory; every segment task reuses the same
    pages and pickles back only its ``num_groups``-sized partials.
    """
    return {
        "calls": [(func.name,
                   arena.export_optional(values),
                   arena.export_optional(null_mask))
                  for func, values, null_mask in calls_data],
        "group_ids": arena.export(group_ids),
        "num_groups": num_groups,
    }


def segment_partials_kernel(payload: Dict[str, Any], start: int,
                            stop: int) -> List[Partial]:
    """Process-pool kernel: one segment's partials from shared-memory views."""
    calls_data: List[CallData] = [
        (AggregateFunction[name], attach_array(values_ref),
         attach_array(mask_ref))
        for name, values_ref, mask_ref in payload["calls"]]
    return compute_segment_partials(calls_data,
                                    attach_array(payload["group_ids"]),
                                    payload["num_groups"], start, stop)


def _inline_partials_map(calls_data: Sequence[CallData],
                         group_ids: np.ndarray, num_groups: int,
                         spans: Sequence[Tuple[int, int]],
                         ) -> List[List[Partial]]:
    """The serial fallback :data:`PartialsMap` (no pool, no cancel hooks)."""
    return [compute_segment_partials(calls_data, group_ids, num_groups,
                                     start, stop)
            for start, stop in spans]


def _segmented(call: AggregateCall) -> bool:
    """True when the call aggregates via decomposable segment partials."""
    # DISTINCT dedups against the whole batch; it stays single-phase.
    return not (call.distinct and call.operand is not None)


def estimate_partials_bytes(num_calls: int, num_groups: int,
                            num_spans: int) -> int:
    """Bytes the in-memory partial states of all segments occupy at once.

    Every call keeps an int64 count vector and (for non-COUNT) a float64
    statistic vector per segment; sixteen bytes per group per call per
    segment is the upper bound the budget reservation covers.
    """
    return 16 * num_calls * max(num_groups, 1) * max(num_spans, 1)


def _spill_partials(calls_data: Sequence[CallData], group_ids: np.ndarray,
                    num_groups: int, spans: Sequence[Tuple[int, int]],
                    budget: MemoryBudget,
                    poll: Optional[Callable[[], None]] = None,
                    ) -> List[Partial]:
    """Compute segment partials through spill files; returns folded partials.

    The degraded path when all segments' partials do not fit the budget:
    each segment's partials are written to a spill chunk as they are
    produced (phase one holds one segment of state), then the chunks are
    re-read *in segment order* and folded with :func:`fold_partial_pair` —
    the identical left-to-right fold the in-memory merge performs, so the
    result is bit-identical.  ``poll`` runs once per chunk in both phases,
    making the spill cancellable at chunk granularity.
    """
    budget.count_operator_spill("aggregate")
    paths: List[str] = []
    for start, stop in spans:
        if poll is not None:
            poll()
        partials = compute_segment_partials(calls_data, group_ids,
                                            num_groups, start, stop)
        arrays: Dict[str, np.ndarray] = {}
        for position, (counts, stat) in enumerate(partials):
            arrays["counts%d" % position] = counts
            if stat is not None:
                arrays["stat%d" % position] = stat
        paths.append(budget.write_spill("aggregate", arrays))

    # One accumulator (a single segment's worth of state) streams the
    # chunks back in segment order.
    accum_bytes = estimate_partials_bytes(len(calls_data), num_groups, 1)
    budget.require(accum_bytes, "aggregate spill accumulator")
    try:
        folded: Optional[List[Partial]] = None
        for path in paths:
            if poll is not None:
                poll()
            arrays = MemoryBudget.read_spill(path)
            MemoryBudget.drop_spill(path)
            partials = [(arrays["counts%d" % position],
                         arrays.get("stat%d" % position))
                        for position in range(len(calls_data))]
            if folded is None:
                folded = partials
            else:
                folded = [fold_partial_pair(func, left, right)
                          for (func, _, _), left, right
                          in zip(calls_data, folded, partials)]
        assert folded is not None  # segment_spans always yields >= 1 span
        return folded
    finally:
        budget.release(accum_bytes)


def aggregate_batch(batch: Batch, group_by: Sequence[ScalarExpression],
                    items: Sequence[OutputItem],
                    partials_map: Optional[PartialsMap] = None,
                    budget: Optional[MemoryBudget] = None,
                    poll: Optional[Callable[[], None]] = None) -> Batch:
    """Group ``batch`` and compute the SELECT-list items.

    The output batch contains one column per item, keyed by the item's output
    name; non-aggregate items are evaluated on the first row of each group
    (they are group-by expressions in a well-formed query).

    ``partials_map`` is the executor's hook for computing segment partials
    on a worker backend; results are bit-identical to the inline fallback
    because the segmentation (and the merge order) never varies with it.

    ``budget`` arms the memory-governed path: the partial states of all
    segments are reserved up front, and a denied reservation degrades to
    :func:`_spill_partials` (segment partials through spill files, streamed
    back in segment order) instead of failing — with bit-identical results.
    """
    group_ids, first_rows, num_groups = _group_ids(batch, group_by)
    if num_groups == 0:
        if group_by or any(not isinstance(item.expression, AggregateCall)
                           for item in items):
            return Batch({item.name: np.asarray([]) for item in items})
        # SQL: a global aggregate over zero input rows still yields exactly
        # one row — COUNT 0, every other aggregate NULL.  The aggregation
        # below produces that from the empty batch once told there is one
        # group.
        num_groups = 1

    segmented = [item for item in items
                 if isinstance(item.expression, AggregateCall)
                 and _segmented(item.expression)]
    merged: Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
    if segmented:
        calls_data = [_call_input(item.expression, batch)
                      for item in segmented]
        spans = segment_spans(batch.num_rows)
        partial_bytes = estimate_partials_bytes(len(calls_data), num_groups,
                                                len(spans))
        reserved = budget.try_reserve(partial_bytes) if budget is not None \
            else True
        try:
            if not reserved:
                assert budget is not None  # a denial implies a budget
                folded = _spill_partials(calls_data, group_ids, num_groups,
                                         spans, budget, poll)
                for position, item in enumerate(segmented):
                    merged[item.name] = finalize_partial(
                        item.expression.func, folded[position])
            else:
                per_span = (partials_map or _inline_partials_map)(
                    calls_data, group_ids, num_groups, spans)
                for position, item in enumerate(segmented):
                    partials = [span_partials[position]
                                for span_partials in per_span]
                    merged[item.name] = merge_partials(item.expression.func,
                                                       partials)
        finally:
            if reserved and budget is not None:
                budget.release(partial_bytes)

    columns: Dict[str, np.ndarray] = {}
    masks: Dict[str, Optional[np.ndarray]] = {}
    resolve = batch.masked_resolver()
    for item in items:
        if item.name in merged:
            columns[item.name], masks[item.name] = merged[item.name]
        elif isinstance(item.expression, AggregateCall):
            columns[item.name], masks[item.name] = _aggregate_column(
                item.expression, batch, group_ids, num_groups)
        else:
            values, mask = item.expression.evaluate_masked(resolve)
            values, mask = _expand(values, mask, batch.num_rows)
            columns[item.name] = values[first_rows]
            mask = mask[first_rows] if mask is not None else None
            if mask is not None and not mask.any():
                mask = None  # all surviving group keys are valid
            masks[item.name] = mask
    return Batch(columns, masks)
