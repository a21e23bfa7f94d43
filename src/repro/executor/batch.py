"""Column batches flowing between executor operators.

A :class:`Batch` is the executor's unit of data: a set of equal-length numpy
arrays keyed by ``alias.column``.  Keeping the relation alias in the key means
columns from different relations never collide after joins, and expression
evaluation can resolve a :class:`~repro.core.expressions.ColumnRef` directly.

Every column may carry an optional *null mask*: a boolean array of the same
length with ``True`` marking NULL rows.  ``None`` means "all rows valid" and
is the fast path — all-valid columns take exactly the pre-mask vectorised
code, so NULL support costs nothing on NULL-free workloads (see
``docs/nulls.md``).  Values at masked positions are unspecified filler and
must never be interpreted as data.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.expressions import ColumnRef, MaskedColumnResolver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.table import Table


class Batch:
    """An immutable set of named columns of equal length, with null masks."""

    def __init__(self, columns: Mapping[str, np.ndarray],
                 masks: Optional[Mapping[str, Optional[np.ndarray]]] = None,
                 ) -> None:
        self._columns: Dict[str, np.ndarray] = {}
        self._masks: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for key, values in columns.items():
            array = np.asarray(values)
            if length is None:
                length = array.shape[0]
            elif array.shape[0] != length:
                raise ValueError("column %r has %d rows, expected %d"
                                 % (key, array.shape[0], length))
            self._columns[key] = array
        if masks:
            for key, mask in masks.items():
                if mask is None:
                    continue
                if key not in self._columns:
                    raise ValueError("null mask for unknown column %r" % key)
                mask = np.asarray(mask, dtype=bool)
                if mask.shape != self._columns[key].shape:
                    raise ValueError("null mask of column %r has shape %r, "
                                     "expected %r" % (key, mask.shape,
                                                      self._columns[key].shape))
                self._masks[key] = mask
        self._num_rows = length or 0
        #: Per-batch kernel state (factorized join keys, unique valid values)
        #: keyed by (kernel kind, column keys); see :meth:`kernel_memo`.
        self._kernel_memo: Dict[Hashable, Any] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_table(cls, alias: str, table: "Table",
                   start: Optional[int] = None,
                   stop: Optional[int] = None) -> "Batch":
        """Wrap a storage table's columns under ``alias.column`` keys.

        ``start``/``stop`` select a contiguous row span (a morsel) without
        copying — numpy slices are views, so emitting a table as many small
        batches costs no more memory than one big batch.
        """
        span = slice(start or 0, stop)
        columns = {}
        masks = {}
        for name in table.column_names:
            key = "%s.%s" % (alias, name)
            columns[key] = table.column(name)[span]
            mask = table.null_mask(name)
            if mask is not None:
                masks[key] = mask[span]
        return cls(columns, masks)

    @classmethod
    def empty(cls) -> "Batch":
        """A batch with no columns and no rows."""
        return cls({})

    @classmethod
    def concat(cls, pieces: Sequence["Batch"]) -> "Batch":
        """Row-wise concatenation of same-schema batches, mask-aware.

        Columns keep their order from the first piece; a column carries a
        mask in the result iff any piece masks it (mask-free pieces
        contribute all-valid rows).  Used to stitch morsel outputs back
        together in canonical order.
        """
        if len(pieces) == 1:
            return pieces[0]
        columns = {}
        masks = {}
        for key in pieces[0].keys:
            # lint: allow(mask-accessor-bypass) — this IS the accessor layer:
            # the matching masks are concatenated in lockstep right below.
            columns[key] = np.concatenate([piece.column(key)
                                           for piece in pieces])
            piece_masks = [piece.null_mask(key) for piece in pieces]
            if any(mask is not None for mask in piece_masks):
                masks[key] = np.concatenate([
                    mask if mask is not None
                    else np.zeros(piece.num_rows, dtype=bool)
                    for piece, mask in zip(pieces, piece_masks)])
        return cls(columns, masks)

    # -- accessors -----------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def keys(self) -> List[str]:
        return list(self._columns)

    @property
    def nbytes(self) -> int:
        """Resident bytes of this batch's columns and null masks.

        The number a memory reservation for the batch must cover — views
        report their viewed extent, so zero-copy morsels count their own
        rows, not the whole parent array.
        """
        total = sum(array.nbytes for array in self._columns.values())
        total += sum(mask.nbytes for mask in self._masks.values())
        return int(total)

    def column(self, key: str) -> np.ndarray:
        if key not in self._columns:
            raise KeyError("batch has no column %r (available: %r)"
                           % (key, sorted(self._columns)))
        return self._columns[key]

    def null_mask(self, key: str) -> Optional[np.ndarray]:
        """Null mask of ``key`` (``None`` when every row is valid)."""
        if key not in self._columns:
            raise KeyError("batch has no column %r (available: %r)"
                           % (key, sorted(self._columns)))
        return self._masks.get(key)

    def has_masks(self) -> bool:
        """True if any column carries a null mask."""
        return bool(self._masks)

    def has_column(self, key: str) -> bool:
        return key in self._columns

    def freeze(self) -> "Batch":
        """Mark every column and null mask read-only, in place.

        Applied to batches shared between callers — result-cache entries and
        collapsed ``execute_many`` requests — so one caller mutating its
        arrays (or a fetched null mask) raises ``ValueError`` instead of
        silently corrupting every other caller's view.  Clearing the
        writeable flag is always legal on views and never copies; the
        storage arrays a zero-copy scan sliced from stay writable.
        """
        for array in self._columns.values():
            array.flags.writeable = False
        for mask in self._masks.values():
            mask.flags.writeable = False
        return self

    def kernel_memo(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Memoized per-batch kernel state (batches are immutable).

        A build side probed repeatedly — by every morsel of the probe side,
        or by several joins / Bloom builds sharing one batch — pays for key
        factorization exactly once; the memo keeps the derived structure
        alive exactly as long as the batch itself.  Benign under concurrent
        executions: a race recomputes an equivalent value, never a wrong one.
        """
        try:
            return self._kernel_memo[key]
        except KeyError:
            # lint: allow(worker-shared-mutation) — benign race by design: a
            # losing thread recomputes an equivalent immutable value; the
            # dict store itself is atomic under the GIL (see docstring).
            value = self._kernel_memo[key] = compute()
            return value

    def unique_valid(self, key: str) -> np.ndarray:
        """Memoized sorted distinct *valid* values of one column.

        Bloom filters are sets, so building them from the distinct valid
        values yields the identical bit vector while hashing each key once.
        """

        def compute() -> np.ndarray:
            values = self.column(key)
            mask = self._masks.get(key)
            if mask is not None:
                values = values[~mask]
            return np.unique(values)

        return self.kernel_memo(("unique_valid", key), compute)

    def masked_resolver(self) -> MaskedColumnResolver:
        """Masked column resolver usable by three-valued evaluation."""

        def resolve(ref: ColumnRef) -> Tuple[np.ndarray, Optional[np.ndarray]]:
            key = "%s.%s" % (ref.relation, ref.column)
            return self.column(key), self._masks.get(key)

        return resolve

    def resolve(self, ref: ColumnRef) -> np.ndarray:
        """Array for one column reference."""
        return self.column("%s.%s" % (ref.relation, ref.column))

    def resolve_masked(self, ref: ColumnRef,
                       ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(values, null_mask)`` for one column reference."""
        key = "%s.%s" % (ref.relation, ref.column)
        return self.column(key), self._masks.get(key)

    # -- derivation ------------------------------------------------------------

    def filter(self, mask: np.ndarray) -> "Batch":
        """Rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        return Batch({key: values[mask] for key, values in self._columns.items()},
                     {key: nulls[mask] for key, nulls in self._masks.items()})

    def take(self, indices: np.ndarray) -> "Batch":
        """Rows at the given positions (may repeat / reorder)."""
        indices = np.asarray(indices)
        return Batch({key: values[indices]
                      for key, values in self._columns.items()},
                     {key: nulls[indices]
                      for key, nulls in self._masks.items()})

    def merge(self, other: "Batch") -> "Batch":
        """Column-wise concatenation of two batches with equal row counts."""
        if other.num_rows != self.num_rows:
            raise ValueError("cannot merge batches with %d and %d rows"
                             % (self.num_rows, other.num_rows))
        combined = dict(self._columns)
        masks = dict(self._masks)
        for key in other.keys:
            if key in combined:
                raise ValueError("duplicate column %r while merging batches" % key)
            combined[key] = other.column(key)
            mask = other.null_mask(key)
            if mask is not None:
                masks[key] = mask
        return Batch(combined, masks)

    def with_columns(self, extra: Mapping[str, np.ndarray],
                     extra_masks: Optional[Mapping[str, Optional[np.ndarray]]]
                     = None) -> "Batch":
        """A copy with additional columns (and optional masks) appended."""
        combined = dict(self._columns)
        combined.update({key: np.asarray(values) for key, values in extra.items()})
        masks: Dict[str, Optional[np.ndarray]] = dict(self._masks)
        if extra_masks:
            masks.update(extra_masks)
        return Batch(combined, masks)

    def select(self, keys: Iterable[str]) -> "Batch":
        """A copy containing only the listed columns."""
        keys = list(keys)
        return Batch({key: self.column(key) for key in keys},
                     {key: self._masks[key] for key in keys
                      if key in self._masks})

    def row_span(self, start: int, stop: int) -> "Batch":
        """Rows ``[start, stop)`` as a zero-copy view batch (a morsel)."""
        return Batch({key: values[start:stop]
                      for key, values in self._columns.items()},
                     {key: nulls[start:stop]
                      for key, nulls in self._masks.items()})

    def spans(self, morsel_size: int) -> List[Tuple[int, int]]:
        """Morsel spans ``[(start, stop), ...]`` covering this batch's rows.

        The canonical segmentation used by the executor's join probe,
        projection and parallel sort: contiguous, in row order, every span
        at most ``morsel_size`` rows.  An empty batch yields one empty span,
        so a zero-row input still runs its operator once, inline.
        """
        size = max(int(morsel_size), 1)
        return [(start, min(start + size, self._num_rows))
                for start in range(0, self._num_rows, size)] or [(0, 0)]

    def head(self, n: int) -> "Batch":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self.num_rows)))

    def to_dict(self) -> Dict[str, np.ndarray]:
        """The underlying columns (shared arrays, do not mutate)."""
        return dict(self._columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Batch(rows=%d, columns=%d)" % (self._num_rows, len(self._columns))
