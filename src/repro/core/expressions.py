"""Bound scalar expressions and predicates.

These classes are the *semantic* expression model shared by the optimizer and
the executor.  The SQL front end (:mod:`repro.sql`) parses text into a purely
syntactic AST and the binder lowers that AST into these classes, resolving
column references against the catalog.

Every expression knows which relations (by alias) it references, can estimate
nothing by itself (estimation lives in :mod:`repro.core.cardinality`), and can
evaluate itself against a *column resolver* — a callable mapping a
:class:`ColumnRef` to its column — which is how the executor runs predicates
and projections without the expression model knowing anything about physical
storage.

NULL semantics (see ``docs/nulls.md``): evaluation follows SQL's three-valued
logic.  The one entry point is :meth:`evaluate_masked`, which takes a
*masked* resolver returning ``(values, null_mask)`` pairs — the mask is
``None`` for all-valid columns (the fast path, plain vectorised code) or a
boolean array with ``True`` marking NULLs.
Scalar expressions propagate NULL through arithmetic and comparisons;
predicates use Kleene logic for AND/OR/NOT.  A predicate's value array means
"definitely TRUE": rows whose truth value is NULL carry ``False`` there and
``True`` in the returned mask, so a filter can keep exactly the
definitely-true rows without consulting the mask.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

#: Masked resolver used by the executor: maps a :class:`ColumnRef` to
#: ``(values, null_mask)`` where ``null_mask`` is ``None`` for all-valid
#: columns or a boolean array marking NULL positions.
MaskedColumnResolver = Callable[
    ["ColumnRef"], Tuple[np.ndarray, Optional[np.ndarray]]]


class ExpressionError(ValueError):
    """Raised for malformed or unevaluatable expressions."""


def combine_null_masks(*masks: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """OR together any number of optional null masks (``None`` = all valid)."""
    result: Optional[np.ndarray] = None
    for mask in masks:
        if mask is None:
            continue
        result = mask if result is None else (result | mask)
    return result


def _is_scalar_null(mask: Optional[np.ndarray]) -> bool:
    """True for the 0-d all-null mask produced by a NULL literal."""
    return (mask is not None and getattr(mask, "ndim", 1) == 0 and bool(mask))


def _full_mask(mask: Optional[np.ndarray],
               shape: Tuple[int, ...]) -> Optional[np.ndarray]:
    """Broadcast an optional mask to ``shape`` (None stays None)."""
    if mask is None:
        return None
    return np.broadcast_to(np.asarray(mask, dtype=bool), shape)


def fill_masked(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Copy of ``values`` with null positions replaced by comparable filler.

    The single place that knows how to canonicalise filler so masked rows
    can safely flow through comparators, sorts and group-key hashing:
    object arrays borrow a valid value (``None`` does not order against
    ``str``; an all-null column gets ``""``), fixed strings get the empty
    string, everything else zero.  The filled positions stay masked at the
    call sites, so the filler is never observable as data.
    """
    values = np.asarray(values)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), values.shape)
    out = values.copy()
    if values.dtype.kind == "O":
        valid = values[~mask]
        out[mask] = valid[0] if valid.size else ""
    elif values.dtype.kind in ("U", "S"):
        out[mask] = values.dtype.type()
    else:
        out[mask] = values.dtype.type(0)
    return out


def _comparable(values: np.ndarray,
                mask: Optional[np.ndarray]) -> np.ndarray:
    """Make masked object-array filler safe to feed through a comparator.

    Non-object dtypes (NaN, 0, ``""``) are already comparable and pass
    through untouched; object columns are re-filled via :func:`fill_masked`.
    """
    values = np.asarray(values)
    if mask is None or values.dtype.kind != "O" or values.ndim == 0:
        return values
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), values.shape)
    if not mask.any():
        return values
    return fill_masked(values, mask)


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


class ScalarExpression:
    """Base class for scalar (row-wise) expressions."""

    def referenced_columns(self) -> List["ColumnRef"]:
        """All column references appearing in this expression."""
        raise NotImplementedError

    def referenced_relations(self) -> FrozenSet[str]:
        """Aliases of all relations referenced by this expression."""
        return frozenset(col.relation for col in self.referenced_columns())

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Evaluate to ``(values, null_mask)`` over a batch of rows.

        ``null_mask`` is ``None`` when every value is valid; values at null
        positions are unspecified filler and must never be read as data.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(ScalarExpression):
    """A reference to ``relation.column`` where relation is a FROM alias."""

    relation: str
    column: str

    def referenced_columns(self) -> List["ColumnRef"]:
        return [self]

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        return resolve(self)

    def __str__(self) -> str:
        return "%s.%s" % (self.relation, self.column)


@dataclass(frozen=True)
class Literal(ScalarExpression):
    """A constant value; ``Literal(None)`` is the SQL NULL literal."""

    value: object

    def referenced_columns(self) -> List[ColumnRef]:
        return []

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        if self.value is None:
            return np.zeros((), dtype=np.float64), np.ones((), dtype=bool)
        return np.asarray(self.value), None

    def __str__(self) -> str:
        return "null" if self.value is None else repr(self.value)


class ArithmeticOp(enum.Enum):
    """Binary arithmetic operators."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


@dataclass(frozen=True)
class Arithmetic(ScalarExpression):
    """Binary arithmetic over two scalar expressions (NULL-propagating)."""

    op: ArithmeticOp
    left: ScalarExpression
    right: ScalarExpression

    def referenced_columns(self) -> List[ColumnRef]:
        return self.left.referenced_columns() + self.right.referenced_columns()

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        lhs_raw, lhs_mask = self.left.evaluate_masked(resolve)
        rhs_raw, rhs_mask = self.right.evaluate_masked(resolve)
        lhs = np.asarray(lhs_raw, dtype=np.float64)
        rhs = np.asarray(rhs_raw, dtype=np.float64)
        if self.op is ArithmeticOp.ADD:
            values = lhs + rhs
        elif self.op is ArithmeticOp.SUB:
            values = lhs - rhs
        elif self.op is ArithmeticOp.MUL:
            values = lhs * rhs
        elif self.op is ArithmeticOp.DIV:
            with np.errstate(divide="ignore", invalid="ignore"):
                values = np.where(rhs != 0, lhs / rhs, 0.0)
        else:
            raise ExpressionError("unknown arithmetic operator %r" % self.op)
        mask = combine_null_masks(lhs_mask, rhs_mask)
        return values, _full_mask(mask, np.shape(values))

    def __str__(self) -> str:
        return "(%s %s %s)" % (self.left, self.op.value, self.right)


@dataclass(frozen=True)
class ExtractYear(ScalarExpression):
    """``EXTRACT(YEAR FROM date_column)`` over the integer date encoding."""

    operand: ScalarExpression

    def referenced_columns(self) -> List[ColumnRef]:
        return self.operand.referenced_columns()

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        raw, mask = self.operand.evaluate_masked(resolve)
        days = np.asarray(raw)
        if mask is not None and days.dtype.kind == "f":
            # Null positions may hold NaN; zero them before the integer cast.
            days = np.where(np.broadcast_to(mask, days.shape), 0.0, days)
        days = days.astype(np.int64)
        # Days-since-epoch to year without pulling in datetime per row.
        dates = days.astype("datetime64[D]")
        years = dates.astype("datetime64[Y]").astype(np.int64) + 1970
        return years, _full_mask(mask, np.shape(years))

    def __str__(self) -> str:
        return "extract(year from %s)" % (self.operand,)


@dataclass(frozen=True)
class Coalesce(ScalarExpression):
    """``COALESCE(a, b, ...)``: the first non-NULL operand, row-wise.

    Works directly over the mask representation: a row takes the value of
    the first operand whose mask is clear there; rows where every operand is
    NULL stay NULL.  With no masks anywhere the first operand passes through
    untouched (the mask-free fast path).
    """

    operands: Tuple[ScalarExpression, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ExpressionError("coalesce takes at least two operands")

    def referenced_columns(self) -> List["ColumnRef"]:
        return [col for operand in self.operands
                for col in operand.referenced_columns()]

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        first_values, first_mask = self.operands[0].evaluate_masked(resolve)
        if first_mask is None or not np.any(first_mask):
            # Mask-free fast path: the fallbacks are never even evaluated.
            return first_values, None
        out = np.array(np.asarray(first_values))
        pending = np.array(np.broadcast_to(
            np.asarray(first_mask, dtype=bool), out.shape))
        for operand in self.operands[1:]:
            if not pending.any():
                break
            values, mask = operand.evaluate_masked(resolve)
            shape = np.broadcast_shapes(out.shape, np.shape(values))
            if shape != out.shape:
                out = np.array(np.broadcast_to(out, shape))
                pending = np.array(np.broadcast_to(pending, shape))
            values = np.broadcast_to(np.asarray(values), shape)
            valid = pending if mask is None else (
                pending & ~np.broadcast_to(np.asarray(mask, dtype=bool),
                                           shape))
            out = np.where(valid, values, out)
            pending = pending & ~valid
        return out, (pending if pending.any() else None)

    def __str__(self) -> str:
        return "coalesce(%s)" % ", ".join(str(op) for op in self.operands)


@dataclass(frozen=True)
class NullIf(ScalarExpression):
    """``NULLIF(a, b)``: NULL where ``a = b`` is definitely TRUE, else ``a``.

    SQL semantics over the mask representation: a row nulls out only when
    the equality holds with both sides valid — comparing with a NULL is
    UNKNOWN, which leaves ``a`` (including its own NULLs) untouched.
    """

    left: ScalarExpression
    right: ScalarExpression

    def referenced_columns(self) -> List["ColumnRef"]:
        return self.left.referenced_columns() + self.right.referenced_columns()

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        values, value_mask = self.left.evaluate_masked(resolve)
        other, other_mask = self.right.evaluate_masked(resolve)
        if _is_scalar_null(value_mask) or _is_scalar_null(other_mask):
            # A NULL literal side makes the equality UNKNOWN everywhere:
            # the left operand passes through unchanged.
            return values, _full_mask(value_mask, np.shape(values))
        equal = np.asarray(_comparable(values, value_mask)
                           == _comparable(other, other_mask), dtype=bool)
        unknown = _full_mask(combine_null_masks(value_mask, other_mask),
                             equal.shape)
        if unknown is not None:
            equal = equal & ~unknown
        shape = np.broadcast_shapes(np.shape(values), equal.shape)
        mask = combine_null_masks(_full_mask(value_mask, shape),
                                  np.broadcast_to(equal, shape))
        if mask is not None and not mask.any():
            mask = None
        return np.broadcast_to(np.asarray(values), shape), mask

    def __str__(self) -> str:
        return "nullif(%s, %s)" % (self.left, self.right)


class AggregateFunction(enum.Enum):
    """Supported aggregate functions."""

    SUM = "sum"
    COUNT = "count"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class AggregateCall(ScalarExpression):
    """An aggregate function call appearing in a SELECT list."""

    func: AggregateFunction
    operand: Optional[ScalarExpression]  # None for COUNT(*)
    distinct: bool = False

    def referenced_columns(self) -> List[ColumnRef]:
        return [] if self.operand is None else self.operand.referenced_columns()

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        raise ExpressionError("aggregates are evaluated by the Aggregate "
                              "operator, not row-wise")

    def __str__(self) -> str:
        inner = "*" if self.operand is None else str(self.operand)
        prefix = "distinct " if self.distinct else ""
        return "%s(%s%s)" % (self.func.value, prefix, inner)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Predicate:
    """Base class for boolean (filter) expressions.

    Masked evaluation returns ``(is_true, null_mask)`` where ``is_true[i]``
    holds only when the predicate is *definitely* TRUE for row ``i`` —
    UNKNOWN rows carry ``False`` there and ``True`` in ``null_mask``, so SQL
    WHERE semantics (drop non-TRUE rows) is ``filter(is_true)``.
    """

    def referenced_columns(self) -> List[ColumnRef]:
        """All column references appearing in this predicate."""
        raise NotImplementedError

    def referenced_relations(self) -> FrozenSet[str]:
        """Aliases of all relations referenced by this predicate."""
        return frozenset(col.relation for col in self.referenced_columns())

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Evaluate to a ``(definitely-true, unknown)`` mask pair."""
        raise NotImplementedError


class ComparisonOp(enum.Enum):
    """Comparison operators supported in predicates."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


_COMPARATORS = {
    ComparisonOp.EQ: lambda a, b: a == b,
    ComparisonOp.NE: lambda a, b: a != b,
    ComparisonOp.LT: lambda a, b: a < b,
    ComparisonOp.LE: lambda a, b: a <= b,
    ComparisonOp.GT: lambda a, b: a > b,
    ComparisonOp.GE: lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left <op> right`` where either side is a scalar expression.

    Comparing anything with NULL yields UNKNOWN, never TRUE or FALSE.
    """

    op: ComparisonOp
    left: ScalarExpression
    right: ScalarExpression

    def referenced_columns(self) -> List[ColumnRef]:
        return self.left.referenced_columns() + self.right.referenced_columns()

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        lhs, lhs_mask = self.left.evaluate_masked(resolve)
        rhs, rhs_mask = self.right.evaluate_masked(resolve)
        if _is_scalar_null(lhs_mask) or _is_scalar_null(rhs_mask):
            # One side is the NULL literal: skip the comparator entirely (the
            # dtypes may not even be comparable) — every row is UNKNOWN.
            shape = np.broadcast_shapes(np.shape(lhs), np.shape(rhs))
            return np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)
        values = np.asarray(
            _COMPARATORS[self.op](_comparable(lhs, lhs_mask),
                                  _comparable(rhs, rhs_mask)), dtype=bool)
        mask = _full_mask(combine_null_masks(lhs_mask, rhs_mask), values.shape)
        if mask is not None:
            values = values & ~mask
        return values, mask

    def is_equi_join(self) -> bool:
        """True if this is ``col = col`` across two different relations."""
        return (self.op is ComparisonOp.EQ
                and isinstance(self.left, ColumnRef)
                and isinstance(self.right, ColumnRef)
                and self.left.relation != self.right.relation)

    def __str__(self) -> str:
        return "%s %s %s" % (self.left, self.op.value, self.right)


@dataclass(frozen=True)
class Between(Predicate):
    """``operand BETWEEN low AND high`` (inclusive on both ends)."""

    operand: ScalarExpression
    low: ScalarExpression
    high: ScalarExpression

    def referenced_columns(self) -> List[ColumnRef]:
        return (self.operand.referenced_columns()
                + self.low.referenced_columns()
                + self.high.referenced_columns())

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        value, value_mask = self.operand.evaluate_masked(resolve)
        low, low_mask = self.low.evaluate_masked(resolve)
        high, high_mask = self.high.evaluate_masked(resolve)
        if any(_is_scalar_null(m) for m in (value_mask, low_mask, high_mask)):
            shape = np.broadcast_shapes(np.shape(value), np.shape(low),
                                        np.shape(high))
            return np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)
        value = _comparable(value, value_mask)
        low = _comparable(low, low_mask)
        high = _comparable(high, high_mask)
        values = np.asarray((value >= low) & (value <= high), dtype=bool)
        mask = _full_mask(combine_null_masks(value_mask, low_mask, high_mask),
                          values.shape)
        if mask is not None:
            values = values & ~mask
        return values, mask

    def __str__(self) -> str:
        return "%s between %s and %s" % (self.operand, self.low, self.high)


@dataclass(frozen=True)
class InList(Predicate):
    """``operand IN (v1, v2, ...)`` with literal list elements.

    A NULL element in the list follows SQL: rows that match a non-null
    element are TRUE, all other rows are UNKNOWN (never FALSE).
    """

    operand: ScalarExpression
    values: Tuple[object, ...]

    def referenced_columns(self) -> List[ColumnRef]:
        return self.operand.referenced_columns()

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        value, value_mask = self.operand.evaluate_masked(resolve)
        value = _comparable(value, value_mask)  # isin may sort object arrays
        literals = [v for v in self.values if v is not None]
        has_null_element = len(literals) < len(self.values)
        if literals:
            matches = np.isin(value, np.asarray(literals))
        else:
            matches = np.zeros(np.shape(value), dtype=bool)
        mask = _full_mask(value_mask, matches.shape)
        if has_null_element:
            unknown = ~matches if mask is None else (~matches | mask)
            return matches & ~unknown, unknown
        if mask is not None:
            matches = matches & ~mask
        return matches, mask

    def __str__(self) -> str:
        return "%s in (%s)" % (self.operand,
                               ", ".join(repr(v) for v in self.values))


@dataclass(frozen=True)
class Like(Predicate):
    """``operand [NOT] LIKE pattern`` supporting ``%`` and ``_`` wildcards."""

    operand: ScalarExpression
    pattern: str
    negated: bool = False

    def referenced_columns(self) -> List[ColumnRef]:
        return self.operand.referenced_columns()

    def _regex(self) -> "re.Pattern":
        parts = []
        for char in self.pattern:
            if char == "%":
                parts.append(".*")
            elif char == "_":
                parts.append(".")
            else:
                parts.append(re.escape(char))
        return re.compile("^" + "".join(parts) + "$")

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        regex = self._regex()
        values, value_mask = self.operand.evaluate_masked(resolve)
        values = np.atleast_1d(np.asarray(values))
        matches = np.fromiter((bool(regex.match(str(v))) for v in values),
                              dtype=bool, count=len(values))
        if self.negated:
            matches = ~matches
        mask = _full_mask(value_mask, matches.shape)
        if mask is not None:
            matches = matches & ~mask
        return matches, mask

    def __str__(self) -> str:
        op = "not like" if self.negated else "like"
        return "%s %s %r" % (self.operand, op, self.pattern)


@dataclass(frozen=True)
class IsNull(Predicate):
    """``operand IS NULL`` — always TRUE or FALSE, never UNKNOWN."""

    operand: ScalarExpression

    def referenced_columns(self) -> List[ColumnRef]:
        return self.operand.referenced_columns()

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        values, mask = self.operand.evaluate_masked(resolve)
        shape = np.shape(values)
        if mask is None:
            return np.zeros(shape, dtype=bool), None
        return np.broadcast_to(np.asarray(mask, dtype=bool), shape), None

    def __str__(self) -> str:
        return "%s is null" % (self.operand,)


@dataclass(frozen=True)
class IsNotNull(Predicate):
    """``operand IS NOT NULL`` — always TRUE or FALSE, never UNKNOWN."""

    operand: ScalarExpression

    def referenced_columns(self) -> List[ColumnRef]:
        return self.operand.referenced_columns()

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        values, mask = self.operand.evaluate_masked(resolve)
        shape = np.shape(values)
        if mask is None:
            return np.ones(shape, dtype=bool), None
        return ~np.broadcast_to(np.asarray(mask, dtype=bool), shape), None

    def __str__(self) -> str:
        return "%s is not null" % (self.operand,)


@dataclass(frozen=True)
class Not(Predicate):
    """Kleene negation: NOT UNKNOWN stays UNKNOWN."""

    operand: Predicate

    def referenced_columns(self) -> List[ColumnRef]:
        return self.operand.referenced_columns()

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        values, mask = self.operand.evaluate_masked(resolve)
        if mask is None:
            return ~values, None
        return ~values & ~mask, mask

    def __str__(self) -> str:
        return "not (%s)" % (self.operand,)


@dataclass(frozen=True)
class And(Predicate):
    """Kleene conjunction: FALSE dominates UNKNOWN."""

    operands: Tuple[Predicate, ...]

    def referenced_columns(self) -> List[ColumnRef]:
        return [col for p in self.operands for col in p.referenced_columns()]

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        if not self.operands:
            raise ExpressionError("empty AND")
        all_true: Optional[np.ndarray] = None
        any_false: Optional[np.ndarray] = None
        any_null: Optional[np.ndarray] = None
        for pred in self.operands:
            values, mask = pred.evaluate_masked(resolve)
            is_false = ~values if mask is None else (~values & ~mask)
            all_true = values if all_true is None else (all_true & values)
            any_false = is_false if any_false is None else (any_false | is_false)
            any_null = combine_null_masks(any_null, mask)
        if any_null is None:
            return all_true, None
        return all_true, (any_null & ~any_false)

    def __str__(self) -> str:
        return " and ".join("(%s)" % p for p in self.operands)


@dataclass(frozen=True)
class Or(Predicate):
    """Kleene disjunction: TRUE dominates UNKNOWN."""

    operands: Tuple[Predicate, ...]

    def referenced_columns(self) -> List[ColumnRef]:
        return [col for p in self.operands for col in p.referenced_columns()]

    def evaluate_masked(self, resolve: MaskedColumnResolver,
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        if not self.operands:
            raise ExpressionError("empty OR")
        any_true: Optional[np.ndarray] = None
        any_null: Optional[np.ndarray] = None
        for pred in self.operands:
            values, mask = pred.evaluate_masked(resolve)
            any_true = values if any_true is None else (any_true | values)
            any_null = combine_null_masks(any_null, mask)
        if any_null is None:
            return any_true, None
        return any_true, (any_null & ~any_true)

    def __str__(self) -> str:
        return " or ".join("(%s)" % p for p in self.operands)


def conjuncts(predicate: Predicate) -> List[Predicate]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if isinstance(predicate, And):
        result: List[Predicate] = []
        for operand in predicate.operands:
            result.extend(conjuncts(operand))
        return result
    return [predicate]


def conjunction(predicates: Sequence[Predicate]) -> Optional[Predicate]:
    """Combine predicates into a single AND (or return the single / None)."""
    preds = [p for p in predicates if p is not None]
    if not preds:
        return None
    if len(preds) == 1:
        return preds[0]
    return And(tuple(preds))
