"""Reference checks: what makes a failed op mean something.

Three kinds of reference, none of them the code path under measurement:

* planning ops compare the rendered plan byte for byte with its section of
  ``tests/golden/tpch_plans.txt`` (read-only here);
* executed TPC-H ops compare their result with the one the ``NO_BF`` plan
  produced on a serial, unlimited-memory session — a different plan and a
  different executor route;
* ad-hoc serving ops compare with numpy computed straight from the tables.

Results are compared as canonical tables: columns by name, rows in a fixed
order, exact columns equal and float columns within 1e-9 relative — plans
that join in another order sum floats in another order.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

Canonical = Tuple[List[str], List[np.ndarray]]


def golden_sections(path: str) -> Dict[Tuple[str, str], str]:
    """``(query name, configuration label) -> section body`` of the golden
    plan file (the lines between one ``====`` header and the next)."""
    with open(path) as handle:
        parts = re.split(r"^==== (\S+) (\S+) ====\n", handle.read(),
                         flags=re.MULTILINE)
    # parts = [text before the first header, name, label, body, name, ...]
    return {(parts[i], parts[i + 1]): parts[i + 2].rstrip("\n")
            for i in range(1, len(parts), 3)}


def render_section(optimization: object) -> str:
    """One optimization result in the golden file's section format."""
    from repro.core import explain, join_order_summary

    lines = ["cost=%.6g rows=%.6g blooms=%d"
             % (optimization.estimated_cost, optimization.plan.rows,
                optimization.num_bloom_filters)]
    lines += ["join: %s" % entry
              for entry in join_order_summary(optimization.join_plan)]
    lines.append(explain(optimization.plan))
    return "\n".join(lines)


def _sort_key(column: np.ndarray) -> np.ndarray:
    """Floats to five significant digits, so last-bit noise cannot reorder."""
    if column.dtype.kind != "f":
        return column
    with np.errstate(all="ignore"):
        magnitude = 10.0 ** np.floor(np.log10(np.abs(
            np.where(column == 0, 1.0, column))))
    return np.round(column / magnitude, 4) * magnitude


def canonical_columns(names: Sequence[str],
                      columns: Sequence[np.ndarray]) -> Canonical:
    """Columns by name, rows ordered by exact columns first, floats last."""
    order = sorted(range(len(names)), key=lambda i: names[i])
    names = [names[i] for i in order]
    columns = [np.asarray(columns[i]) for i in order]
    if columns and columns[0].shape[0] > 1:
        keys = ([c for c in columns if c.dtype.kind != "f"]
                + [_sort_key(c) for c in columns if c.dtype.kind == "f"])
        rows = np.lexsort(keys[::-1])
        columns = [c[rows] for c in columns]
    return names, columns


def canonical(batch: object) -> Canonical:
    """Canonical table of an executor batch; NULLs become their own column."""
    names: List[str] = []
    columns: List[np.ndarray] = []
    for key in batch.keys:
        names.append(key)
        columns.append(batch.column(key))
        mask = batch.null_mask(key)
        if mask is not None:
            names.append(key + "#null")
            columns.append(mask)
    return canonical_columns(names, columns)


def same_result(left: Canonical, right: Canonical) -> bool:
    if left[0] != right[0]:
        return False
    for a, b in zip(left[1], right[1]):
        if a.shape != b.shape:
            return False
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            if not np.allclose(a.astype(float), b.astype(float),
                               rtol=1e-9, atol=1e-12, equal_nan=True):
                return False
        elif not np.array_equal(a, b):
            return False
    return True


def leaks(spill_root: str) -> List[str]:
    """What a closed workload left behind (must be empty)."""
    from repro.executor.shm import live_segment_names

    found = ["shared-memory segment %s" % name
             for name in live_segment_names()]
    if os.path.isdir(spill_root):
        found += ["spill entry %s" % entry
                  for entry in sorted(os.listdir(spill_root))]
    found += ["thread %s" % thread.name for thread in threading.enumerate()
              if thread.name.startswith("repro-serving-")]
    return found
