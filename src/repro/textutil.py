"""Dependency-free text helpers shared by examples and experiments.

Lives outside :mod:`repro.experiments` so the session API facade
(:mod:`repro.api`) can re-export :func:`format_table` without importing the
experiment harness (which itself builds on the API).
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render a fixed-width text table (used by examples and
    ``docs/reproduction.md``)."""
    columns = [list(map(str, column)) for column in
               zip(*([headers] + [list(map(str, row)) for row in rows]))] \
        if rows else [[str(h)] for h in headers]
    widths = [max(len(value) for value in column) for column in columns]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def percent_reduction(baseline: float, improved: float) -> float:
    """Percent reduction of ``improved`` relative to ``baseline``."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline
