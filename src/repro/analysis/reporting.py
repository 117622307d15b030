"""Plain-text table rendering for experiment reports.

The CLI prints each experiment's results as an aligned monospace table
— the library's stand-in for the tables a systems paper would typeset.
Keeping this dependency-free (no tabulate) matches the offline
environment.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned text table with a rule under the header."""
    materialized: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def line(cells: Sequence[str]) -> str:
        padded = [
            cells[i].ljust(widths[i]) if i < len(cells) else " " * widths[i]
            for i in range(len(widths))
        ]
        return "  ".join(padded).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(list(headers)))
    parts.append(line(["-" * w for w in widths]))
    for row in materialized:
        parts.append(line(row))
    return "\n".join(parts)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)
