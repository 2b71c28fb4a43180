"""Plain-text table rendering for benchmark output."""

from __future__ import annotations

from typing import Iterable, Mapping


def format_table(rows: Iterable[Mapping[str, object]], title: str | None = None) -> str:
    """Render dict-rows as an aligned ASCII table (keys = columns)."""
    rows = list(rows)
    if not rows:  # reach: tests/test_misc_modules.py::test_format_table_empty
        return f"{title or ''}\n(no rows)"
    columns = list(rows[0].keys())
    cells = [[_fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(str(c)), *(len(row[i]) for row in cells)) for i, c in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)
