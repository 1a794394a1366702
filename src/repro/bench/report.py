"""Plain-text tables for experiment results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Table:
    """A titled table of experiment rows."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: str = ""

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row of {len(values)} values for {len(self.columns)} columns")
        self.rows.append(list(values))

    def column(self, name: str) -> list[Any]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def __str__(self) -> str:
        return format_table(self)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.2f}"
        return f"{v:.3f}"
    return str(v)


def format_table(table: Table) -> str:
    """Render a :class:`Table` as aligned plain text."""
    cells = [[_fmt(v) for v in row] for row in table.rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
              for i, c in enumerate(table.columns)]
    sep = "-+-".join("-" * w for w in widths)
    header = " | ".join(c.ljust(w) for c, w in zip(table.columns, widths))
    lines = [table.title, "=" * len(table.title), header, sep]
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    if table.notes:
        lines.append("")
        lines.append(table.notes)
    return "\n".join(lines)


def to_markdown(table: Table) -> str:
    """Render a :class:`Table` as GitHub-flavoured markdown."""
    lines = [f"## {table.title}", ""]
    lines.append("| " + " | ".join(table.columns) + " |")
    lines.append("|" + "|".join("---" for _ in table.columns) + "|")
    for row in table.rows:
        lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    if table.notes:
        lines.append("")
        lines.append(f"> {table.notes}")
    return "\n".join(lines)

