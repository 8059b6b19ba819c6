"""Small reporting helpers: result tables rendered as text, markdown or CSV."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import List, Sequence, Union

__all__ = ["ResultTable", "format_seconds"]

Cell = Union[str, int, float, None]


def format_seconds(value: float) -> str:
    """Render a duration in seconds with a sensible precision."""
    if value >= 100:
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.1f}"
    return f"{value:.3f}"


def _render(cell: Cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, float):
        return format_seconds(cell)
    return str(cell)


@dataclass
class ResultTable:
    """A titled table of results (one per figure/table of the paper)."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Cell]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)} for table {self.title!r}"
            )
        self.rows.append(tuple(cells))

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        rendered = [[_render(c) for c in row] for row in self.rows]
        widths = [
            max(len(str(col)), *(len(row[i]) for row in rendered)) if rendered else len(str(col))
            for i, col in enumerate(self.columns)
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in rendered:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(str(c) for c in self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_render(c) for c in row) + " |")
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(["" if c is None else c for c in row])
        return buffer.getvalue()

    def __str__(self) -> str:
        return self.to_text()
