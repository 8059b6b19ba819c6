"""Small reporting helpers: result tables rendered as text, markdown or CSV."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..obs import HistogramSnapshot

__all__ = ["ResultTable", "format_seconds", "session_counters_table"]

#: The latency histogram series a serving report surfaces percentiles for.
LATENCY_SERIES = (
    "session_optimize_seconds",
    "session_execute_seconds",
    "scheduler_queue_wait_seconds",
)

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


def session_counters_table(session, title: str = "Session counters") -> "ResultTable":
    """Every counter a serving session exposes, as one ``counter | value`` table.

    Besides the :class:`~repro.service.session.SessionStatistics` this
    includes the materialization cache's counters (prefixed ``matcache_``)
    — a spilling cache's disk-tier counters and current disk usage
    included — and, when the session runs with the adaptive feedback loop
    enabled, the feedback store's collection counters (prefixed
    ``feedback_``) plus its current size and epoch, so drift activity shows
    up next to the classic reuse statistics.  Every counter group is read
    through its owner's ``statistics_snapshot()`` — a consistent,
    under-the-lock copy.
    """
    table = ResultTable(title, ["counter", "value"])
    for name, value in session.statistics_snapshot().items():
        table.add_row(name, value)
    matcache = session.matcache
    for name, value in matcache.statistics_snapshot().items():
        table.add_row(f"matcache_{name}", value)
    if hasattr(matcache, "disk_entries"):  # the durable tier's current footprint
        table.add_row("matcache_disk_entries", matcache.disk_entries)
        table.add_row("matcache_disk_bytes", matcache.disk_bytes)
    feedback = session.feedback
    if feedback is not None:
        for name, value in feedback.statistics_snapshot().items():
            table.add_row(f"feedback_{name}", value)
        table.add_row("feedback_tracked_nodes", len(feedback))
        table.add_row("feedback_epoch", feedback.epoch)
    # One row per labeled latency series (per strategy), plus the
    # bucket-merged roll-up across series.
    registry = session.obs.registry
    for name in LATENCY_SERIES:
        series = registry.histogram_snapshots(name)
        for labels, snapshot in sorted(series.items()):
            table.add_row(_series_title(name, labels), _percentile_cell(snapshot))
        if len(series) > 1:
            merged = HistogramSnapshot.merge(list(series.values()))
            table.add_row(f"{name} (all)", _percentile_cell(merged))
    return table


def _series_title(name: str, labels) -> str:
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def _format_latency(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.2f}ms"


def _percentile_cell(snapshot: "HistogramSnapshot") -> str:
    return (
        f"p50 {_format_latency(snapshot.p50)} / "
        f"p95 {_format_latency(snapshot.p95)} / "
        f"p99 {_format_latency(snapshot.p99)} (n={snapshot.count})"
    )


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
