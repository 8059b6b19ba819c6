"""Physical plans extracted from the plan DP's tables.

A :class:`PhysicalPlan` is an immutable tree of physical operators with
costs, cardinalities and delivered sort orders attached.  The DP itself and
the MQO strategies work on costs alone; a tree is built only for a set
somebody reads as trees — the examples and the execution engine
(``pretty()`` renders it, the executor interprets it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Tuple

from ..algebra.expressions import AggregateExpr, ColumnRef, Predicate
from ..algebra.properties import SortOrder

__all__ = ["PhysicalOp", "PhysicalPlan"]


class PhysicalOp(str, Enum):
    """The physical operators of the reproduction's execution model."""

    TABLE_SCAN = "TableScan"
    INDEX_SCAN = "IndexScan"
    FILTER = "Filter"
    MERGE_JOIN = "MergeJoin"
    NESTED_LOOP_JOIN = "NestedLoopJoin"
    INDEX_NL_JOIN = "IndexNestedLoopJoin"
    SORT = "Sort"
    SORT_AGGREGATE = "SortAggregate"
    SCALAR_AGGREGATE = "ScalarAggregate"
    MATERIALIZE = "Materialize"
    READ_MATERIALIZED = "ReadMaterialized"


@dataclass(frozen=True)
class PhysicalPlan:
    """A physical operator with its children and accumulated cost.

    Attributes:
        op: the physical operator.
        group: the memo group this plan computes.
        cost: total cost of the subtree (children included), in milliseconds.
        local_cost: this operator's own cost.
        rows / width: estimated output cardinality and row width.
        order: the sort order the operator delivers.
        children: input plans.
        table: base table name (scans only).
        predicate: filter / join predicate, if any.
        group_by / aggregates: aggregation payload, if any.
    """

    op: PhysicalOp
    group: int
    cost: float
    local_cost: float
    rows: float
    width: float
    order: SortOrder = SortOrder()
    children: Tuple["PhysicalPlan", ...] = ()
    table: Optional[str] = None
    alias: Optional[str] = None
    predicate: Optional[Predicate] = None
    group_by: Tuple[ColumnRef, ...] = ()
    aggregates: Tuple[AggregateExpr, ...] = ()

    # -- traversal ---------------------------------------------------------

    def iter_nodes(self) -> Iterator["PhysicalPlan"]:
        """Yield every operator of the plan in pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def operator_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def uses_materialized(self) -> Tuple[int, ...]:
        """Group ids of materialized results this plan reads."""
        return tuple(
            node.group for node in self.iter_nodes() if node.op is PhysicalOp.READ_MATERIALIZED
        )

    # -- rendering ---------------------------------------------------------

    def _describe(self) -> str:
        parts = [self.op.value]
        if self.table:
            parts.append(f"table={self.table}")
        if self.predicate is not None:
            parts.append(f"pred=({self.predicate})")
        if self.group_by or self.aggregates:
            keys = ", ".join(str(c) for c in self.group_by) or "()"
            parts.append(f"group_by=[{keys}]")
        parts.append(f"rows={self.rows:.0f}")
        parts.append(f"cost={self.cost:.1f}ms")
        return " ".join(parts)

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [pad + self._describe()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.pretty()
