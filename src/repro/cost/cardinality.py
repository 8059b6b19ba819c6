"""Cardinality and selectivity estimation.

Standard System-R style estimates driven by the catalog statistics:

* equality against a literal: ``1 / V(column)``,
* equality between two columns (join predicate): ``1 / max(V(a), V(b))``,
* range predicates: interpolated from the column's min/max bounds (default
  1/3 when bounds are unknown),
* conjunctions multiply, disjunctions use inclusion–exclusion under
  independence.

The estimator resolves a (possibly alias-qualified) column to the table that
provides it via a :class:`ColumnResolver`; derived sources (aggregation
blocks) expose their row count as the distinct count of their output
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Protocol, Tuple

from ..algebra.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    ComparisonOp,
    InList,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from ..catalog.catalog import Catalog

__all__ = [
    "DEFAULT_EQUALITY_SELECTIVITY",
    "DEFAULT_RANGE_SELECTIVITY",
    "ColumnInfo",
    "ColumnResolver",
    "CatalogResolver",
    "SelectivityEstimator",
]

#: Fallbacks when no statistics are available.
DEFAULT_EQUALITY_SELECTIVITY = 0.01
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
#: Floor applied to composite selectivities purely to avoid returning 0.0;
#: it must stay far below the product of the join selectivities of a large
#: multi-way join (clamping too early silently inflates cardinalities).
MIN_SELECTIVITY = 1e-300


@dataclass(frozen=True)
class ColumnInfo:
    """Everything the estimator needs to know about one column."""

    distinct: float
    min_value: Optional[float] = None
    max_value: Optional[float] = None

    @property
    def value_range(self) -> Optional[float]:
        if self.min_value is None or self.max_value is None:
            return None
        return max(self.max_value - self.min_value, 0.0)


class ColumnResolver(Protocol):
    """Resolves a column reference to its statistics (or ``None`` if unknown)."""

    def resolve(self, column: ColumnRef) -> Optional[ColumnInfo]:  # pragma: no cover
        ...


class CatalogResolver:
    """A resolver backed by the catalog plus an alias → table/derived mapping.

    Args:
        catalog: the catalog with base-table statistics.
        alias_tables: mapping from source alias to base table name.
        derived_rows: mapping from derived-source alias to its estimated row
            count (its columns get that as a distinct count).
    """

    def __init__(
        self,
        catalog: Catalog,
        alias_tables: Optional[Mapping[str, str]] = None,
        derived_rows: Optional[Mapping[str, float]] = None,
    ):
        self._catalog = catalog
        self._alias_tables = dict(alias_tables if alias_tables is not None else {})
        self._derived_rows = dict(derived_rows if derived_rows is not None else {})

    def resolve(self, column: ColumnRef) -> Optional[ColumnInfo]:
        table_name = None
        if column.qualifier is not None:
            if column.qualifier in self._derived_rows:
                rows = max(self._derived_rows[column.qualifier], 1.0)
                return ColumnInfo(distinct=rows)
            table_name = self._alias_tables.get(column.qualifier, column.qualifier)
            if not self._catalog.has_table(table_name):
                table_name = None
        if table_name is None:
            table_name = self._catalog.find_table_for_column(column.name)
        if table_name is None:
            return None
        stats = self._catalog.table_statistics(table_name)
        column_stats = stats.column(column.name)
        if column_stats is None:
            if not self._catalog.table(table_name).has_column(column.name):
                return None
            return ColumnInfo(distinct=max(stats.row_count, 1.0))
        return ColumnInfo(
            distinct=min(column_stats.distinct_count, max(stats.row_count, 1.0)),
            min_value=column_stats.min_value,
            max_value=column_stats.max_value,
        )


class SelectivityEstimator:
    """Estimates predicate selectivities and operator output cardinalities."""

    def __init__(self, resolver: ColumnResolver):
        self._resolver = resolver

    # -- public API ---------------------------------------------------------

    def selectivity(self, predicate: Optional[Predicate]) -> float:
        """The fraction of input rows satisfying ``predicate`` (1.0 for None/TRUE)."""
        if predicate is None or isinstance(predicate, TruePredicate):
            return 1.0
        value = self._selectivity(predicate)
        return min(max(value, MIN_SELECTIVITY), 1.0)

    def join_cardinality(
        self, left_rows: float, right_rows: float, predicate: Optional[Predicate]
    ) -> float:
        """Output cardinality of an (inner) join."""
        cross = max(left_rows, 0.0) * max(right_rows, 0.0)
        return max(cross * self.selectivity(predicate), 1.0)

    def select_cardinality(self, input_rows: float, predicate: Optional[Predicate]) -> float:
        return max(input_rows * self.selectivity(predicate), 1.0)

    def group_cardinality(self, input_rows: float, group_by: Tuple[ColumnRef, ...]) -> float:
        """Number of groups produced by grouping on ``group_by``."""
        if not group_by:
            return 1.0
        product = 1.0
        for column in group_by:
            info = self._resolver.resolve(column)
            distinct = info.distinct if info is not None else max(input_rows, 1.0)
            product *= max(distinct, 1.0)
            if product > input_rows:
                break
        # Cap by the input size (can't have more groups than rows) and apply
        # the usual attenuation for multi-column grouping.
        return max(min(product, max(input_rows, 1.0)), 1.0)

    def distinct(self, column: ColumnRef, default: float = 1000.0) -> float:
        info = self._resolver.resolve(column)
        return info.distinct if info is not None else default

    # -- internals ------------------------------------------------------------

    def _selectivity(self, predicate: Predicate) -> float:
        if isinstance(predicate, Comparison):
            return self._comparison(predicate)
        if isinstance(predicate, Between):
            return self._between(predicate)
        if isinstance(predicate, InList):
            info = self._resolver.resolve(predicate.column)
            distinct = info.distinct if info else 1.0 / DEFAULT_EQUALITY_SELECTIVITY
            return min(len(predicate.values) / max(distinct, 1.0), 1.0)
        if isinstance(predicate, And):
            result = 1.0
            for operand in predicate.operands:
                result *= self._selectivity(operand)
            return result
        if isinstance(predicate, Or):
            miss = 1.0
            for operand in predicate.operands:
                miss *= 1.0 - min(self._selectivity(operand), 1.0)
            return 1.0 - miss
        if isinstance(predicate, Not):
            return 1.0 - self._selectivity(predicate.operand)
        if isinstance(predicate, TruePredicate):
            return 1.0
        raise TypeError(f"unknown predicate type: {type(predicate).__name__}")

    def _comparison(self, predicate: Comparison) -> float:
        left_info = self._resolver.resolve(predicate.left)
        if isinstance(predicate.right, ColumnRef):
            right_info = self._resolver.resolve(predicate.right)
            left_distinct = left_info.distinct if left_info else 1.0
            right_distinct = right_info.distinct if right_info else 1.0
            if predicate.op is ComparisonOp.EQ:
                return 1.0 / max(left_distinct, right_distinct, 1.0)
            if predicate.op is ComparisonOp.NE:
                return 1.0 - 1.0 / max(left_distinct, right_distinct, 1.0)
            return DEFAULT_RANGE_SELECTIVITY
        literal: Literal = predicate.right
        if predicate.op is ComparisonOp.EQ:
            if left_info is None:
                return DEFAULT_EQUALITY_SELECTIVITY
            return 1.0 / max(left_info.distinct, 1.0)
        if predicate.op is ComparisonOp.NE:
            if left_info is None:
                return 1.0 - DEFAULT_EQUALITY_SELECTIVITY
            return 1.0 - 1.0 / max(left_info.distinct, 1.0)
        return self._range_fraction(left_info, predicate.op, literal)

    def _range_fraction(
        self, info: Optional[ColumnInfo], op: ComparisonOp, literal: Literal
    ) -> float:
        value = literal.numeric
        if info is None or value is None or info.value_range in (None, 0.0):
            return DEFAULT_RANGE_SELECTIVITY
        low, high = info.min_value, info.max_value
        span = info.value_range
        if op in (ComparisonOp.LT, ComparisonOp.LE):
            fraction = (value - low) / span
        else:  # GT, GE
            fraction = (high - value) / span
        return min(max(fraction, 0.0), 1.0)

    def _between(self, predicate: Between) -> float:
        info = self._resolver.resolve(predicate.column)
        low = predicate.low.numeric
        high = predicate.high.numeric
        if info is None or low is None or high is None or info.value_range in (None, 0.0):
            return DEFAULT_RANGE_SELECTIVITY * 0.75
        fraction = (min(high, info.max_value) - max(low, info.min_value)) / info.value_range
        return min(max(fraction, 0.0), 1.0)
