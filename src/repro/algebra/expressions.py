"""Scalar expressions, predicates and aggregate expressions.

Predicates are the only scalar language the optimizer needs: selections and
join conditions are conjunctions of simple comparisons (column vs literal or
column vs column), ranges, IN-lists and disjunctions.  Everything is a
frozen, hashable dataclass so predicates can be used inside the semantic
fingerprints that identify equivalence nodes (see
:mod:`repro.dag.fingerprint`).

The module also provides :func:`disjunction`, which builds the relaxed
"union" predicate ``p1 ∨ p2`` that Roy et al. introduce to let two queries
with different selection constants share a common subexpression.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple, Union

__all__ = [
    "ColumnRef",
    "Literal",
    "Operand",
    "ComparisonOp",
    "Predicate",
    "Comparison",
    "Between",
    "InList",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "AggregateFunction",
    "AggregateExpr",
    "col",
    "lit",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "between",
    "in_list",
    "conjunction",
    "conjuncts",
    "disjunction",
    "referenced_columns",
    "referenced_qualifiers",
    "is_join_predicate",
    "is_equijoin_predicate",
    "single_column",
]


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class ColumnRef:
    """A reference to a column, optionally qualified by a source alias.

    TPC-D column names are globally unique, so the qualifier is usually
    redundant; it matters for self-joins (e.g. the two ``nation`` instances
    in Q7) where ``n1.n_name`` and ``n2.n_name`` are different attributes.
    """

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def with_qualifier(self, qualifier: Optional[str]) -> "ColumnRef":
        return ColumnRef(self.name, qualifier)


@dataclass(frozen=True)
class Literal:
    """A constant value (int, float or string; dates are YYYYMMDD ints)."""

    value: Union[int, float, str]

    def __str__(self) -> str:
        return repr(self.value)

    @property
    def numeric(self) -> Optional[float]:
        if isinstance(self.value, bool):
            return None
        if isinstance(self.value, (int, float)):
            return float(self.value)
        return None


Operand = Union[ColumnRef, Literal]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class ComparisonOp(str, Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flip(self) -> "ComparisonOp":
        """The operator obtained by swapping the comparison's operands."""
        return {
            ComparisonOp.EQ: ComparisonOp.EQ,
            ComparisonOp.NE: ComparisonOp.NE,
            ComparisonOp.LT: ComparisonOp.GT,
            ComparisonOp.LE: ComparisonOp.GE,
            ComparisonOp.GT: ComparisonOp.LT,
            ComparisonOp.GE: ComparisonOp.LE,
        }[self]


class Predicate:
    """Base class for boolean predicates (all subclasses are frozen dataclasses)."""

    def __and__(self, other: "Predicate") -> "Predicate":
        return conjunction([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return disjunction([self, other])


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The always-true predicate (the identity of conjunction)."""

    def __str__(self) -> str:
        return "TRUE"


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left OP right`` with ``left`` a column and ``right`` a column or literal."""

    left: ColumnRef
    op: ComparisonOp
    right: Operand

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


@dataclass(frozen=True)
class Between(Predicate):
    """``column BETWEEN low AND high`` (inclusive bounds)."""

    column: ColumnRef
    low: Literal
    high: Literal

    def __str__(self) -> str:
        return f"{self.column} BETWEEN {self.low} AND {self.high}"


@dataclass(frozen=True)
class InList(Predicate):
    """``column IN (v1, v2, ...)``."""

    column: ColumnRef
    values: Tuple[Literal, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(v) for v in self.values)
        return f"{self.column} IN ({inner})"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of two or more predicates."""

    operands: Tuple[Predicate, ...]

    def __str__(self) -> str:
        return "(" + " AND ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of two or more predicates."""

    operands: Tuple[Predicate, ...]

    def __str__(self) -> str:
        return "(" + " OR ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    operand: Predicate

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


class AggregateFunction(str, Enum):
    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"
    AVG = "avg"


@dataclass(frozen=True)
class AggregateExpr:
    """An aggregate such as ``sum(l_extendedprice) AS revenue``.

    ``column=None`` means ``count(*)``.
    """

    func: AggregateFunction
    column: Optional[ColumnRef]
    alias: str

    def __str__(self) -> str:
        target = str(self.column) if self.column is not None else "*"
        return f"{self.func.value}({target}) AS {self.alias}"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def col(name: str, qualifier: Optional[str] = None) -> ColumnRef:
    """Build a column reference; ``col("n1.n_name")`` parses the qualifier."""
    if qualifier is None and "." in name:
        qualifier, name = name.split(".", 1)
    return ColumnRef(name, qualifier)


def lit(value: Union[int, float, str]) -> Literal:
    return Literal(value)


def _operand(value: Union[ColumnRef, Literal, int, float, str]) -> Operand:
    if isinstance(value, (ColumnRef, Literal)):
        return value
    return Literal(value)


def _comparison(left: Union[ColumnRef, str], op: ComparisonOp, right) -> Comparison:
    left_ref = col(left) if isinstance(left, str) else left
    return Comparison(left_ref, op, _operand(right))


def eq(left, right) -> Comparison:
    return _comparison(left, ComparisonOp.EQ, right)


def ne(left, right) -> Comparison:
    return _comparison(left, ComparisonOp.NE, right)


def lt(left, right) -> Comparison:
    return _comparison(left, ComparisonOp.LT, right)


def le(left, right) -> Comparison:
    return _comparison(left, ComparisonOp.LE, right)


def gt(left, right) -> Comparison:
    return _comparison(left, ComparisonOp.GT, right)


def ge(left, right) -> Comparison:
    return _comparison(left, ComparisonOp.GE, right)


def between(column: Union[ColumnRef, str], low, high) -> Between:
    column_ref = col(column) if isinstance(column, str) else column
    return Between(column_ref, Literal(low) if not isinstance(low, Literal) else low,
                   Literal(high) if not isinstance(high, Literal) else high)


def in_list(column: Union[ColumnRef, str], values: Iterable) -> InList:
    column_ref = col(column) if isinstance(column, str) else column
    literals = tuple(v if isinstance(v, Literal) else Literal(v) for v in values)
    return InList(column_ref, literals)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def conjuncts(predicate: Optional[Predicate]) -> Tuple[Predicate, ...]:
    """Flatten a predicate into its top-level conjuncts (drops TRUE)."""
    if predicate is None or isinstance(predicate, TruePredicate):
        return ()
    if isinstance(predicate, And):
        result: Tuple[Predicate, ...] = ()
        for operand in predicate.operands:
            result += conjuncts(operand)
        return result
    return (predicate,)


def conjunction(predicates: Iterable[Predicate]) -> Predicate:
    """Combine predicates with AND (returns TRUE for an empty collection)."""
    flat: Tuple[Predicate, ...] = ()
    for predicate in predicates:
        flat += conjuncts(predicate)
    if not flat:
        return TruePredicate()
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disjunction(predicates: Sequence[Predicate]) -> Predicate:
    """Combine predicates with OR (flattening nested ORs, deduplicating)."""
    flat: list = []
    for predicate in predicates:
        if isinstance(predicate, Or):
            flat.extend(predicate.operands)
        else:
            flat.append(predicate)
    unique: list = []
    for predicate in flat:
        if predicate not in unique:
            unique.append(predicate)
    if not unique:
        return TruePredicate()
    if len(unique) == 1:
        return unique[0]
    return Or(tuple(unique))


def referenced_columns(predicate: Predicate) -> FrozenSet[ColumnRef]:
    """All column references appearing anywhere in the predicate."""
    if isinstance(predicate, (TruePredicate,)):
        return frozenset()
    if isinstance(predicate, Comparison):
        columns = {predicate.left}
        if isinstance(predicate.right, ColumnRef):
            columns.add(predicate.right)
        return frozenset(columns)
    if isinstance(predicate, Between):
        return frozenset({predicate.column})
    if isinstance(predicate, InList):
        return frozenset({predicate.column})
    if isinstance(predicate, (And, Or)):
        result: FrozenSet[ColumnRef] = frozenset()
        for operand in predicate.operands:
            result |= referenced_columns(operand)
        return result
    if isinstance(predicate, Not):
        return referenced_columns(predicate.operand)
    raise TypeError(f"unknown predicate type: {type(predicate).__name__}")


def referenced_qualifiers(predicate: Predicate) -> FrozenSet[str]:
    """All source aliases referenced by the predicate (ignores unqualified refs)."""
    return frozenset(
        c.qualifier for c in referenced_columns(predicate) if c.qualifier is not None
    )


def is_join_predicate(predicate: Predicate) -> bool:
    """True for column-to-column comparisons (candidate join conditions)."""
    return isinstance(predicate, Comparison) and isinstance(predicate.right, ColumnRef)


def is_equijoin_predicate(predicate: Predicate) -> bool:
    return is_join_predicate(predicate) and predicate.op is ComparisonOp.EQ


def single_column(predicate: Predicate) -> Optional[ColumnRef]:
    """The unique column a single-table predicate constrains, if any."""
    columns = referenced_columns(predicate)
    if len(columns) == 1:
        return next(iter(columns))
    return None
