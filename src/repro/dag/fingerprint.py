"""Semantic fingerprints ("expression signatures") for equivalence nodes.

Roy et al. identify common subexpressions — including syntactically
different but semantically equivalent ones — with a hashing scheme applied
in one bottom-up pass over the combined query DAG.  This module plays that
role: every equivalence node (memo group) is keyed by a *signature* that
canonically describes the result set it produces, so two sub-plans from
different queries that compute the same thing land in the same group
automatically.

Signatures are recursive:

* a base relation is identified by its table and alias,
* an SPJ block is identified by the *set* of its sources and the *set* of
  applied predicates (join order and selection placement therefore do not
  matter — exactly the equivalences join associativity/commutativity and
  select push-down generate),
* an aggregation is identified by its input signature, grouping keys and
  aggregate list, and
* a residual filter (e.g. a HAVING clause) by its input and predicate set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple, Union

from ..algebra.expressions import AggregateExpr, ColumnRef, Predicate

__all__ = [
    "Signature",
    "RelationSignature",
    "SPJSignature",
    "AggregateSignature",
    "FilterSignature",
    "canonical_key",
]


@dataclass(frozen=True)
class RelationSignature:
    """A base relation under an alias."""

    table: str
    alias: str

    def describe(self) -> str:
        if self.alias != self.table:
            return f"{self.table} AS {self.alias}"
        return self.table


@dataclass(frozen=True)
class SPJSignature:
    """A select-project-join block: a set of sources plus applied predicates."""

    sources: FrozenSet[Tuple[str, "Signature"]]
    predicates: FrozenSet[Predicate]

    def aliases(self) -> FrozenSet[str]:
        return frozenset(alias for alias, _ in self.sources)

    def describe(self) -> str:
        names = " ⋈ ".join(sorted(alias for alias, _ in self.sources))
        if self.predicates:
            preds = " AND ".join(sorted(str(p) for p in self.predicates))
            return f"{names} | σ[{preds}]"
        return names


@dataclass(frozen=True)
class AggregateSignature:
    """Aggregation of an input signature by a set of keys."""

    input: "Signature"
    group_by: FrozenSet[ColumnRef]
    aggregates: Tuple[AggregateExpr, ...]

    def describe(self) -> str:
        keys = ", ".join(sorted(str(c) for c in self.group_by)) or "()"
        aggs = ", ".join(str(a) for a in self.aggregates)
        return f"γ[{keys}; {aggs}]({self.input.describe()})"


@dataclass(frozen=True)
class FilterSignature:
    """A residual filter over a non-SPJ input (e.g. a HAVING clause)."""

    input: "Signature"
    predicates: FrozenSet[Predicate]

    def describe(self) -> str:
        preds = " AND ".join(sorted(str(p) for p in self.predicates))
        return f"σ[{preds}]({self.input.describe()})"


Signature = Union[RelationSignature, SPJSignature, AggregateSignature, FilterSignature]


def canonical_key(signature: Signature) -> str:
    """A stable, fully recursive textual identity of a signature.

    Unlike ``describe()`` (which abbreviates SPJ sources to their aliases for
    readability), the canonical key recurses into every nested signature, so
    two signatures produce the same key exactly when they are equal.  Because
    signatures are structural, the key is identical across different memos —
    and different sessions — that interned the same logical expression, which
    is what lets a cross-batch result cache outlive any single memo's group
    ids.
    """
    if isinstance(signature, RelationSignature):
        return f"rel({signature.table} AS {signature.alias})"
    if isinstance(signature, SPJSignature):
        sources = ",".join(
            sorted(f"{alias}={canonical_key(sub)}" for alias, sub in signature.sources)
        )
        preds = ",".join(sorted(str(p) for p in signature.predicates))
        return f"spj([{sources}];[{preds}])"
    if isinstance(signature, AggregateSignature):
        keys = ",".join(sorted(str(c) for c in signature.group_by))
        aggs = ",".join(str(a) for a in signature.aggregates)
        return f"agg([{keys}];[{aggs}];{canonical_key(signature.input)})"
    if isinstance(signature, FilterSignature):
        preds = ",".join(sorted(str(p) for p in signature.predicates))
        return f"filter([{preds}];{canonical_key(signature.input)})"
    raise TypeError(f"unknown signature type: {type(signature).__name__}")
