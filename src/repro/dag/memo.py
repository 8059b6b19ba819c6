"""The memo: equivalence nodes (groups) and operator nodes (multi-expressions).

The memo is the compact AND-OR DAG of the Volcano framework: an *equivalence
node* (:class:`Group`) stands for all plans producing one result set, and an
*operator node* (:class:`MExpr`, a multi-expression) is one logical operator
whose inputs are other groups.  Groups are keyed by their semantic
fingerprint (:mod:`repro.dag.fingerprint`), which is what lets sub-plans
from different queries in a batch unify into shared nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..algebra.expressions import (
    AggregateExpr,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Predicate,
    conjuncts,
)
from ..algebra.properties import SortOrder
from .fingerprint import (
    AggregateSignature,
    FilterSignature,
    RelationSignature,
    Signature,
    SPJSignature,
)

__all__ = [
    "ScanMExpr",
    "SelectMExpr",
    "JoinMExpr",
    "AggregateMExpr",
    "MExpr",
    "mexpr_children",
    "equijoin_keys",
    "Group",
    "Memo",
]


# ---------------------------------------------------------------------------
# Multi-expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanMExpr:
    """A base-relation scan (a leaf operator node)."""

    table: str
    alias: str

    def describe(self) -> str:
        return f"scan({self.table})" if self.table == self.alias else f"scan({self.table} AS {self.alias})"


@dataclass(frozen=True)
class SelectMExpr:
    """A selection applied on top of a child group."""

    predicate: Predicate
    child: int

    def describe(self) -> str:
        return f"σ[{self.predicate}](G{self.child})"


@dataclass(frozen=True)
class JoinMExpr:
    """An inner join of two child groups (``predicate`` may be ``None`` = cross).

    ``left_aliases`` / ``right_aliases`` record which block-level source
    aliases each operand covers; the physical optimizer uses them to assign
    equi-join columns to the correct side (the child group's own aliases are
    not sufficient when an operand is a derived table referenced under a
    different alias).
    """

    predicate: Optional[Predicate]
    left: int
    right: int
    left_aliases: FrozenSet[str] = frozenset()
    right_aliases: FrozenSet[str] = frozenset()

    @cached_property
    def key_orders(self) -> Tuple[SortOrder, SortOrder]:
        """The orders a merge join needs of its operands (:func:`equijoin_keys`;
        both empty if none), worked out once: they read no statistics."""
        left_keys, right_keys = equijoin_keys(self)
        return SortOrder(tuple(left_keys)), SortOrder(tuple(right_keys))

    def describe(self) -> str:
        pred = str(self.predicate) if self.predicate is not None else "⨯"
        return f"join[{pred}](G{self.left}, G{self.right})"


@dataclass(frozen=True)
class AggregateMExpr:
    """Grouping/aggregation applied on top of a child group."""

    group_by: Tuple[ColumnRef, ...]
    aggregates: Tuple[AggregateExpr, ...]
    child: int

    def describe(self) -> str:
        keys = ", ".join(str(c) for c in self.group_by) or "()"
        return f"γ[{keys}](G{self.child})"


MExpr = Union[ScanMExpr, SelectMExpr, JoinMExpr, AggregateMExpr]


def mexpr_children(mexpr: MExpr) -> Tuple[int, ...]:
    """The child group ids of a multi-expression."""
    if isinstance(mexpr, ScanMExpr):
        return ()
    if isinstance(mexpr, SelectMExpr):
        return (mexpr.child,)
    if isinstance(mexpr, JoinMExpr):
        return (mexpr.left, mexpr.right)
    if isinstance(mexpr, AggregateMExpr):
        return (mexpr.child,)
    raise TypeError(f"unknown multi-expression type: {type(mexpr).__name__}")


def equijoin_keys(mexpr: JoinMExpr) -> Tuple[List[ColumnRef], List[ColumnRef]]:
    """Split the equi-join columns of a join predicate between its operands."""
    left_keys: List[ColumnRef] = []
    right_keys: List[ColumnRef] = []
    if mexpr.predicate is None:
        return left_keys, right_keys
    for predicate in conjuncts(mexpr.predicate):
        if not isinstance(predicate, Comparison) or predicate.op is not ComparisonOp.EQ:
            continue
        if not isinstance(predicate.right, ColumnRef):
            continue
        a, b = predicate.left, predicate.right
        if a.qualifier in mexpr.left_aliases and b.qualifier in mexpr.right_aliases:
            left_keys.append(a)
            right_keys.append(b)
        elif a.qualifier in mexpr.right_aliases and b.qualifier in mexpr.left_aliases:
            left_keys.append(b)
            right_keys.append(a)
    return left_keys, right_keys


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------


@dataclass
class Group:
    """An equivalence node: all plans producing one result set.

    Attributes:
        id: dense integer id within the memo.
        signature: the semantic fingerprint identifying the group.
        mexprs: the alternative logical operator nodes rooted at this group.
        rows / row_width: estimated output cardinality and row width (bytes),
            filled in by the DAG builder.
        aliases: the source aliases contributing to this group's result
            (used to split join predicates between operands).
        expanded: whether join reordering has already been applied.
    """

    id: int
    signature: Signature
    mexprs: List[MExpr] = field(default_factory=list)
    rows: float = 0.0
    row_width: float = 0.0
    aliases: FrozenSet[str] = frozenset()
    expanded: bool = False
    _mexpr_set: Set[MExpr] = field(default_factory=set, repr=False)

    @property
    def is_relation(self) -> bool:
        return isinstance(self.signature, RelationSignature)

    def describe(self) -> str:
        return f"G{self.id}: {self.signature.describe()}"


class Memo:
    """The shared store of groups, keyed by signature.

    The memo supports *incremental* growth: new queries can be folded into
    an existing memo at any time (their sub-expressions unify with prior
    groups through the signature index), and :attr:`version` is bumped on
    every structural mutation so long-lived consumers can detect growth
    cheaply.

    Subsumption derivations — the σ-alternatives added between same-source
    groups after the fact — carry *provenance*: the pair of groups whose
    comparison induced them.  A derivation is only a valid alternative for
    a batch whose own (structural) DAG contains both groups of at least one
    inducing pair; this is what lets many batches share one memo while each
    batch is optimized exactly as if its DAG had been built fresh — and why
    the subsumption pass only ever compares the groups of one batch.
    """

    _uid_counter = itertools.count(1)

    def __init__(self) -> None:
        self._groups: List[Group] = []
        self._by_signature: Dict[Signature, int] = {}
        self._derivations: Dict[Tuple[int, MExpr], Tuple[FrozenSet[int], ...]] = {}
        self._version = 0
        self._uid = next(Memo._uid_counter)

    @property
    def version(self) -> int:
        """Monotone counter bumped whenever a group or multi-expression is added."""
        return self._version

    @property
    def uid(self) -> int:
        """A process-unique identity for this memo instance.

        Group ids are only meaningful relative to one memo; results that
        carry group ids record the memo's uid so downstream consumers (e.g.
        the session executor) can refuse ids minted against a different
        memo instead of resolving them to unrelated groups.
        """
        return self._uid

    # -- group management --------------------------------------------------

    def group_for(self, signature: Signature) -> Group:
        """Return the group with this signature, creating it if necessary."""
        existing = self._by_signature.get(signature)
        if existing is not None:
            return self._groups[existing]
        group = Group(id=len(self._groups), signature=signature)
        self._groups.append(group)
        self._by_signature[signature] = group.id
        self._version += 1
        return group

    def find(self, signature: Signature) -> Optional[Group]:
        index = self._by_signature.get(signature)
        return self._groups[index] if index is not None else None

    def get(self, group_id: int) -> Group:
        return self._groups[group_id]

    def signature_of(self, group_id: int) -> Signature:
        """The semantic fingerprint of a group (stable node→fingerprint lookup).

        Group ids are memo-local (they depend on interning order), but the
        signature returned here identifies the group's result set across
        memos and sessions; caches that must outlive one memo key on it.
        """
        return self._groups[group_id].signature

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[Group]:
        return iter(self._groups)

    # -- multi-expressions --------------------------------------------------

    def add_mexpr(self, group: Union[Group, int], mexpr: MExpr) -> bool:
        """Add a structural multi-expression to a group; False if already present.

        A duplicate that was recorded as a subsumption derivation keeps its
        derivation classification: an expression's structural/derivation
        status is immutable once set, so a batch's active scope can never
        change after it was computed.  (The builder cannot actually produce
        this case — structural expressions are only added while a group is
        first expanded, and derivations only target already-expanded
        groups — the invariant just makes that explicit.)
        """
        target = group if isinstance(group, Group) else self.get(group)
        if mexpr in target._mexpr_set:
            return False
        for child in mexpr_children(mexpr):
            if child == target.id:
                raise ValueError("a multi-expression cannot reference its own group")
            if not 0 <= child < len(self._groups):
                raise ValueError(f"unknown child group G{child}")
        target._mexpr_set.add(mexpr)
        target.mexprs.append(mexpr)
        self._version += 1
        return True

    def add_derivation(
        self, group: Union[Group, int], mexpr: MExpr, pair: Iterable[int]
    ) -> bool:
        """Add a subsumption derivation induced by comparing the groups of ``pair``.

        Returns True when the expression is new to the group.  The inducing
        pair is recorded (accumulating when the same derivation is induced by
        several pairs) unless the expression already exists structurally.
        """
        target = group if isinstance(group, Group) else self.get(group)
        key = (target.id, mexpr)
        if mexpr in target._mexpr_set:
            if key in self._derivations:
                pairs = self._derivations[key]
                new_pair = frozenset(pair)
                if new_pair not in pairs:
                    self._derivations[key] = pairs + (new_pair,)
            return False
        added = self.add_mexpr(target, mexpr)
        self._derivations[key] = (frozenset(pair),)
        return added

    def derivation_pairs(self, group_id: int, mexpr: MExpr) -> Tuple[FrozenSet[int], ...]:
        """The inducing pairs of a derivation; empty for structural expressions."""
        return self._derivations.get((group_id, mexpr), ())

    def is_derivation(self, group_id: int, mexpr: MExpr) -> bool:
        return (group_id, mexpr) in self._derivations

    def mexpr_count(self) -> int:
        return sum(len(g.mexprs) for g in self._groups)

    # -- structure ----------------------------------------------------------

    def parents(self) -> Dict[int, FrozenSet[int]]:
        """Map from group id to the ids of groups with an operator consuming it."""
        result: Dict[int, Set[int]] = {g.id: set() for g in self._groups}
        for group in self._groups:
            for mexpr in group.mexprs:
                for child in mexpr_children(mexpr):
                    result[child].add(group.id)
        return {gid: frozenset(parents) for gid, parents in result.items()}

    def reachable_from(self, roots: Union[int, Tuple[int, ...], List[int]]) -> FrozenSet[int]:
        """All group ids reachable (through any alternative) from the given roots."""
        if isinstance(roots, int):
            roots = (roots,)
        seen: Set[int] = set()
        stack = list(roots)
        while stack:
            gid = stack.pop()
            if gid in seen:
                continue
            seen.add(gid)
            for mexpr in self.get(gid).mexprs:
                for child in mexpr_children(mexpr):
                    if child not in seen:
                        stack.append(child)
        return frozenset(seen)

    def stats(self) -> Dict[str, int]:
        """Simple size statistics (useful in experiment reports)."""
        return {
            "groups": len(self._groups),
            "mexprs": self.mexpr_count(),
            "relations": sum(1 for g in self._groups if g.is_relation),
        }
