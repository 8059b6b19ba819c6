"""The combined batch DAG: query roots, shareable nodes and ancestry.

After the :class:`~repro.dag.build.DagBuilder` has folded every query of a
batch into the shared memo, the :class:`BatchDag` is the object the MQO
layer works with.  Conceptually it is the rooted DAG of Roy et al. — a dummy
operator node whose inputs are the root equivalence nodes of all the
queries — and it answers the two structural questions the algorithms need:

* which equivalence nodes are *shareable* (can appear more than once in a
  single consolidated plan, so materializing them can pay off), and
* in which order nodes come below their consumers (used by the incremental
  best-cost engine to propagate plan changes upward, inputs first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..algebra.logical import QueryBatch
from ..catalog.catalog import Catalog
from .build import DagBuilder, DagConfig
from .fingerprint import RelationSignature
from .memo import Memo, MExpr, mexpr_children

__all__ = ["MaterializationChoice", "BatchDag", "build_batch_dag"]

#: Sorted materialization variants offered per shareable node (the most
#: frequently requested interesting orders).
MAX_SORTED_CANDIDATES = 2


@dataclass(frozen=True)
class MaterializationChoice:
    """A candidate materialization: an equivalence node plus a stored sort order.

    This is the PQDAG-level view of the search space: the same logical
    result can be materialized unsorted (cheapest to produce) or sorted on
    an order its consumers ask for (cheapest to reuse).  The greedy
    algorithms choose between the variants purely by cost.
    """

    group: int
    order: "SortOrder" = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.order is None:
            from ..algebra.properties import SortOrder

            object.__setattr__(self, "order", SortOrder())

    def describe(self) -> str:
        suffix = f" stored sorted by {self.order}" if self.order else ""
        return f"G{self.group}{suffix}"


@dataclass
class BatchDag:
    """The combined AND-OR DAG of a query batch plus derived structure.

    The memo behind a :class:`BatchDag` may be *shared* with other batches
    (the persistent :class:`~repro.service.session.OptimizerSession` folds
    every batch it serves into one memo).  The dag therefore scopes all of
    its structural queries — and the plan DP of the
    :class:`~repro.optimizer.volcano.VolcanoOptimizer` — to the *active*
    part of the memo: the groups reachable from this batch's roots, where a
    subsumption derivation only counts as an edge when both groups of one
    of its inducing pairs belong to this batch (see
    :meth:`~repro.dag.memo.Memo.add_derivation`).  For a memo built for a
    single batch the scope is the whole memo, so one-shot behaviour is
    unchanged; for a shared memo it makes every batch optimize exactly as
    if its DAG had been built fresh.
    """

    memo: Memo
    catalog: Catalog
    query_roots: Dict[str, int]
    block_roots: Tuple[int, ...]
    config: DagConfig = field(default_factory=DagConfig)
    _rank: Dict[int, int] = field(default_factory=dict, repr=False)
    _shareable: Optional[Tuple[int, ...]] = field(default=None, repr=False)
    _structural: Optional[FrozenSet[int]] = field(default=None, repr=False)
    _scoped: Optional[FrozenSet[int]] = field(default=None, repr=False)
    _active_mexprs: Dict[int, Tuple[MExpr, ...]] = field(default_factory=dict, repr=False)

    # -- batch scope ---------------------------------------------------------

    @property
    def roots(self) -> Tuple[int, ...]:
        """The root groups of the batch's queries (inputs of the dummy root)."""
        return tuple(self.query_roots.values())

    def structural_groups(self) -> FrozenSet[int]:
        """Groups reachable from this batch's roots through structural edges only.

        Subsumption derivations are not followed; the result is the set of
        groups the batch's own queries would create in a fresh memo, which
        is what derivation activity is decided against.
        """
        if self._structural is None:
            memo = self.memo
            seen: Set[int] = set()
            stack: List[int] = list(self.block_roots) + list(self.query_roots.values())
            while stack:
                gid = stack.pop()
                if gid in seen:
                    continue
                seen.add(gid)
                for mexpr in memo.get(gid).mexprs:
                    if memo.is_derivation(gid, mexpr):
                        continue
                    for child in mexpr_children(mexpr):
                        if child not in seen:
                            stack.append(child)
            self._structural = frozenset(seen)
        return self._structural

    def iter_mexprs(self, group_id: int) -> Tuple[MExpr, ...]:
        """The multi-expressions of a group that are active for this batch.

        Structural expressions are always active; a subsumption derivation is
        active when at least one of its inducing pairs lies entirely inside
        this batch's structural groups.
        """
        cached = self._active_mexprs.get(group_id)
        if cached is not None:
            return cached
        memo = self.memo
        group = memo.get(group_id)
        structural = self.structural_groups()
        active: List[MExpr] = []
        for mexpr in group.mexprs:
            pairs = memo.derivation_pairs(group_id, mexpr)
            if not pairs or any(pair <= structural for pair in pairs):
                active.append(mexpr)
        result = tuple(active)
        self._active_mexprs[group_id] = result
        return result

    def scoped_reachable(self, roots: "int | Tuple[int, ...] | List[int]") -> FrozenSet[int]:
        """Groups reachable from ``roots`` through this batch's active edges."""
        if isinstance(roots, int):
            roots = (roots,)
        seen: Set[int] = set()
        stack = list(roots)
        while stack:
            gid = stack.pop()
            if gid in seen:
                continue
            seen.add(gid)
            for mexpr in self.iter_mexprs(gid):
                for child in mexpr_children(mexpr):
                    if child not in seen:
                        stack.append(child)
        return frozenset(seen)

    def scoped_groups(self) -> FrozenSet[int]:
        """All groups this batch's plan DP can visit (structural + active derivations)."""
        if self._scoped is None:
            self._scoped = self.scoped_reachable(
                tuple(self.block_roots) + tuple(self.query_roots.values())
            )
        return self._scoped

    def rank(self, group_id: int) -> int:
        """Height of a group above the leaves of this batch's active DAG.

        Every input of a group ranks strictly below it, so visiting groups
        by increasing rank is a topological order (inputs first) that does
        not depend on hashing or on traversal order.
        """
        cached = self._rank.get(group_id)
        if cached is None:
            cached = self._rank[group_id] = 1 + max(
                (
                    self.rank(child)
                    for mexpr in self.iter_mexprs(group_id)
                    for child in mexpr_children(mexpr)
                ),
                default=-1,
            )
        return cached

    def shareable_nodes(self) -> Tuple[int, ...]:
        """Equivalence nodes worth considering for materialization.

        A node is shareable when it is reachable from at least two different
        blocks of the batch (two different queries, or two different blocks
        of the same query, e.g. an outer query and its decorrelated
        sub-query) — those are exactly the nodes that can have two
        simultaneous consumers in one consolidated plan.  Base-relation scan
        nodes are excluded: re-reading a stored relation is never cheaper
        than the relation itself.
        """
        if self._shareable is not None:
            return self._shareable
        tag_count: Dict[int, int] = {}
        for root in self.block_roots:
            for gid in self.scoped_reachable(root):
                tag_count[gid] = tag_count.get(gid, 0) + 1
        shareable = []
        for gid, count in tag_count.items():
            if count < 2:
                continue
            if isinstance(self.memo.get(gid).signature, RelationSignature):
                continue
            shareable.append(gid)
        self._shareable = tuple(sorted(shareable))
        return self._shareable

    def interesting_orders(self) -> Dict[int, Tuple["SortOrder", ...]]:
        """Sort orders that some consumer of each group may request.

        Join implementations request their equi-join keys from their
        operands, sort-based aggregation requests its grouping keys, and
        selections pass their own requirements down to their inputs.  The
        result is used to decide which physical property a materialized node
        should be stored with (the PQDAG-level physical property handling of
        Roy et al., reduced to sort orders).

        A group's tuple holds every direct request (repeats included, their
        count ranks the orders) and, once each, every order a selection
        above it passes down that no direct request named.  Selections are
        followed in one pass over the scoped groups by descending
        :meth:`rank`: every consumer ranks above its inputs, so a group's
        requests are complete before it passes them on, however deep the
        chain of selections.
        """
        from ..algebra.properties import SortOrder
        from .memo import AggregateMExpr, JoinMExpr, SelectMExpr

        scoped = sorted(self.scoped_groups())
        requested: Dict[int, List[SortOrder]] = {gid: [] for gid in scoped}

        # Direct requests from joins and aggregations.
        for gid in scoped:
            for mexpr in self.iter_mexprs(gid):
                if isinstance(mexpr, JoinMExpr):
                    left_order, right_order = mexpr.key_orders
                    if left_order:
                        requested[mexpr.left].append(left_order)
                        requested[mexpr.right].append(right_order)
                elif isinstance(mexpr, AggregateMExpr) and mexpr.group_by:
                    requested[mexpr.child].append(SortOrder(tuple(mexpr.group_by)))

        # Selections pass their group's requests down, consumers first.
        for gid in sorted(scoped, key=self.rank, reverse=True):
            orders = requested[gid]
            if not orders:
                continue
            for mexpr in self.iter_mexprs(gid):
                if isinstance(mexpr, SelectMExpr):
                    below = requested[mexpr.child]
                    for order in orders:
                        if order not in below:
                            below.append(order)

        return {gid: tuple(orders) for gid, orders in requested.items()}

    def shareable_candidates(self) -> Tuple[MaterializationChoice, ...]:
        """Materialization candidates: every shareable node, unsorted and sorted.

        For each shareable equivalence node the unsorted variant is always a
        candidate; additionally the :data:`MAX_SORTED_CANDIDATES` most frequently
        requested interesting orders are offered as sorted variants, which
        lets the greedy algorithms trade a one-off sort during
        materialization against per-consumer sorts.
        """
        from collections import Counter

        interesting = self.interesting_orders()
        text: Dict["SortOrder", str] = {}  # one str per order, however many groups rank it
        candidates: List[MaterializationChoice] = []
        for gid in self.shareable_nodes():
            candidates.append(MaterializationChoice(gid))
            counts = Counter(interesting.get(gid, ()))
            for order in counts:
                if order not in text:
                    text[order] = str(order)
            ranked = sorted(counts.items(), key=lambda item: (-item[1], text[item[0]]))
            for order, _ in ranked[:MAX_SORTED_CANDIDATES]:
                if order:
                    candidates.append(MaterializationChoice(gid, order))
        return tuple(candidates)

    def describe_candidate(self, candidate: "MaterializationChoice | int") -> str:
        if isinstance(candidate, MaterializationChoice):
            base = self.describe_group(candidate.group)
            if candidate.order:
                return f"{base} [stored sorted by {candidate.order}]"
            return base
        return self.describe_group(candidate)

    def preferred_orders(self) -> Dict[int, "SortOrder"]:
        """The sort order each group would be materialized with.

        The most frequently requested interesting order wins (ties broken
        deterministically); groups nobody wants sorted are stored unsorted.
        """
        from collections import Counter

        from ..algebra.properties import SortOrder

        if getattr(self, "_preferred_orders", None) is None:
            preferred: Dict[int, SortOrder] = {}
            for gid, orders in self.interesting_orders().items():
                if not orders:
                    preferred[gid] = SortOrder()
                    continue
                counts = Counter(orders)
                best = sorted(counts.items(), key=lambda item: (-item[1], str(item[0])))[0][0]
                preferred[gid] = best
            self._preferred_orders = preferred
        return self._preferred_orders

    # -- reporting ------------------------------------------------------------

    def describe_group(self, group_id: int) -> str:
        return self.memo.get(group_id).describe()

    def summary(self) -> Dict[str, int]:
        """Size statistics of this batch's scope of the (possibly shared) memo."""
        scoped = self.scoped_groups()
        stats = {
            "groups": len(scoped),
            "mexprs": sum(len(self.iter_mexprs(gid)) for gid in scoped),
            "relations": sum(
                1 for gid in scoped if self.memo.get(gid).is_relation
            ),
        }
        stats["queries"] = len(self.query_roots)
        stats["blocks"] = len(self.block_roots)
        stats["shareable"] = len(self.shareable_nodes())
        return stats


def build_batch_dag(
    batch: QueryBatch,
    catalog: Catalog,
    config: Optional[DagConfig] = None,
) -> BatchDag:
    """Build the combined DAG for a batch (normalize, expand, apply subsumption)."""
    builder = DagBuilder(catalog, config)
    interned = builder.intern_batch(batch)
    dag = BatchDag(
        memo=builder.memo,
        catalog=catalog,
        query_roots=interned.query_roots,
        block_roots=interned.block_roots,
        config=builder.config,
    )
    # In a fresh memo the structural closure of the roots is every group.
    builder.finalize(dag.structural_groups())
    return dag
