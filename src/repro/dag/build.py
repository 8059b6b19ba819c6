"""Construction and expansion of the combined (batch) LQDAG.

The :class:`DagBuilder` folds a batch of queries into one shared memo:

1. every query is normalized into SPJA blocks and its column references are
   bound (:mod:`repro.dag.blocks`),
2. each block's join space is expanded — for every connected subset of the
   block's sources a group is created with all of its two-way splits as join
   alternatives, which is exactly the space generated by exhaustive join
   commutativity + associativity with selections pushed down,
3. aggregations and HAVING filters are stacked on top, and
4. after all queries are in, the subsumption pass
   (:func:`apply_subsumption`) adds derivations that let queries differing
   only in selection constants share relaxed common subexpressions.  The
   pass is *batch-scoped*: it relates only the groups one batch's own
   queries contain, whatever else a shared memo holds.

Group identity is the semantic fingerprint, so identical subexpressions
from different queries unify automatically (the "common subexpression
identification" step of Roy et al.).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..algebra.expressions import (
    Predicate,
    conjunction,
    disjunction,
    is_join_predicate,
    referenced_qualifiers,
    single_column,
)
from ..algebra.logical import LogicalPlan, Query, QueryBatch
from ..catalog.catalog import Catalog
from ..cost.cardinality import CatalogResolver, SelectivityEstimator
from .blocks import QueryBlock, bind_block, normalize_query
from .fingerprint import (
    AggregateSignature,
    FilterSignature,
    RelationSignature,
    Signature,
    SPJSignature,
)
from .memo import (
    AggregateMExpr,
    Group,
    JoinMExpr,
    Memo,
    ScanMExpr,
    SelectMExpr,
)

__all__ = [
    "DagConfig",
    "DagBuilder",
    "InternedBatch",
    "SubsumptionPass",
    "apply_subsumption",
    "query_signature",
]


def query_signature(query: Query, catalog: Catalog) -> Signature:
    """The semantic fingerprint a memo would assign to a query's root group.

    Computed purely structurally — normalize, bind, and fold the block tree
    into a :class:`~repro.dag.fingerprint.Signature` — without creating (or
    needing) any memo.  The result is identical to
    ``memo.signature_of(root)`` after ``DagBuilder.intern_query(query)``,
    which is what lets a front end route queries by fingerprint *before*
    deciding which memo they will be interned into.

    To spread traffic over ``N`` independent serving processes, route each
    query to process
    ``int.from_bytes(sha256(canonical_key(sig).encode()).digest()[:8], "big") % N``
    (``sig`` this signature, :func:`~repro.dag.fingerprint.canonical_key`
    its stable string form).  The key is process-independent — unlike the
    builtin ``hash`` of a string, which Python salts per process — so a
    re-submitted query always lands on the process whose caches are warm
    for it, and a restarted front end routes exactly as before.
    """
    return _block_signature(bind_block(normalize_query(query), catalog))


def _block_signature(block: QueryBlock) -> Signature:
    sources = frozenset(
        (
            source.alias,
            RelationSignature(table=source.table, alias=source.alias)
            if source.is_base
            else _block_signature(source.block),
        )
        for source in block.sources
    )
    predicates = frozenset(block.predicates)
    if len(sources) == 1 and not predicates:
        # Mirrors _expand_spj: a lone unfiltered source *is* its own group.
        ((_, top),) = sources
    else:
        top = SPJSignature(sources=sources, predicates=predicates)
    if block.aggregation is not None:
        top = AggregateSignature(
            input=top,
            group_by=frozenset(block.aggregation.group_by),
            aggregates=tuple(sorted(block.aggregation.aggregates, key=lambda a: a.alias)),
        )
    if block.having:
        top = FilterSignature(input=top, predicates=frozenset(block.having))
    return top


@dataclass(frozen=True)
class DagConfig:
    """Knobs controlling DAG expansion.

    Attributes:
        enable_subsumption: add σ-derivations between groups whose predicate
            sets are comparable (select subsumption).
        enable_or_subsumption: additionally create the relaxed ``p1 ∨ p2``
            groups of Roy et al. when two groups differ in exactly one
            selection constant on the same column.
        max_block_sources: guard against runaway expansion — blocks with more
            sources than this raise instead of enumerating an enormous space.
        max_or_groups_per_sources: budget of relaxed ``p1 ∨ p2`` groups the
            subsumption passes may *create* per source set over the life of
            one memo (a relaxation whose group already exists is wired up
            regardless).  Every relaxed group is a materialization candidate
            the strategies pay ``bestCost`` calls for: one 180-request
            ``star_serving`` round issues 3 197 oracle calls with a budget
            of 0, 4 475 at the default and 5 787 with the budget
            non-binding, all three choosing identical plans (at the default
            relaxed groups are 440 of 1 321 candidates and 0 of 45
            materializations).  The default keeps the relaxations of Roy
            et al. for one-shot batches and bounds what a long-lived session
            spends on them.
    """

    enable_subsumption: bool = True
    enable_or_subsumption: bool = True
    max_block_sources: int = 12
    max_or_groups_per_sources: int = 8


@dataclass
class _SourceInfo:
    """Everything the expansion needs to know about one block source."""

    alias: str
    signature: Signature
    group_id: int
    rows: float
    width: float
    table: Optional[str]  # base table name; None for derived sources


class DagBuilder:
    """Builds the combined AND-OR DAG for a batch of queries."""

    def __init__(self, catalog: Catalog, config: Optional[DagConfig] = None):
        self.catalog = catalog
        self.config = config if config is not None else DagConfig()
        self.memo = Memo()
        # Relaxed p1 ∨ p2 groups created per source set (budget accounting).
        self._or_groups_created: Dict[FrozenSet, int] = {}
        # intern_query's answers per plan: the memo only grows, so a known
        # plan's groups stay exactly where the first interning put them.
        self._interned: Dict[LogicalPlan, Tuple[int, Tuple[int, ...]]] = {}
        # _split_plan's answers per (source set, join-graph edges).
        self._split_plans: Dict[
            Tuple[FrozenSet[str], FrozenSet[FrozenSet[str]]],
            Tuple[Tuple[FrozenSet[str], FrozenSet[FrozenSet[str]]], ...],
        ] = {}

    # ------------------------------------------------------------------ API

    def intern_batch(self, batch: QueryBatch) -> InternedBatch:
        """Fold every query of a batch into the shared memo.

        The one path from a batch to its DAG roots: the query roots by
        name, the block roots in query order, and how many queries the memo
        already held (their interning left :attr:`Memo.version` unmoved).
        """
        roots: Dict[str, int] = {}
        blocks: List[int] = []
        reused = 0
        for query in batch:
            version = self.memo.version
            roots[query.name], query_blocks = self.intern_query(query)
            blocks.extend(query_blocks)
            reused += self.memo.version == version
        return InternedBatch(roots, tuple(blocks), reused)

    def intern_query(self, query: Query) -> Tuple[int, Tuple[int, ...]]:
        """Fold one query into the shared memo.

        Returns ``(root group id, block root ids)`` for just this query; the
        builder keeps no per-query state beyond the interned-plan table.
        The call is idempotent: re-interning a structurally identical query
        finds all of its groups already present (fingerprint unification)
        and adds nothing.  A plan equal to one interned before (dict
        equality, like the memo's own signatures) is answered from a
        per-builder table without normalizing, binding or expanding it
        again.
        """
        interned = self._interned.get(query.plan)
        if interned is not None:
            return interned
        block = bind_block(normalize_query(query), self.catalog)
        blocks: List[int] = []
        root = self._build_block(block, blocks)
        interned = self._interned[query.plan] = (root, tuple(blocks))
        return interned

    def finalize(self, scope: Iterable[int]) -> SubsumptionPass:
        """Run the post-build pass (subsumption) over one batch's groups.

        ``scope`` is the batch's ``BatchDag.structural_groups()`` — for a
        one-shot build, every group the batch's queries created.  The
        pass is idempotent, so preparing a batch again just runs it again.
        """
        if not self.config.enable_subsumption:
            return SubsumptionPass()
        return apply_subsumption(self, scope)

    # ------------------------------------------------------------ block build

    def _build_block(self, block: QueryBlock, blocks: List[int]) -> int:
        """Expand one block (sources first); append its top group to ``blocks``."""
        if len(block.sources) > self.config.max_block_sources:
            raise ValueError(
                f"block has {len(block.sources)} sources which exceeds the "
                f"configured maximum of {self.config.max_block_sources}"
            )
        infos: Dict[str, _SourceInfo] = {}
        for source in block.sources:
            if source.is_base:
                infos[source.alias] = self._base_source(source.table, source.alias)
            else:
                child_root = self._build_block(source.block, blocks)
                child_group = self.memo.get(child_root)
                infos[source.alias] = _SourceInfo(
                    alias=source.alias,
                    signature=child_group.signature,
                    group_id=child_root,
                    rows=child_group.rows,
                    width=child_group.row_width,
                    table=None,
                )

        estimator = self._make_estimator(infos)
        predicates = frozenset(block.predicates)
        top = self._expand_spj(infos, predicates, estimator, {})

        if block.aggregation is not None:
            top = self._add_aggregate(top, block, estimator)

        if block.having:
            top = self._add_filter(top, frozenset(block.having), estimator)

        blocks.append(top)
        return top

    def _base_source(self, table_name: str, alias: str) -> _SourceInfo:
        table = self.catalog.table(table_name)
        stats = self.catalog.table_statistics(table_name)
        signature = RelationSignature(table=table_name, alias=alias)
        group = self.memo.group_for(signature)
        if not group.mexprs:
            self.memo.add_mexpr(group, ScanMExpr(table=table_name, alias=alias))
            group.rows = stats.row_count
            group.row_width = float(stats.row_width or table.row_width)
            group.aliases = frozenset({alias})
            group.expanded = True
        return _SourceInfo(
            alias=alias,
            signature=signature,
            group_id=group.id,
            rows=group.rows,
            width=group.row_width,
            table=table_name,
        )

    def _make_estimator(self, infos: Mapping[str, _SourceInfo]) -> SelectivityEstimator:
        alias_tables = {info.alias: info.table for info in infos.values() if info.table}
        derived_rows = {info.alias: info.rows for info in infos.values() if info.table is None}
        resolver = CatalogResolver(self.catalog, alias_tables, derived_rows)
        return SelectivityEstimator(resolver)

    # --------------------------------------------------------- SPJ expansion

    def _expand_spj(
        self,
        infos: Mapping[str, _SourceInfo],
        predicates: FrozenSet[Predicate],
        estimator: SelectivityEstimator,
        resolved: Dict[FrozenSet[str], int],
    ) -> int:
        """Create (or find) and expand the SPJ group over ``infos`` and ``predicates``.

        A multi-source group gets one join per split its :meth:`_split_plan`
        chooses.  ``resolved`` maps the alias subsets this top-level call
        has already expanded to their group ids: below the top, a subset's
        predicates are the top-level predicates it fully contains, so a
        repeated subset is answered without rebuilding its infos,
        predicates or signature.  The ``aliases`` and predicate frozensets
        a group is created with are built as they always were: ``rows``
        multiplies over ``aliases`` in its iteration order, and that order
        decides the last bit of the float.
        """
        aliases = frozenset(infos)
        if len(aliases) == 1 and not predicates:
            return infos[next(iter(aliases))].group_id

        sources = frozenset((alias, infos[alias].signature) for alias in aliases)
        signature = SPJSignature(sources=sources, predicates=predicates)
        group = self.memo.group_for(signature)
        if group.expanded:
            return group.id
        group.expanded = True
        group.aliases = aliases

        if len(aliases) == 1:
            alias = next(iter(aliases))
            info = infos[alias]
            ordered = self._canonical_predicates(predicates)
            self.memo.add_mexpr(group, SelectMExpr(conjunction(ordered), info.group_id))
            selectivity = estimator.selectivity(conjunction(ordered))
            group.rows = max(info.rows * selectivity, 1.0)
            group.row_width = info.width
            return group.id

        # Multi-source group: estimate output size and enumerate join splits.
        rows = 1.0
        width = 0.0
        for alias in aliases:
            rows *= max(infos[alias].rows, 1.0)
            width += infos[alias].width
        rows *= estimator.selectivity(conjunction(self._canonical_predicates(predicates)))
        group.rows = max(rows, 1.0)
        group.row_width = max(width, 1.0)

        # Every split reads each predicate's sources; work them out once.
        sourced = [(p, referenced_qualifiers(p)) for p in predicates]
        edges = frozenset(quals for _, quals in sourced if len(quals) >= 2)
        for left_aliases, crossing in self._split_plan(aliases, edges):
            right_aliases = aliases - left_aliases
            left_id = self._expand_subset(infos, sourced, left_aliases, estimator, resolved)
            right_id = self._expand_subset(infos, sourced, right_aliases, estimator, resolved)
            cross_preds = frozenset(p for p, quals in sourced if quals in crossing)
            join_pred = (
                conjunction(self._canonical_predicates(cross_preds)) if cross_preds else None
            )
            self.memo.add_mexpr(
                group,
                JoinMExpr(
                    predicate=join_pred,
                    left=left_id,
                    right=right_id,
                    left_aliases=left_aliases,
                    right_aliases=right_aliases,
                ),
            )
        return group.id

    def _expand_subset(
        self,
        infos: Mapping[str, _SourceInfo],
        sourced: Sequence[Tuple[Predicate, FrozenSet[str]]],
        subset: FrozenSet[str],
        estimator: SelectivityEstimator,
        resolved: Dict[FrozenSet[str], int],
    ) -> int:
        """The group of one side of a split: the predicates within ``subset``."""
        group_id = resolved.get(subset)
        if group_id is None:
            group_id = resolved[subset] = self._expand_spj(
                {a: infos[a] for a in subset},
                frozenset(p for p, quals in sourced if quals and quals <= subset),
                estimator,
                resolved,
            )
        return group_id

    @staticmethod
    def _canonical_predicates(predicates: Iterable[Predicate]) -> Tuple[Predicate, ...]:
        return tuple(sorted(predicates, key=str))

    def _split_plan(
        self, aliases: FrozenSet[str], edges: FrozenSet[FrozenSet[str]]
    ) -> Tuple[Tuple[FrozenSet[str], FrozenSet[FrozenSet[str]]], ...]:
        """The join splits of a source set, as ``(left, crossing)`` pairs.

        ``edges`` are the qualifier sets of the predicates naming at least
        two sources: a predicate naming one source neither crosses a split
        nor connects one, so the plan depends on nothing else and is worked
        out once per builder.  Of all unordered two-way splits, the plan
        keeps the well-connected ones — joined by at least one predicate,
        each side connected in the join graph: the splits exhaustive
        associativity/commutativity would generate without introducing
        Cartesian products — and all of them when none is.  ``crossing``
        holds the qualifier sets of the split's join predicates.
        """
        key = (aliases, edges)
        plan = self._split_plans.get(key)
        if plan is None:
            splits = []
            ordered = sorted(aliases)
            anchor, rest = ordered[0], ordered[1:]
            for size in range(len(rest)):
                for combo in itertools.combinations(rest, size):
                    left = frozenset({anchor, *combo})
                    right = aliases - left
                    crossing = frozenset(
                        quals
                        for quals in edges
                        if quals <= aliases and quals & left and quals & right
                    )
                    well_connected = (
                        bool(crossing)
                        and self._is_connected(left, edges)
                        and self._is_connected(right, edges)
                    )
                    splits.append((left, crossing, well_connected))
            chosen = [s for s in splits if s[2]] or splits
            plan = self._split_plans[key] = tuple((left, crossing) for left, crossing, _ in chosen)
        return plan

    @staticmethod
    def _is_connected(aliases: FrozenSet[str], edges: Iterable[FrozenSet[str]]) -> bool:
        """Whether the join graph restricted to ``aliases`` is connected."""
        if len(aliases) <= 1:
            return True
        adjacency: Dict[str, set] = {a: set() for a in aliases}
        for quals in edges:
            quals = quals & aliases
            if len(quals) < 2:
                continue
            for a, b in itertools.combinations(sorted(quals), 2):
                adjacency[a].add(b)
                adjacency[b].add(a)
        seen = set()
        stack = [next(iter(aliases))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency[node] - seen)
        return len(seen) == len(aliases)

    # ----------------------------------------------------- aggregation / having

    def _add_aggregate(
        self, child_id: int, block: QueryBlock, estimator: SelectivityEstimator
    ) -> int:
        child = self.memo.get(child_id)
        aggregation = block.aggregation
        group_by = tuple(aggregation.group_by)
        aggregates = tuple(sorted(aggregation.aggregates, key=lambda a: a.alias))
        signature = AggregateSignature(
            input=child.signature,
            group_by=frozenset(group_by),
            aggregates=aggregates,
        )
        group = self.memo.group_for(signature)
        if not group.expanded:
            group.expanded = True
            self.memo.add_mexpr(group, AggregateMExpr(group_by, aggregates, child_id))
            group.rows = estimator.group_cardinality(child.rows, group_by)
            group.row_width = 8.0 * (len(group_by) + len(aggregates))
            group.aliases = child.aliases
        return group.id

    def _add_filter(
        self, child_id: int, predicates: FrozenSet[Predicate], estimator: SelectivityEstimator
    ) -> int:
        child = self.memo.get(child_id)
        signature = FilterSignature(input=child.signature, predicates=predicates)
        group = self.memo.group_for(signature)
        if not group.expanded:
            group.expanded = True
            ordered = self._canonical_predicates(predicates)
            self.memo.add_mexpr(group, SelectMExpr(conjunction(ordered), child_id))
            group.rows = max(child.rows * estimator.selectivity(conjunction(ordered)), 1.0)
            group.row_width = child.row_width
            group.aliases = child.aliases
        return group.id

    # -------------------------------------------------------- subsumption API

    def expand_signature(self, sources: FrozenSet[Tuple[str, Signature]],
                         predicates: FrozenSet[Predicate]) -> int:
        """Create (or find) and fully expand an SPJ group given its signature parts.

        Used by the subsumption pass to build relaxed common subexpressions
        that were not part of any original query.  Such a group is not
        structural for the batch being related, so no pass pairs it with
        anything unless a later query really contains it.
        """
        infos: Dict[str, _SourceInfo] = {}
        for alias, signature in sources:
            group = self.memo.find(signature)
            if group is None:
                raise ValueError(f"source signature for alias {alias!r} has no group")
            infos[alias] = _SourceInfo(
                alias=alias,
                signature=signature,
                group_id=group.id,
                rows=group.rows,
                width=group.row_width,
                table=signature.table if isinstance(signature, RelationSignature) else None,
            )
        return self._expand_spj(infos, predicates, self._make_estimator(infos), {})

    def or_group_budget_left(self, sources: FrozenSet) -> bool:
        return self._or_groups_created.get(sources, 0) < self.config.max_or_groups_per_sources

    def count_or_group(self, sources: FrozenSet) -> None:
        self._or_groups_created[sources] = self._or_groups_created.get(sources, 0) + 1


# ---------------------------------------------------------------------------
# Subsumption
# ---------------------------------------------------------------------------


def _is_selection_predicate(predicate: Predicate) -> bool:
    """True for single-source predicates (candidates for relaxation)."""
    return not is_join_predicate(predicate) and len(referenced_qualifiers(predicate)) <= 1


class InternedBatch(NamedTuple):
    """What :meth:`DagBuilder.intern_batch` returns."""

    query_roots: Dict[str, int]
    block_roots: Tuple[int, ...]
    reused: int


class SubsumptionPass(NamedTuple):
    """What one subsumption pass looked at and produced."""

    groups: int = 0  # SPJ groups of the scope
    pairs: int = 0  # same-source pairs compared
    derivations_added: int = 0  # multi-expressions new to the memo


def apply_subsumption(builder: DagBuilder, scope: Iterable[int]) -> SubsumptionPass:
    """Add σ-derivations between the same-source groups of one batch.

    ``scope`` holds the group ids to relate: one batch's structural groups.
    Only pairs inside it are compared — a derivation is usable only by a
    batch containing both groups of an inducing pair
    (:meth:`~repro.dag.memo.Memo.add_derivation`), so pairing them with what
    other batches left in a shared memo could never activate anything, and
    the pass costs what the batch costs, however old the memo.  Groups are
    visited by ascending id, which for a one-shot build is creation order.

    For every pair of SPJ groups with identical sources:

    * if one predicate set contains the other, the stricter group gains a
      selection alternative over the weaker group, and
    * if both differ only in selection predicates, both gain selection
      alternatives over the group with the *common* predicates, and — when
      the difference is a single predicate on the same column on each side —
      over the relaxed ``p1 ∨ p2`` group (the disjunctive subsumption node of
      Roy et al.).

    Groups the pass creates (common and relaxed ones) are not part of
    ``scope``, so relaxations are never relaxed against each other.
    """
    memo = builder.memo
    config = builder.config
    buckets: Dict[FrozenSet, List[Group]] = {}
    for gid in sorted(scope):
        group = memo.get(gid)
        if isinstance(group.signature, SPJSignature):
            buckets.setdefault(group.signature.sources, []).append(group)

    pairs = 0
    added = 0
    for sources, groups in buckets.items():
        for g1, g2 in itertools.combinations(groups, 2):
            pairs += 1
            pair = (g1.id, g2.id)
            p1 = g1.signature.predicates
            p2 = g2.signature.predicates
            d1 = p1 - p2
            d2 = p2 - p1
            if not d1 and not d2:
                continue
            if d1 and not d2:
                added += memo.add_derivation(
                    g1, SelectMExpr(conjunction(sorted(d1, key=str)), g2.id), pair
                )
                continue
            if d2 and not d1:
                added += memo.add_derivation(
                    g2, SelectMExpr(conjunction(sorted(d2, key=str)), g1.id), pair
                )
                continue
            if not all(_is_selection_predicate(p) for p in d1 | d2):
                continue
            common = p1 & p2
            common_id = builder.expand_signature(sources, common)
            if common_id not in (g1.id, g2.id):
                added += memo.add_derivation(
                    g1, SelectMExpr(conjunction(sorted(d1, key=str)), common_id), pair
                )
                added += memo.add_derivation(
                    g2, SelectMExpr(conjunction(sorted(d2, key=str)), common_id), pair
                )
            if config.enable_or_subsumption:
                relaxed = _relaxed_predicates(d1, d2)
                if relaxed:
                    or_signature = SPJSignature(sources=sources, predicates=common | relaxed)
                    is_new = memo.find(or_signature) is None
                    if is_new and not builder.or_group_budget_left(sources):
                        continue
                    or_id = builder.expand_signature(sources, common | relaxed)
                    if is_new:
                        builder.count_or_group(sources)
                    if or_id not in (g1.id, g2.id):
                        added += memo.add_derivation(
                            g1, SelectMExpr(conjunction(sorted(d1, key=str)), or_id), pair
                        )
                        added += memo.add_derivation(
                            g2, SelectMExpr(conjunction(sorted(d2, key=str)), or_id), pair
                        )
    return SubsumptionPass(
        groups=sum(len(groups) for groups in buckets.values()),
        pairs=pairs,
        derivations_added=added,
    )


def _relaxed_predicates(
    d1: FrozenSet[Predicate], d2: FrozenSet[Predicate]
) -> FrozenSet[Predicate]:
    """The per-column disjunctive relaxation of two differing selection sets.

    For every column constrained by exactly one predicate on each side, the
    relaxed predicate ``p1 ∨ p2`` is implied by both sides, so a group
    carrying the relaxed set can serve both originals with one extra
    selection on top (the disjunctive subsumption node of Roy et al.).
    Columns constrained on only one side are simply dropped from the relaxed
    set.  Returns an empty set when no column is shared.
    """

    def by_column(preds: FrozenSet[Predicate]) -> Optional[Dict[object, Predicate]]:
        mapping: Dict[object, Predicate] = {}
        for pred in preds:
            column = single_column(pred)
            if column is None or column in mapping:
                return None
            mapping[column] = pred
        return mapping

    left = by_column(d1)
    right = by_column(d2)
    if left is None or right is None:
        return frozenset()
    shared = set(left) & set(right)
    # Canonical disjunct order: the relaxed group's signature must not depend
    # on which side happens to carry the lower group id.
    return frozenset(disjunction(sorted((left[c], right[c]), key=str)) for c in shared)
