"""Plan extraction over the combined DAG: the Volcano optimizer and ``bestCost``.

Given the memo built by :mod:`repro.dag`, this module computes, for any set
``S`` of materialized equivalence nodes,

* ``bestUseCost(Q, S)`` — the cheapest consolidated plan for every query of
  the batch when the results of ``S`` are available on disk (each consumer
  independently chooses between re-reading the materialized result and
  recomputing the expression), and
* ``bestCost(Q, S) = bestUseCost(Q, S) + Σ_{s∈S} (compute(s | S) + write(s))``
  — adding the cost of producing and materializing every node of ``S``
  (those plans may themselves exploit the other materialized nodes).

``bestCost(Q, ∅)`` is exactly the plain-Volcano, no-sharing baseline.

The plan DP is a classical Volcano physical optimization over
``(group, required sort order)`` states: every logical multi-expression is
implemented by the operators of the paper's rule set (relation scan, indexed
selection, merge join, block/index nested-loop join, external sort and
sort-based aggregation), and a sort enforcer bridges order mismatches.

Only one thing about a DP state depends on ``S``: whether its own group can
be read back from disk.  Everything else — which states feed an operator,
what the operator itself costs, which order it delivers — is worked out once
per optimizer (:class:`_Alternative`), so evaluating a state is a few
additions and a ``min``, and moving a :class:`PlanTable` from one ``S`` to
another (:meth:`VolcanoOptimizer.best_cost` with ``cache=``) recomputes the
states of the toggled groups and then only those consumers, in topological
order, whose inputs' best plans really changed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..algebra.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    conjuncts,
    conjunction,
)
from ..algebra.properties import ANY_ORDER, SortOrder
from ..cost.cardinality import CatalogResolver, SelectivityEstimator
from ..cost.model import CostModel
from ..dag.memo import (
    AggregateMExpr,
    Group,
    JoinMExpr,
    MExpr,
    ScanMExpr,
    SelectMExpr,
)
from ..dag.sharing import BatchDag, MaterializationChoice
from .plan import PhysicalOp, PhysicalPlan

__all__ = [
    "BestCostResult",
    "VolcanoOptimizer",
    "PlanTable",
    "normalize_materialized",
    "split_candidate",
]


def split_candidate(element) -> Tuple[int, SortOrder]:
    """(group id, stored order) of a bare group id or a :class:`MaterializationChoice`."""
    if isinstance(element, MaterializationChoice):
        return element.group, element.order
    return int(element), ANY_ORDER


def normalize_materialized(materialized: Iterable) -> Dict[int, Tuple[SortOrder, ...]]:
    """Normalize a mixed set of candidates to ``{group id: stored orders}``.

    The orders of one group are sorted (unsorted first): equal-cost reads of
    the same node tie-break by position, and a set's iteration order must
    not pick the plan.
    """
    stored: Dict[int, List[SortOrder]] = {}
    for element in materialized:
        gid, order = split_candidate(element)
        orders = stored.setdefault(gid, [])
        if order not in orders:
            orders.append(order)
    return {
        gid: tuple(sorted(orders, key=lambda o: (bool(o), str(o))))
        for gid, orders in stored.items()
    }


@dataclass(frozen=True)
class BestCostResult:
    """The outcome of one ``bestCost(Q, S)`` evaluation."""

    materialized: FrozenSet
    query_plans: Mapping[str, PhysicalPlan]
    materialization_plans: Mapping[int, PhysicalPlan]
    use_cost: float
    overhead_cost: float

    @property
    def total_cost(self) -> float:
        """``bestCost``: use cost plus the cost of computing and writing ``S``."""
        return self.use_cost + self.overhead_cost

    def query_cost(self, name: str) -> float:
        return self.query_plans[name].cost


class PlanTable:
    """The plan-DP entries of one materialization set: state -> best plan.

    Entries live in two layers: ``own`` belongs to this table and shadows
    ``shared``, which every table forked (directly or not) from the same
    first table reads and none writes.  The first :meth:`fork` of a table
    moves its entries into the shared layer, so a fork copies only what its
    source holds *on top of* the table they both descend from, and a table
    moved to another set by :meth:`VolcanoOptimizer.best_cost` keeps in
    ``own`` just the entries that differ from that first table.

    ``stored`` is the (normalized) set the entries are valid for;
    ``recomputed`` / ``invalidated`` count the entries derived, and the
    existing entries re-derived, since the table was created.
    """

    __slots__ = ("stored", "shared", "own", "recomputed", "invalidated")

    def __init__(self, stored: Optional[Dict[int, Tuple[SortOrder, ...]]] = None):
        self.stored = stored if stored is not None else {}
        self.shared: Dict[_State, PhysicalPlan] = {}
        self.own: Dict[_State, PhysicalPlan] = {}
        self.recomputed = 0
        self.invalidated = 0

    def size(self) -> int:
        """How many states have an entry."""
        shared = self.shared
        return len(shared) + sum(1 for state in self.own if state not in shared)

    def fork(self) -> "PlanTable":
        """A table that starts with this one's entries and shares their storage."""
        if not self.shared:
            self.shared, self.own = self.own, {}
        table = PlanTable(self.stored)
        table.shared = self.shared
        table.own = dict(self.own)
        return table


class _Alternative:
    """One physical implementation of one multi-expression, costed once.

    ``local`` is the operator's own cost, ``order`` the sort order it
    delivers (``None``: that of its first input), ``sort`` what a sort
    enforcer on top of it costs and ``fields`` the remaining
    :class:`PhysicalPlan` arguments.  ``inputs`` are the DP states whose best
    plans become the children; with ``passes_order`` the operator is also
    offered over its input sorted the way its own consumer asked.
    """

    __slots__ = ("op", "inputs", "local", "order", "sort", "passes_order", "fields")

    def __init__(self, op, inputs, local, order, sort, passes_order=False, **fields):
        self.op = op
        self.inputs: Tuple[Tuple[int, SortOrder], ...] = inputs
        self.local: float = local
        self.order: Optional[SortOrder] = order
        self.sort: float = sort
        self.passes_order = passes_order
        self.fields = fields


class _GroupCosts:
    """What is fixed about one group: its size, its sort / read-back / write
    costs and its :class:`_Alternative` list in candidate order."""

    __slots__ = ("rows", "width", "sort", "read", "write", "alternatives")

    def __init__(self, group: Group, model: CostModel):
        self.rows, self.width = group.rows, group.row_width
        self.sort = model.sort(self.rows, self.width)
        self.read = model.read_materialized(self.rows, self.width)
        self.write = model.materialize(self.rows, self.width)
        self.alternatives: List[_Alternative] = []


class _State:
    """One DP state ``(group, required order)`` — the key of a :class:`PlanTable`.

    ``candidates`` are ``(alternative, input states, fits)`` in candidate
    order, ``fits`` telling whether the alternative delivers the required
    order (``None``: that depends on its first input's plan), and
    ``position`` sorts every state after all of its inputs.  States refer to
    their inputs only, never upward: an optimizer nobody holds any more is
    freed at once, without waiting for the cycle collector.
    """

    __slots__ = ("gid", "required", "group", "position", "candidates")

    def __init__(self, gid: int, required: SortOrder, group: _GroupCosts, position):
        self.gid = gid
        self.required = required
        self.group = group
        self.position: Tuple[int, int] = position
        self.candidates: List[Tuple[_Alternative, Tuple[_State, ...], Optional[bool]]] = []


def _sort_over(plan: PhysicalPlan, order: SortOrder, local: float) -> PhysicalPlan:
    return PhysicalPlan(
        op=PhysicalOp.SORT,
        group=plan.group,
        cost=plan.cost + local,
        local_cost=local,
        rows=plan.rows,
        width=plan.width,
        order=order,
        children=(plan,),
    )


class VolcanoOptimizer:
    """The plan-extraction DP over a :class:`~repro.dag.sharing.BatchDag`."""

    def __init__(self, dag: BatchDag, cost_model: Optional[CostModel] = None):
        self.dag = dag
        self.memo = dag.memo
        self.catalog = dag.catalog
        self.cost_model = cost_model if cost_model is not None else CostModel()
        # Everything below is independent of the materialized set and grows
        # to at most one entry per group / DP state of the batch's scope.
        self._groups: Dict[int, _GroupCosts] = {}
        self._states: Dict[Tuple[int, SortOrder], _State] = {}
        self._states_of: Dict[int, List[_State]] = {}
        self._consumers: Dict[_State, List[_State]] = {}

    # ------------------------------------------------------------------ API

    def best_cost(
        self,
        materialized: Iterable = (),
        cache: Optional[PlanTable] = None,
    ) -> BestCostResult:
        """Evaluate ``bestCost(Q, S)`` for the batch with materialized set ``S``.

        ``materialized`` may mix bare group ids (stored unsorted) and
        :class:`MaterializationChoice` objects (stored with a sort order).
        ``cache`` may hold the DP of any other set; it is moved to ``S`` by
        change propagation and is valid for ``S`` afterwards.
        """
        original = frozenset(materialized)
        stored = normalize_materialized(original)
        table = cache if cache is not None else PlanTable(stored)
        if table.stored != stored:
            self._propagate(table, stored)
        query_plans: Dict[str, PhysicalPlan] = {}
        use_cost = 0.0
        for name, root in self.dag.query_roots.items():
            plan = self._entry(self._state(root, ANY_ORDER), table)
            query_plans[name] = plan
            use_cost += plan.cost
        overhead = 0.0
        materialization_plans: Dict[int, PhysicalPlan] = {}
        for gid in sorted(stored):
            for stored_order in stored[gid]:
                plan = self.materialization_plan(gid, stored_order, table)
                materialization_plans[gid] = plan
                overhead += plan.cost
        return BestCostResult(
            materialized=original,
            query_plans=query_plans,
            materialization_plans=materialization_plans,
            use_cost=use_cost,
            overhead_cost=overhead,
        )

    def materialization_plan(
        self, group_id: int, stored_order: SortOrder, table: PlanTable
    ) -> PhysicalPlan:
        """Compute a node (it may not read itself), sort it as stored, write it."""
        compute = self._compute(self._state(group_id, ANY_ORDER), table, reads=False)
        if not compute.order.satisfies(stored_order):
            compute = _sort_over(
                compute, stored_order, self.cost_model.sort(compute.rows, compute.width)
            )
        costs = self._group(group_id)
        return PhysicalPlan(
            op=PhysicalOp.MATERIALIZE,
            group=group_id,
            cost=compute.cost + costs.write,
            local_cost=costs.write,
            rows=costs.rows,
            width=costs.width,
            order=stored_order,
            children=(compute,),
        )

    def optimize_group(
        self, group_id: int, materialized: Iterable = (), order: SortOrder = ANY_ORDER
    ) -> PhysicalPlan:
        """Best plan for one equivalence node (public, mostly for tests/examples)."""
        table = PlanTable(normalize_materialized(materialized))
        return self._entry(self._state(group_id, order), table)

    def optimize_query(self, name: str, materialized: Iterable = ()) -> PhysicalPlan:
        return self.optimize_group(self.dag.query_roots[name], materialized)

    # --------------------------------------------------------------- plan DP

    def _entry(self, state: _State, table: PlanTable) -> PhysicalPlan:
        """The table's plan for a state, derived (recursively) when missing."""
        plan = table.own.get(state) or table.shared.get(state)
        if plan is None:
            plan = table.own[state] = self._compute(state, table)
            table.recomputed += 1
        return plan

    def _compute(self, state: _State, table: PlanTable, reads: bool = True) -> PhysicalPlan:
        """The cheapest plan for a state given the table's plans for its inputs."""
        required = state.required
        group = state.group
        own, shared = table.own, table.shared
        # The first cheapest candidate wins, reads of the node's stored
        # copies first: ``choice`` is a stored order or one of the candidates.
        choice = None
        best = inner = 0.0
        presorted = True
        if reads:
            for stored_order in table.stored.get(state.gid, ()):
                fits = stored_order.satisfies(required)
                cost = group.read if fits else group.read + group.sort
                if choice is None or cost < best:
                    choice, best, inner, presorted = stored_order, cost, group.read, fits
        for candidate in state.candidates:
            alternative, inputs, fits = candidate
            if inputs:
                first = own.get(inputs[0]) or shared.get(inputs[0]) or self._entry(inputs[0], table)
                cost = first.cost
                for other in inputs[1:]:
                    cost += (own.get(other) or shared.get(other) or self._entry(other, table)).cost
                cost += alternative.local
                if fits is None:
                    fits = first.order.satisfies(required)
            else:
                cost = alternative.local
            total = cost if fits else cost + alternative.sort
            if choice is None or total < best:
                choice, best, inner, presorted = candidate, total, cost, fits
        if choice is None:
            raise RuntimeError(f"group G{state.gid} has no implementable alternative")
        if isinstance(choice, SortOrder):
            sort = group.sort
            plan = PhysicalPlan(
                op=PhysicalOp.READ_MATERIALIZED,
                group=state.gid,
                cost=inner,
                local_cost=inner,
                rows=group.rows,
                width=group.width,
                order=choice,
            )
        else:
            alternative, inputs, _ = choice
            sort = alternative.sort
            children = tuple(own.get(child) or shared.get(child) for child in inputs)
            plan = PhysicalPlan(
                op=alternative.op,
                group=state.gid,
                cost=inner,
                local_cost=alternative.local,
                order=alternative.order if alternative.order is not None else children[0].order,
                children=children,
                **alternative.fields,
            )
        return plan if presorted else _sort_over(plan, required, sort)

    def _propagate(self, table: PlanTable, stored: Dict[int, Tuple[SortOrder, ...]]) -> None:
        """Move ``table`` to the materialized set ``stored`` (paper §5.1).

        The states of every group whose stored copies differ are recomputed;
        from there a state is revisited only when the plan of one of its
        inputs changed, inputs before consumers, and the walk stops wherever
        the recomputed plan equals the old one.  The comparison is on the
        whole plan, not its cost: the executor runs these trees, so a plan
        that now reads a materialization at the same cost still has to reach
        its consumers.
        """
        before = table.stored
        table.stored = stored
        queue: List[Tuple[Tuple[int, int], _State]] = []
        queued = set()
        for gid in sorted(before.keys() | stored.keys()):
            if before.get(gid) != stored.get(gid):
                for state in self._states_of.get(gid, ()):
                    queued.add(state)
                    heapq.heappush(queue, (state.position, state))
        own, shared = table.own, table.shared
        while queue:
            _, state = heapq.heappop(queue)
            old = own.get(state) or shared.get(state)
            if old is None:
                continue  # a state this table never needed
            plan = self._compute(state, table)
            table.recomputed += 1
            table.invalidated += 1
            if plan == old:
                continue
            if shared.get(state) == plan:
                del own[state]  # back to what the first table holds
            else:
                own[state] = plan
            for consumer in self._consumers.get(state, ()):
                if consumer not in queued:
                    queued.add(consumer)
                    heapq.heappush(queue, (consumer.position, consumer))

    # ------------------------------------- what does not depend on the set

    def _state(self, gid: int, required: SortOrder) -> _State:
        state = self._states.get((gid, required))
        if state is None:
            group = self._group(gid)
            # Consumers rank strictly above their inputs, so (rank, age) is a
            # topological order that does not depend on hashing.
            state = _State(gid, required, group, (self.dag.rank(gid), len(self._states)))
            self._states[gid, required] = state
            self._states_of.setdefault(gid, []).append(state)
            for alternative in group.alternatives:
                if alternative.order is None:
                    fits = None if required else True
                else:
                    fits = alternative.order.satisfies(required)
                inputs = tuple(self._state(*source) for source in alternative.inputs)
                state.candidates.append((alternative, inputs, fits))
                if alternative.passes_order and required:
                    ordered = (self._state(inputs[0].gid, required),)
                    state.candidates.append((alternative, ordered, None))
            for source in dict.fromkeys(s for _, inputs, _ in state.candidates for s in inputs):
                self._consumers.setdefault(source, []).append(state)
        return state

    def _group(self, group_id: int) -> _GroupCosts:
        costs = self._groups.get(group_id)
        if costs is None:
            group = self.memo.get(group_id)
            costs = self._groups[group_id] = _GroupCosts(group, self.cost_model)
            for mexpr in self.dag.iter_mexprs(group_id):
                costs.alternatives.extend(self._implement(mexpr, costs))
        return costs

    def _implement(self, mexpr: MExpr, costs: _GroupCosts) -> List[_Alternative]:
        if isinstance(mexpr, ScanMExpr):
            return self._implement_scan(mexpr, costs)
        if isinstance(mexpr, SelectMExpr):
            return self._implement_select(mexpr, costs)
        if isinstance(mexpr, JoinMExpr):
            return self._implement_join(mexpr, costs)
        if isinstance(mexpr, AggregateMExpr):
            return self._implement_aggregate(mexpr, costs)
        raise TypeError(f"unknown multi-expression type: {type(mexpr).__name__}")

    def _implement_scan(self, mexpr: ScanMExpr, costs: _GroupCosts) -> List[_Alternative]:
        clustered = self.catalog.clustered_index(mexpr.table)
        scan_order = SortOrder()
        if clustered is not None:
            scan_order = SortOrder(
                tuple(ColumnRef(c, mexpr.alias) for c in clustered.columns)
            )
        return [
            _Alternative(
                PhysicalOp.TABLE_SCAN,
                (),
                self.cost_model.table_scan(costs.rows, costs.width),
                scan_order,
                costs.sort,
                rows=costs.rows,
                width=costs.width,
                table=mexpr.table,
                alias=mexpr.alias,
            )
        ]

    def _implement_select(self, mexpr: SelectMExpr, costs: _GroupCosts) -> List[_Alternative]:
        child_group = self.memo.get(mexpr.child)
        alternatives = [
            _Alternative(
                PhysicalOp.FILTER,
                ((mexpr.child, ANY_ORDER),),
                self.cost_model.filter(child_group.rows, child_group.row_width),
                None,
                costs.sort,
                passes_order=True,
                rows=costs.rows,
                width=costs.width,
                predicate=mexpr.predicate,
            )
        ]
        indexed = self._indexed_selection(mexpr, child_group, costs)
        if indexed is not None:
            alternatives.append(indexed)
        return alternatives

    def _indexed_selection(
        self, mexpr: SelectMExpr, child_group: Group, costs: _GroupCosts
    ) -> Optional[_Alternative]:
        """Clustered-index selection directly on a base relation, if applicable."""
        if not child_group.is_relation:
            return None
        table = child_group.signature.table
        alias = child_group.signature.alias
        clustered = self.catalog.clustered_index(table)
        if clustered is None:
            return None
        leading = clustered.leading_column
        index_conjuncts = [
            p
            for p in conjuncts(mexpr.predicate)
            if isinstance(p, Comparison)
            and not isinstance(p.right, ColumnRef)
            and p.left.name == leading
        ]
        if not index_conjuncts:
            return None
        estimator = SelectivityEstimator(CatalogResolver(self.catalog, {alias: table}))
        selectivity = estimator.selectivity(conjunction(index_conjuncts))
        stats = self.catalog.table_statistics(table)
        return _Alternative(
            PhysicalOp.INDEX_SCAN,
            (),
            self.cost_model.indexed_selection(
                stats.row_count, child_group.row_width, selectivity
            ),
            SortOrder(tuple(ColumnRef(c, alias) for c in clustered.columns)),
            costs.sort,
            rows=costs.rows,
            width=costs.width,
            table=table,
            alias=alias,
            predicate=mexpr.predicate,
        )

    def _implement_join(self, mexpr: JoinMExpr, costs: _GroupCosts) -> List[_Alternative]:
        model = self.cost_model
        left_group = self.memo.get(mexpr.left)
        right_group = self.memo.get(mexpr.right)
        left_any = (mexpr.left, ANY_ORDER)
        right_any = (mexpr.right, ANY_ORDER)
        left_keys, right_keys = self._equijoin_keys(mexpr)
        common = dict(rows=costs.rows, width=costs.width, predicate=mexpr.predicate)
        alternatives: List[_Alternative] = []

        # Merge join (requires both inputs sorted on the join keys).
        if left_keys:
            left_order = SortOrder(tuple(left_keys))
            right_order = SortOrder(tuple(right_keys))
            local = model.merge_join(
                left_group.rows,
                left_group.row_width,
                right_group.rows,
                right_group.row_width,
                costs.rows,
            )
            alternatives.append(
                _Alternative(
                    PhysicalOp.MERGE_JOIN,
                    ((mexpr.left, left_order), (mexpr.right, right_order)),
                    local,
                    left_order,
                    costs.sort,
                    **common,
                )
            )

        # Block nested-loop join, both operand orders.
        for outer, inner, outer_group, inner_group in (
            (left_any, right_any, left_group, right_group),
            (right_any, left_any, right_group, left_group),
        ):
            local = model.nested_loop_join(
                outer_group.rows,
                outer_group.row_width,
                inner_group.rows,
                inner_group.row_width,
                inner_is_stored=inner_group.is_relation,
            )
            alternatives.append(
                _Alternative(
                    PhysicalOp.NESTED_LOOP_JOIN, (outer, inner), local, None, costs.sort, **common
                )
            )

        # Index nested-loop join: probe a clustered index on a base-relation inner.
        if left_keys:
            for outer, outer_group, inner_group, inner_keys in (
                (left_any, left_group, right_group, right_keys),
                (right_any, right_group, left_group, left_keys),
            ):
                probe = self._index_probe(outer_group, inner_group, inner_keys)
                if probe is not None:
                    local, table = probe
                    alternatives.append(
                        _Alternative(
                            PhysicalOp.INDEX_NL_JOIN,
                            (outer,),
                            local,
                            None,
                            costs.sort,
                            table=table,
                            alias=inner_group.signature.alias,
                            **common,
                        )
                    )
        return alternatives

    def _index_probe(
        self, outer_group: Group, inner_group: Group, inner_keys: List[ColumnRef]
    ) -> Optional[Tuple[float, str]]:
        """(cost, table) of probing the inner's clustered index per outer row."""
        if not inner_group.is_relation or not inner_keys:
            return None
        table = inner_group.signature.table
        clustered = self.catalog.clustered_index(table)
        if clustered is None:
            return None
        if clustered.leading_column not in {k.name for k in inner_keys}:
            return None
        stats = self.catalog.table_statistics(table)
        distinct = stats.distinct(clustered.leading_column)
        local = self.cost_model.index_nested_loop_join(
            outer_group.rows, stats.row_count, inner_group.row_width, distinct
        )
        return local, table

    def _equijoin_keys(
        self, mexpr: JoinMExpr
    ) -> Tuple[List[ColumnRef], List[ColumnRef]]:
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

    def _implement_aggregate(
        self, mexpr: AggregateMExpr, costs: _GroupCosts
    ) -> List[_Alternative]:
        model = self.cost_model
        child_group = self.memo.get(mexpr.child)
        if not mexpr.group_by:
            return [
                _Alternative(
                    PhysicalOp.SCALAR_AGGREGATE,
                    ((mexpr.child, ANY_ORDER),),
                    model.scalar_aggregate(child_group.rows, child_group.row_width),
                    SortOrder(),
                    model.sort(1.0, costs.width),
                    rows=1.0,
                    width=costs.width,
                    aggregates=mexpr.aggregates,
                )
            ]
        group_order = SortOrder(tuple(mexpr.group_by))
        return [
            _Alternative(
                PhysicalOp.SORT_AGGREGATE,
                ((mexpr.child, group_order),),
                model.sort_aggregate(child_group.rows, child_group.row_width),
                group_order,
                costs.sort,
                rows=costs.rows,
                width=costs.width,
                group_by=mexpr.group_by,
                aggregates=mexpr.aggregates,
            )
        ]
