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
per optimizer (:class:`_Alternative`, sort orders interned to ints with
``satisfies`` as a table), and the DP is over costs: evaluating a state is a
few additions and a ``min``, and moving a :class:`PlanTable` from one ``S`` to
another (:meth:`VolcanoOptimizer.best_cost` with ``cache=``) recomputes the
states of the toggled groups and then only those consumers, in topological
order, whose inputs' cost or delivered order really changed.  Plan trees are
built from the winning candidates (:meth:`VolcanoOptimizer.extract`), once
per set somebody reads as trees.
"""

from __future__ import annotations

import heapq
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


class BestCostResult:
    """The outcome of one ``bestCost(Q, S)`` evaluation.

    The plan trees are extracted from the evaluation's table when first read;
    from then on the result holds neither table nor optimizer.  Results
    compare by value, trees included.
    """

    def __init__(self, materialized: FrozenSet, use_cost: float, overhead_cost: float, source):
        self.materialized = materialized
        self.use_cost = use_cost
        self.overhead_cost = overhead_cost
        self._source: Optional[Tuple[VolcanoOptimizer, PlanTable]] = source
        self._plans: Optional[Tuple[Dict[str, PhysicalPlan], Dict[int, PhysicalPlan]]] = None

    def _extracted(self):
        if self._plans is None:
            optimizer, table = self._source
            self._plans, self._source = optimizer.extract(self.materialized, table), None
        return self._plans

    @property
    def query_plans(self) -> Mapping[str, PhysicalPlan]:
        return self._extracted()[0]

    @property
    def materialization_plans(self) -> Mapping[int, PhysicalPlan]:
        return self._extracted()[1]

    @property
    def total_cost(self) -> float:
        """``bestCost``: use cost plus the cost of computing and writing ``S``."""
        return self.use_cost + self.overhead_cost

    def query_cost(self, name: str) -> float:
        return self.query_plans[name].cost

    def __eq__(self, other):
        if not isinstance(other, BestCostResult):
            return NotImplemented
        mine = (self.materialized, self.use_cost, self.overhead_cost, self._extracted())
        return mine == (other.materialized, other.use_cost, other.overhead_cost, other._extracted())


class PlanTable:
    """The plan-DP entries of one materialization set: state -> ``(cost,
    delivered order id, choice, presorted)``, ``choice`` being the winning
    candidate of the state (or the stored :class:`SortOrder` read back) and
    ``cost`` including the sort enforcer a choice that is not ``presorted``
    needs.  An entry names the input *states* of its choice, not their plans.

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
        self.shared: Dict[_State, _Entry] = {}
        self.own: Dict[_State, _Entry] = {}
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

    ``local`` is the operator's own cost, ``order`` the id of the sort order
    it delivers (``None``: that of its first input), ``sort`` what a sort
    enforcer on top of it costs and ``fields`` the remaining
    :class:`PhysicalPlan` arguments.  ``inputs`` are the ``(group id, order
    id)`` DP states whose best plans become the children; with
    ``passes_order`` the operator is also offered over its input sorted the
    way its own consumer asked.
    """

    __slots__ = ("op", "inputs", "local", "order", "sort", "passes_order", "fields")

    def __init__(self, op, inputs, local, order, sort, passes_order=False, **fields):
        self.op = op
        self.inputs: Tuple[Tuple[int, int], ...] = inputs
        self.local: float = local
        self.order: Optional[int] = order
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
    """One DP state ``(group, required order id)`` — the key of a :class:`PlanTable`.

    ``candidates`` are ``(alternative, input states, fits)`` in candidate
    order, ``fits`` telling whether the alternative delivers the required
    order (``None``: that depends on its first input's plan), and
    ``position`` sorts every state after all of its inputs.  States refer to
    their inputs only, never upward: an optimizer nobody holds any more is
    freed at once, without waiting for the cycle collector.
    """

    __slots__ = ("gid", "required", "group", "position", "candidates")

    def __init__(self, gid: int, required: int, group: _GroupCosts, position):
        self.gid = gid
        self.required = required
        self.group = group
        self.position: Tuple[int, int] = position
        self.candidates: List[Tuple[_Alternative, Tuple[_State, ...], Optional[bool]]] = []


#: ``(cost, delivered order id, choice, presorted)``, see :class:`PlanTable`.
_Entry = Tuple[float, int, object, bool]
_Built = Dict[_State, PhysicalPlan]
#: The id every optimizer interns :data:`ANY_ORDER` to.
_ANY = 0


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
        self.plans_extracted = 0  # sets whose trees :meth:`extract` built
        # Everything below is independent of the materialized set and grows
        # to at most one entry per group / DP state / pair of sort orders of
        # the batch's scope.
        self._groups: Dict[int, _GroupCosts] = {}
        self._states: Dict[Tuple[int, int], _State] = {}
        self._states_of: Dict[int, List[_State]] = {}
        self._consumers: Dict[_State, List[_State]] = {}
        self._orders: List[SortOrder] = [ANY_ORDER]
        self._order_ids: Dict[SortOrder, int] = {ANY_ORDER: _ANY}
        self._satisfied: Dict[Tuple[int, int], bool] = {(_ANY, _ANY): True}

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
        use_cost = 0.0
        for root in self.dag.query_roots.values():
            use_cost += self._entry(self._state(root, _ANY), table)[0]
        overhead = 0.0
        for gid in sorted(stored):
            for stored_order in stored[gid]:
                overhead += self.materialization_cost(gid, stored_order, table)
        return BestCostResult(original, use_cost, overhead, (self, table))

    def extract(self, materialized: FrozenSet, table: PlanTable):
        """The ``(query plans, materialization plans)`` of ``bestCost(Q, S)``, from
        the table ``S`` was evaluated on (a fork is moved back if it has moved on)."""
        stored = normalize_materialized(materialized)
        if table.stored != stored:
            table = table.fork()
            self._propagate(table, stored)
        self.plans_extracted += 1
        built: _Built = {}  # one walk: a state several plans share is one subtree
        query_plans = {
            name: self._plan(self._state(root, _ANY), table, built)
            for name, root in self.dag.query_roots.items()
        }
        materialization_plans = {
            gid: self.materialization_plan(gid, stored_order, table, built)
            for gid in sorted(stored)
            for stored_order in stored[gid]
        }
        return query_plans, materialization_plans

    def materialization_cost(self, group_id: int, stored_order: SortOrder, table: PlanTable):
        """What :meth:`materialization_plan`'s tree costs."""
        state, entry = self._materialization(group_id, stored_order, table)
        return entry[0] + state.group.write

    def materialization_plan(
        self, group_id: int, stored_order: SortOrder, table: PlanTable, built: _Built
    ) -> PhysicalPlan:
        """Compute a node (it may not read itself), sort it as stored, write it;
        ``built`` holds the subtrees of the walk this tree belongs to (or ``{}``)."""
        state, entry = self._materialization(group_id, stored_order, table)
        compute = self._tree(state, entry, stored_order, table, built)
        costs = state.group
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
        return self._plan(self._state(group_id, self._order_id(order)), table, {})

    def optimize_query(self, name: str, materialized: Iterable = ()) -> PhysicalPlan:
        return self.optimize_group(self.dag.query_roots[name], materialized)

    # --------------------------------------------------------------- plan DP

    def _entry(self, state: _State, table: PlanTable) -> _Entry:
        """The table's entry for a state, derived (recursively) when missing."""
        entry = table.own.get(state) or table.shared.get(state)
        if entry is None:
            entry = table.own[state] = self._compute(state, table)
            table.recomputed += 1
        return entry

    def _compute(self, state: _State, table: PlanTable, reads: bool = True) -> _Entry:
        """The cheapest entry for a state given the table's entries for its inputs."""
        required = state.required
        group = state.group
        own, shared, satisfied = table.own, table.shared, self._satisfied
        # The first cheapest candidate wins, reads of the node's stored
        # copies first: ``choice`` is a stored order or one of the candidates.
        choice, best, order, presorted = None, 0.0, _ANY, True
        if reads:
            for stored_order in table.stored.get(state.gid, ()):
                have = self._order_id(stored_order)
                fits = satisfied[have, required]
                cost = group.read if fits else group.read + group.sort
                if choice is None or cost < best:
                    choice, best, order, presorted = stored_order, cost, have, fits
        for candidate in state.candidates:
            alternative, inputs, fits = candidate
            have = alternative.order
            if inputs:
                first = own.get(inputs[0]) or shared.get(inputs[0]) or self._entry(inputs[0], table)
                cost = first[0]
                for other in inputs[1:]:
                    cost += (own.get(other) or shared.get(other) or self._entry(other, table))[0]
                cost += alternative.local
                if have is None:
                    have = first[1]
                    if fits is None:
                        fits = satisfied[have, required]
            else:
                cost = alternative.local
            total = cost if fits else cost + alternative.sort
            if choice is None or total < best:
                choice, best, order, presorted = candidate, total, have, fits
        if choice is None:
            raise RuntimeError(f"group G{state.gid} has no implementable alternative")
        return best, order if presorted else required, choice, presorted

    def _materialization(self, group_id: int, stored_order: SortOrder, table: PlanTable):
        """``(state, entry)`` computing a node without reading it, sorted as stored."""
        state = self._state(group_id, _ANY)
        cost, order, choice, _ = self._compute(state, table, reads=False)
        if self._satisfied[order, self._order_id(stored_order)]:
            return state, (cost, order, choice, True)
        return state, (cost + choice[0].sort, order, choice, False)

    def _propagate(self, table: PlanTable, stored: Dict[int, Tuple[SortOrder, ...]]) -> None:
        """Move ``table`` to the materialized set ``stored`` (paper §5.1).

        The states of every group whose stored copies differ are recomputed;
        from there a state is revisited only when the cost or the delivered
        order of one of its inputs changed, inputs before consumers.  Nothing
        else about an input reaches a consumer's entry, which names input
        states, not plans: a state that now reads a materialization at the
        same cost and in the same order gets its new entry and the walk stops.
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
            entry = self._compute(state, table)
            table.recomputed += 1
            table.invalidated += 1
            if entry == old:
                continue
            if shared.get(state) == entry:
                del own[state]  # back to what the first table holds
            else:
                own[state] = entry
            if entry[0] != old[0] or entry[1] != old[1]:
                for consumer in self._consumers.get(state, ()):
                    if consumer not in queued:
                        queued.add(consumer)
                        heapq.heappush(queue, (consumer.position, consumer))

    # ------------------------------------------------------- plan extraction

    def _plan(self, state: _State, table: PlanTable, built: _Built) -> PhysicalPlan:
        """The plan tree of the table's entry for a state, built once per walk."""
        plan = built.get(state)
        if plan is None:
            entry, required = self._entry(state, table), self._orders[state.required]
            plan = built[state] = self._tree(state, entry, required, table, built)
        return plan

    def _tree(
        self, state: _State, entry: _Entry, required: SortOrder, table: PlanTable, built: _Built
    ) -> PhysicalPlan:
        """The tree an entry stands for, its costs summed the way ``_compute`` did."""
        _, _, choice, presorted = entry
        group = state.group
        if isinstance(choice, SortOrder):
            sort = group.sort
            plan = PhysicalPlan(
                op=PhysicalOp.READ_MATERIALIZED,
                group=state.gid,
                cost=group.read,
                local_cost=group.read,
                rows=group.rows,
                width=group.width,
                order=choice,
            )
        else:
            alternative, inputs, _ = choice
            sort = alternative.sort
            children = tuple(self._plan(child, table, built) for child in inputs)
            cost = alternative.local
            if children:
                cost = children[0].cost
                for child in children[1:]:
                    cost += child.cost
                cost += alternative.local
            delivers = alternative.order
            plan = PhysicalPlan(
                op=alternative.op,
                group=state.gid,
                cost=cost,
                local_cost=alternative.local,
                order=children[0].order if delivers is None else self._orders[delivers],
                children=children,
                **alternative.fields,
            )
        return plan if presorted else _sort_over(plan, required, sort)

    # ------------------------------------- what does not depend on the set

    def _order_id(self, order: SortOrder) -> int:
        ident = self._order_ids.get(order)
        if ident is None:
            ident = self._order_ids[order] = len(self._orders)
            self._orders.append(order)
            for other, known in enumerate(self._orders):
                self._satisfied[ident, other] = order.satisfies(known)
                self._satisfied[other, ident] = known.satisfies(order)
        return ident

    def _state(self, gid: int, required: int) -> _State:
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
                    fits = self._satisfied[alternative.order, required]
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
                self._order_id(scan_order),
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
                ((mexpr.child, _ANY),),
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
            self._order_id(SortOrder(tuple(ColumnRef(c, alias) for c in clustered.columns))),
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
        left_any = (mexpr.left, _ANY)
        right_any = (mexpr.right, _ANY)
        left_keys, right_keys = self._equijoin_keys(mexpr)
        common = dict(rows=costs.rows, width=costs.width, predicate=mexpr.predicate)
        alternatives: List[_Alternative] = []

        # Merge join (requires both inputs sorted on the join keys).
        if left_keys:
            left_order = self._order_id(SortOrder(tuple(left_keys)))
            right_order = self._order_id(SortOrder(tuple(right_keys)))
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
                    ((mexpr.child, _ANY),),
                    model.scalar_aggregate(child_group.rows, child_group.row_width),
                    _ANY,
                    model.sort(1.0, costs.width),
                    rows=1.0,
                    width=costs.width,
                    aggregates=mexpr.aggregates,
                )
            ]
        group_order = self._order_id(SortOrder(tuple(mexpr.group_by)))
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
