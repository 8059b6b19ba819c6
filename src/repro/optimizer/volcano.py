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
``satisfies`` as a table filled on demand).  Operators are costed from
per-group block counts, a join's key orders are computed once per join
multi-expression (:attr:`~repro.dag.memo.JoinMExpr.key_orders`) and the
alternatives of a multi-expression share one field map.  States are
numbered densely in creation order, each candidate is one flat tuple over
input state ids, built in place with the state, and a
:class:`PlanTable` is a list indexed by state id plus a dict of deltas, so
the DP is over costs: evaluating a state is a few list reads, additions and
a ``min``.  Moving a table from one ``S`` to another
(:meth:`VolcanoOptimizer.best_cost` with ``cache=``) recomputes the states
of the toggled groups and then only those consumers, in topological order,
whose inputs' cost or delivered order really changed.
:meth:`VolcanoOptimizer.moved_use_costs` runs the same propagation on a
table's working list alone and puts back every entry it wrote, for the many
sets whose use cost is read once and whose table nobody keeps.

Every state and candidate carries a static lower bound (``lb``, built with
the state): a candidate's sums its inputs' bounds the way :meth:`_compute`
sums their entry costs and adds the operator's own cost (and the sort
enforcer when the operator can never deliver the required order); a state's
is the least of its candidates' and of reading the group back.  IEEE
addition is monotone, so every entry is at least its state's bound, and a
candidate whose bound is not below the incumbent is skipped unread: it
could at most tie, and the first cheapest candidate wins.  Plan trees are
built from the winning candidates (:meth:`VolcanoOptimizer.extract`), once
per set somebody reads as trees.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from ..algebra.expressions import ColumnRef, Comparison, conjuncts, conjunction
from ..algebra.properties import ANY_ORDER, SortOrder
from ..catalog.catalog import Catalog
from ..cost.cardinality import CatalogResolver, SelectivityEstimator
from ..cost.model import CostModel
from ..dag.memo import AggregateMExpr, Group, JoinMExpr, MExpr, ScanMExpr, SelectMExpr
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
    return {gid: tuple(sorted(orders, key=_order_key)) for gid, orders in stored.items()}


def _order_key(order: SortOrder) -> Tuple[bool, str]:
    """Where a stored order goes among its group's: unsorted first, then by text."""
    return bool(order), str(order)


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

    def __eq__(self, other):
        if not isinstance(other, BestCostResult):
            return NotImplemented
        mine = (self.materialized, self.use_cost, self.overhead_cost, self._extracted())
        return mine == (other.materialized, other.use_cost, other.overhead_cost, other._extracted())


class PlanTable:
    """The plan-DP entries of one materialization set: state id -> ``(cost,
    delivered order id, choice, presorted)``, ``choice`` being the winning
    candidate of the state (or the id of the stored order read back) and
    ``cost`` including the sort enforcer a choice that is not ``presorted``
    needs.  An entry names the input *states* of its choice, not their plans.

    Entries live in two layers: ``own`` maps state ids to the entries of
    this table and shadows ``base``, a list indexed by state id (``None``:
    no entry) that every table forked (directly or not) from the same first
    table reads and none writes.  The first :meth:`fork` of a table freezes
    its entries into that list, so a fork copies only what its source holds
    *on top of* the table they both descend from, and a table moved to
    another set by :meth:`VolcanoOptimizer.best_cost` keeps in ``own`` just
    the entries that differ from that first table.  A call reads the two
    layers merged into one working list it drops when it returns.

    ``stored`` is the set the entries are valid for, as ``{group id: stored
    order ids}`` in :func:`normalize_materialized`'s order; ``added`` counts
    the entries of ``own`` that ``base`` has none for; ``recomputed`` /
    ``invalidated`` count the entries derived, and the existing entries
    re-derived, since the table was created, and ``skipped`` the candidates
    their lower bound ruled out.
    """

    __slots__ = ("stored", "base", "own", "added", "recomputed", "invalidated", "skipped")

    def __init__(self, stored: Optional[Dict[int, Tuple[int, ...]]] = None):
        self.stored = stored if stored is not None else {}
        self.base: List[Optional[_Entry]] = []
        self.own: Dict[int, _Entry] = {}
        self.added = 0
        self.recomputed = 0
        self.invalidated = 0
        self.skipped = 0

    def size(self) -> int:
        """How many states have an entry."""
        return len(self.base) - self.base.count(None) + self.added

    def fork(self) -> "PlanTable":
        """A table that starts with this one's entries and shares their storage."""
        if not self.base and self.own:
            base: List[Optional[_Entry]] = [None] * (max(self.own) + 1)
            for state_id, entry in self.own.items():
                base[state_id] = entry
            self.base, self.own, self.added = base, {}, 0
        table = PlanTable(self.stored)
        table.base = self.base
        table.own = dict(self.own)
        table.added = self.added
        return table


class _Alternative:
    """One physical implementation of one multi-expression, costed once.

    ``local`` is the operator's own cost, ``order`` the id of the sort order
    it delivers (``None``: that of its first input), ``sort`` what a sort
    enforcer on top of it costs and ``fields`` the remaining
    :class:`PhysicalPlan` arguments, one mapping shared by the alternatives
    of a multi-expression that need no more.  ``inputs`` are the ``(group
    id, order id)`` DP states whose best plans become the children; with
    ``passes_order`` the operator is also offered over its input sorted the
    way its own consumer asked.
    """

    __slots__ = ("op", "inputs", "local", "order", "sort", "passes_order", "fields")

    def __init__(self, op, inputs, local, order, sort, fields, passes_order=False):
        self.op = op
        self.inputs: Tuple[Tuple[int, int], ...] = inputs
        self.local: float = local
        self.order: Optional[int] = order
        self.sort: float = sort
        self.passes_order = passes_order
        self.fields: Mapping[str, object] = fields


class _Index(NamedTuple):
    """What scanning or probing a base relation's clustered index needs."""

    table: str
    alias: str
    leading: str  # the index's leading column
    row_count: float
    distinct: float  # distinct values of the leading column
    order: SortOrder  # the order a scan of the index delivers


class _GroupCosts:
    """What is fixed about one group: its size in rows, bytes per row and
    blocks (snapshots of the memo's estimates), its sort / read-back / write
    costs, its clustered index if it is a base relation with one, and, once
    the group is implemented, its :class:`_Alternative` list in order."""

    __slots__ = (
        "rows", "width", "blocks", "stored", "sort", "read", "write", "index", "alternatives"
    )

    def __init__(self, group: Group, model: CostModel, catalog: Catalog):
        self.rows, self.width = group.rows, group.row_width
        self.blocks = model.blocks(self.rows, self.width)
        self.stored = group.is_relation
        self.sort = model.sort(self.rows, self.width)
        self.read = model.read_materialized(self.rows, self.width)
        self.write = model.materialize(self.rows, self.width)
        self.index = _clustered(group, catalog)
        self.alternatives: Optional[List[_Alternative]] = None


def _clustered(group: Group, catalog: Catalog) -> Optional[_Index]:
    """The :class:`_Index` of a base relation's clustered index, if it has one."""
    if not group.is_relation:
        return None
    table, alias = group.signature.table, group.signature.alias
    clustered = catalog.clustered_index(table)
    if clustered is None:
        return None
    stats = catalog.table_statistics(table)
    leading = clustered.leading_column
    order = SortOrder(tuple(ColumnRef(c, alias) for c in clustered.columns))
    return _Index(table, alias, leading, stats.row_count, stats.distinct(leading), order)


class _Satisfied(dict):
    """``(have, want) order ids -> orders[have].satisfies(orders[want])``, each
    pair worked out when it is first read (a plain dict read after that)."""

    __slots__ = ("orders",)

    def __init__(self, orders: List[SortOrder]):
        self.orders = orders  # the optimizer's registry, read on a miss

    def __missing__(self, pair: Tuple[int, int]) -> bool:
        have, want = pair
        fits = self[pair] = self.orders[have].satisfies(self.orders[want])
        return fits


#: A candidate, the flat tuple ``_compute`` reads: ``(lb, local, order, fits,
#: sort, alternative, input id, input id)``, ``None`` for an absent input;
#: ``fits`` tells whether it delivers the required order (``None``: its first
#: input's plan decides) and ``lb`` bounds every total it can cost.
_Candidate = Tuple[
    float, float, Optional[int], Optional[bool], float, _Alternative, Optional[int], Optional[int]
]


class _State:
    """One DP state ``(group, required order id)``, numbered ``id`` densely in
    creation order: the index of its entry in a :class:`PlanTable`.

    ``candidates`` are in candidate order and ``lb`` is at most every entry
    the state can get.  States refer to their inputs only, by id, never
    upward: an optimizer nobody holds any more is freed at once, without
    waiting for the cycle collector.
    """

    __slots__ = ("gid", "required", "group", "id", "lb", "candidates")

    def __init__(self, gid: int, required: int, group: _GroupCosts, state_id: int):
        self.gid = gid
        self.required = required
        self.group = group
        self.id = state_id
        self.lb = group.read
        self.candidates: List[_Candidate] = []


#: ``(cost, delivered order id, choice, presorted)``, see :class:`PlanTable`.
_Entry = Tuple[float, int, object, bool]
#: A call's merged view of a :class:`PlanTable`, indexed by state id.
_Work = List[Optional[_Entry]]
_Built = Dict[int, PhysicalPlan]
#: The id every optimizer interns :data:`ANY_ORDER` to.
_ANY = 0
#: A state's topological heap key is ``rank << _ID_BITS | id``.
_ID_BITS, _ID_MASK = 32, (1 << 32) - 1


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
        # the batch's scope.  The lists are indexed by state id.
        self._groups: Dict[int, _GroupCosts] = {}
        self._states: Dict[Tuple[int, int], _State] = {}
        self._states_of: Dict[int, List[_State]] = {}
        self._by_id: List[_State] = []
        self._keys: List[int] = []
        self._consumers: List[List[int]] = []
        self._orders: List[SortOrder] = [ANY_ORDER]
        self._order_ids: Dict[SortOrder, int] = {ANY_ORDER: _ANY}
        # Per order id, the key normalize_materialized sorts a group's orders by.
        self._order_keys: List[Tuple[bool, str]] = [_order_key(ANY_ORDER)]
        # Per materialized element, its (group id, stored order id).
        self._elements: Dict[object, Tuple[int, int]] = {}
        self._satisfied: Dict[Tuple[int, int], bool] = _Satisfied(self._orders)

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
        stored = self._stored(original)
        table = cache if cache is not None else PlanTable(stored)
        roots = [self._state(root, _ANY) for root in self.dag.query_roots.values()]
        writes = self._writes(stored)
        work = self._working(table)
        self._propagate(table, stored, work)
        use_cost = 0.0
        for state in roots:
            use_cost += self._entry(state.id, table, work)[0]
        overhead = 0.0
        for state, stored_order in writes:
            compute = self._materialization(state, stored_order, table, work)[0]
            overhead += compute + state.group.write
        return BestCostResult(original, use_cost, overhead, (self, table))

    def moved_use_costs(self, table: PlanTable, sets: Iterable) -> Tuple[List[float], PlanTable]:
        """``bestUseCost(Q, S)`` for each set, moving ``table``'s working list to
        it and back instead of forking the table (paper §5.1–5.2's marginals).

        Each move is :meth:`_propagate` on a scratch table over the same
        working list; every entry it writes, propagated or derived by
        :meth:`_entry`, lands in the scratch table's ``own`` and is put back
        before the next set, so ``table`` is left exactly as it was.  The
        returned scratch table's counters sum the moves' work.
        """
        roots = [self._state(root, _ANY) for root in self.dag.query_roots.values()]
        before = self._working(table)
        work = before.copy()
        moves = PlanTable()
        use_costs = []
        for materialized in sets:
            moves.stored, moves.own = table.stored, {}
            self._propagate(moves, self._stored(materialized), work)
            use_cost = 0.0
            for state in roots:
                use_cost += self._entry(state.id, moves, work)[0]
            use_costs.append(use_cost)
            for state_id in moves.own:
                work[state_id] = before[state_id]
        return use_costs, moves

    def extract(self, materialized: FrozenSet, table: PlanTable):
        """The ``(query plans, materialization plans)`` of ``bestCost(Q, S)``, from
        the table ``S`` was evaluated on (a fork is moved back if it has moved on)."""
        stored = self._stored(materialized)
        roots = {name: self._state(root, _ANY) for name, root in self.dag.query_roots.items()}
        writes = self._writes(stored)
        if table.stored != stored:
            table = table.fork()
        work = self._working(table)
        self._propagate(table, stored, work)
        self.plans_extracted += 1
        built: _Built = {}  # one walk: a state several plans share is one subtree
        query_plans = {
            name: self._plan(state.id, table, work, built) for name, state in roots.items()
        }
        materialization_plans = {}
        for state, stored_order in writes:  # compute (no read of itself), sort as stored, write
            entry = self._materialization(state, stored_order, table, work)
            order, costs = self._orders[stored_order], state.group
            compute = self._tree(state, entry, order, table, work, built)
            materialization_plans[state.gid] = PhysicalPlan(
                op=PhysicalOp.MATERIALIZE,
                group=state.gid,
                cost=compute.cost + costs.write,
                local_cost=costs.write,
                rows=costs.rows,
                width=costs.width,
                order=order,
                children=(compute,),
            )
        return query_plans, materialization_plans

    def materialization_costs(self, elements: Iterable, table: PlanTable) -> Dict:
        """What computing each element's node (it may not read itself), sorting
        it as stored and writing it costs under the table's set."""
        writes = {element: self._writes(self._stored((element,)))[0] for element in elements}
        work = self._working(table)
        return {
            element: self._materialization(state, stored_order, table, work)[0] + state.group.write
            for element, (state, stored_order) in writes.items()
        }

    def optimize_group(
        self, group_id: int, materialized: Iterable = (), order: SortOrder = ANY_ORDER
    ) -> PhysicalPlan:
        """Best plan for one equivalence node (public, mostly for tests/examples)."""
        table = PlanTable(self._stored(materialized))
        state = self._state(group_id, self._order_id(order))
        return self._plan(state.id, table, self._working(table), {})

    def optimize_query(self, name: str, materialized: Iterable = ()) -> PhysicalPlan:
        return self.optimize_group(self.dag.query_roots[name], materialized)

    # --------------------------------------------------------------- plan DP

    def _stored(self, materialized: Iterable) -> Dict[int, Tuple[int, ...]]:
        """A set as a :class:`PlanTable` holds it: ``{group id: stored order ids}``.

        The same mapping as :func:`normalize_materialized` followed by
        :meth:`_order_id`, read from what the optimizer already knows: each
        element's ``(group id, order id)`` is split once per optimizer, and
        a group's orders sort by the ``(bool(o), str(o))`` key their order
        id got when it was interned.
        """
        elements = self._elements
        stored: Dict[int, List[int]] = {}
        for element in materialized:
            pair = elements.get(element)
            if pair is None:
                gid, order = split_candidate(element)
                pair = elements[element] = (gid, self._order_id(order))
            gid, order_id = pair
            orders = stored.get(gid)
            if orders is None:
                stored[gid] = [order_id]
            elif order_id not in orders:
                orders.append(order_id)
        keys = self._order_keys.__getitem__
        return {gid: tuple(sorted(orders, key=keys)) for gid, orders in stored.items()}

    def _writes(self, stored: Dict[int, Tuple[int, ...]]) -> List[Tuple[_State, int]]:
        """``(state computing the node, stored order id)`` per element of the set, sorted."""
        return [(self._state(gid, _ANY), order) for gid in sorted(stored) for order in stored[gid]]

    def _working(self, table: PlanTable) -> _Work:
        """The call's list of the table's entries, one slot per state created so far."""
        base = table.base
        work = base + [None] * (len(self._by_id) - len(base))
        for state_id, entry in table.own.items():
            work[state_id] = entry
        return work

    def _entry(self, state_id: int, table: PlanTable, work: _Work) -> _Entry:
        """The table's entry for a state, derived (recursively) when missing."""
        entry = work[state_id]
        if entry is None:
            entry = self._compute(self._by_id[state_id], table, work)
            work[state_id] = table.own[state_id] = entry
            table.added += 1
            table.recomputed += 1
        return entry

    def _compute(self, state: _State, table: PlanTable, work: _Work, reads: bool = True) -> _Entry:
        """The cheapest entry for a state given the table's entries for its inputs."""
        required = state.required
        group = state.group
        satisfied = self._satisfied
        # The first cheapest candidate wins, reads of the node's stored
        # copies first: ``choice`` is a stored order id or one of the candidates.
        choice, best, order, presorted = None, 0.0, _ANY, True
        if reads:
            for have in table.stored.get(state.gid, ()):
                fits = satisfied[have, required]
                cost = group.read if fits else group.read + group.sort
                if choice is None or cost < best:
                    choice, best, order, presorted = have, cost, have, fits
        skipped = 0
        for candidate in state.candidates:
            if candidate[0] >= best and choice is not None:
                skipped += 1  # it could at most tie, and ties keep the incumbent
                continue
            _, local, have, fits, sort, _, first_id, second_id = candidate
            if first_id is None:
                cost = local
            else:
                first = work[first_id] or self._entry(first_id, table, work)
                cost = first[0]
                if second_id is not None:
                    cost += (work[second_id] or self._entry(second_id, table, work))[0]
                cost += local
                if have is None:
                    have = first[1]
                    if fits is None:
                        fits = satisfied[have, required]
            total = cost if fits else cost + sort
            if choice is None or total < best:
                choice, best, order, presorted = candidate, total, have, fits
        table.skipped += skipped
        if choice is None:
            raise RuntimeError(f"group G{state.gid} has no implementable alternative")
        return best, order if presorted else required, choice, presorted

    def _materialization(
        self, state: _State, stored_order: int, table: PlanTable, work: _Work
    ) -> _Entry:
        """The entry computing a node without reading it, sorted as stored."""
        cost, order, choice, _ = self._compute(state, table, work, reads=False)
        if self._satisfied[order, stored_order]:
            return cost, order, choice, True
        return cost + choice[4], order, choice, False

    def _propagate(self, table: PlanTable, stored: Dict[int, Tuple[int, ...]], work: _Work) -> None:
        """Move ``table`` to the materialized set ``stored`` (paper §5.1).

        The states of every group whose stored copies differ are recomputed;
        from there a state is revisited only when the cost or the delivered
        order of one of its inputs changed, inputs before consumers.  Nothing
        else about an input reaches a consumer's entry, which names input
        states, not plans: a state that now reads a materialization at the
        same cost and in the same order gets its new entry and the walk stops.
        """
        before = table.stored
        if before == stored:
            return
        table.stored = stored
        keys, consumers = self._keys, self._consumers
        queue = [
            keys[state.id]
            for gid in sorted(before.keys() | stored.keys())
            if before.get(gid) != stored.get(gid)
            for state in self._states_of.get(gid, ())
        ]
        heapq.heapify(queue)
        queued = set(queue)
        own, base, by_id = table.own, table.base, self._by_id
        frozen = len(base)
        while queue:
            state = by_id[heapq.heappop(queue) & _ID_MASK]
            state_id = state.id  # not the masked int: a table's keys allocate nothing
            old = work[state_id]
            if old is None:
                continue  # a state this table never needed
            entry = self._compute(state, table, work)
            table.recomputed += 1
            table.invalidated += 1
            if entry == old:
                continue
            work[state_id] = entry
            if state_id < frozen and base[state_id] == entry:
                del own[state_id]  # back to what the first table holds
            else:
                own[state_id] = entry
            if entry[0] != old[0] or entry[1] != old[1]:
                for consumer in consumers[state_id]:
                    key = keys[consumer]
                    if key not in queued:
                        queued.add(key)
                        heapq.heappush(queue, key)

    # ------------------------------------------------------- plan extraction

    def _plan(self, state_id: int, table: PlanTable, work: _Work, built: _Built) -> PhysicalPlan:
        """The plan tree of the table's entry for a state, built once per walk."""
        plan = built.get(state_id)
        if plan is None:
            state = self._by_id[state_id]
            entry, required = self._entry(state_id, table, work), self._orders[state.required]
            plan = built[state_id] = self._tree(state, entry, required, table, work, built)
        return plan

    def _tree(
        self, state: _State, entry: _Entry, required: SortOrder, table, work: _Work, built: _Built
    ) -> PhysicalPlan:
        """The tree an entry stands for, its costs summed the way ``_compute`` did."""
        _, _, choice, presorted = entry
        group = state.group
        if isinstance(choice, int):
            sort = group.sort
            plan = PhysicalPlan(
                op=PhysicalOp.READ_MATERIALIZED,
                group=state.gid,
                cost=group.read,
                local_cost=group.read,
                rows=group.rows,
                width=group.width,
                order=self._orders[choice],
            )
        else:
            _, local, delivers, _, sort, alternative, *inputs = choice
            children = tuple(self._plan(i, table, work, built) for i in inputs if i is not None)
            cost = local
            if children:
                cost = children[0].cost
                for child in children[1:]:
                    cost += child.cost
                cost += local
            plan = PhysicalPlan(
                op=alternative.op,
                group=state.gid,
                cost=cost,
                local_cost=local,
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
            self._order_keys.append(_order_key(order))
        return ident

    def _state(self, gid: int, required: int) -> _State:
        """The state ``(gid, required)``, created with its candidates (and,
        recursively and first, their input states) on first use."""
        states = self._states
        state = states.get((gid, required))
        if state is not None:
            return state
        group = self._group(gid)
        state_id = len(self._by_id)
        state = states[gid, required] = _State(gid, required, group, state_id)
        self._states_of.setdefault(gid, []).append(state)
        self._by_id.append(state)
        # Consumers rank strictly above their inputs, so (rank, id) is a
        # topological order that does not depend on hashing.
        self._keys.append(self.dag.rank(gid) << _ID_BITS | state_id)
        self._consumers.append([])
        # A candidate's bound sums its inputs' bounds as _compute sums their
        # costs; the state's is the least of the read-back's and candidates'.
        satisfied, candidates, sources = self._satisfied, state.candidates, []
        least = group.read
        for alternative in group.alternatives:
            local, order, sort, inputs = (
                alternative.local, alternative.order, alternative.sort, alternative.inputs
            )
            if order is None:
                fits = None if required else True
            else:
                fits = satisfied[order, required]
            if not inputs:
                lb, first_id, second_id = local, None, None
            else:
                first = states.get(inputs[0]) or self._state(*inputs[0])
                first_id = first.id
                sources.append(first_id)
                if len(inputs) == 1:
                    lb, second_id = first.lb + local, None
                else:  # operators are at most binary
                    second = states.get(inputs[1]) or self._state(*inputs[1])
                    second_id = second.id
                    sources.append(second_id)
                    lb = first.lb + second.lb + local
            if fits is False:
                lb += sort
            if lb < least:
                least = lb
            candidates.append((lb, local, order, fits, sort, alternative, first_id, second_id))
            if alternative.passes_order and required:
                ordered = self._state(inputs[0][0], required)
                lb = ordered.lb + local
                if lb < least:
                    least = lb
                candidates.append((lb, local, order, None, sort, alternative, ordered.id, None))
                sources.append(ordered.id)
        state.lb = least
        for source in sources:  # each input once, in candidate order
            waiting = self._consumers[source]
            if not waiting or waiting[-1] != state_id:
                waiting.append(state_id)
        return state

    def _costs(self, group_id: int) -> _GroupCosts:
        """A group's :class:`_GroupCosts`, implemented or not yet."""
        costs = self._groups.get(group_id)
        if costs is None:
            group = self.memo.get(group_id)
            costs = self._groups[group_id] = _GroupCosts(group, self.cost_model, self.catalog)
        return costs

    def _group(self, group_id: int) -> _GroupCosts:
        """A group's :class:`_GroupCosts`, its alternatives implemented."""
        costs = self._costs(group_id)
        if costs.alternatives is None:
            costs.alternatives = []
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
        # A scan is its relation group's one multi-expression: the index is the scan's.
        order = _ANY if costs.index is None else self._order_id(costs.index.order)
        local = self.cost_model.table_scan(costs.rows, costs.width)
        fields = dict(rows=costs.rows, width=costs.width, table=mexpr.table, alias=mexpr.alias)
        return [_Alternative(PhysicalOp.TABLE_SCAN, (), local, order, costs.sort, fields)]

    def _implement_select(self, mexpr: SelectMExpr, costs: _GroupCosts) -> List[_Alternative]:
        child = self._costs(mexpr.child)
        fields = {"rows": costs.rows, "width": costs.width, "predicate": mexpr.predicate}
        local = self.cost_model.filter(child.rows, child.width)
        alternatives = [
            _Alternative(
                PhysicalOp.FILTER, ((mexpr.child, _ANY),), local, None, costs.sort, fields,
                passes_order=True,
            )
        ]
        if child.index is not None:
            indexed = self._indexed_selection(mexpr, child, costs, fields)
            if indexed is not None:
                alternatives.append(indexed)
        return alternatives

    def _indexed_selection(
        self, mexpr: SelectMExpr, child: _GroupCosts, costs: _GroupCosts, fields: Mapping
    ) -> Optional[_Alternative]:
        """Clustered-index selection directly on a base relation, if applicable."""
        index = child.index
        index_conjuncts = [
            p
            for p in conjuncts(mexpr.predicate)
            if isinstance(p, Comparison)
            and not isinstance(p.right, ColumnRef)
            and p.left.name == index.leading
        ]
        if not index_conjuncts:
            return None
        estimator = SelectivityEstimator(CatalogResolver(self.catalog, {index.alias: index.table}))
        selectivity = estimator.selectivity(conjunction(index_conjuncts))
        local = self.cost_model.indexed_selection(index.row_count, child.width, selectivity)
        return _Alternative(
            PhysicalOp.INDEX_SCAN, (), local, self._order_id(index.order), costs.sort,
            dict(fields, table=index.table, alias=index.alias),
        )

    def _implement_join(self, mexpr: JoinMExpr, costs: _GroupCosts) -> List[_Alternative]:
        model = self.cost_model
        left, right = self._costs(mexpr.left), self._costs(mexpr.right)
        left_any, right_any = (mexpr.left, _ANY), (mexpr.right, _ANY)
        left_order, right_order = mexpr.key_orders
        fields = {"rows": costs.rows, "width": costs.width, "predicate": mexpr.predicate}
        sort = costs.sort
        alternatives: List[_Alternative] = []

        # Merge join (requires both inputs sorted on the join keys).
        if left_order:
            left_id, right_id = self._order_id(left_order), self._order_id(right_order)
            output = model.blocks(costs.rows, left.width + right.width)
            local = model.merge_join_blocks(left.blocks, right.blocks, output)
            inputs = ((mexpr.left, left_id), (mexpr.right, right_id))
            alternatives.append(
                _Alternative(PhysicalOp.MERGE_JOIN, inputs, local, left_id, sort, fields)
            )

        # Block nested-loop join, both operand orders.
        for outer, inner, outer_costs, inner_costs in (
            (left_any, right_any, left, right),
            (right_any, left_any, right, left),
        ):
            local = model.nested_loop_join_blocks(
                outer_costs.blocks, inner_costs.blocks, inner_costs.stored
            )
            alternatives.append(
                _Alternative(PhysicalOp.NESTED_LOOP_JOIN, (outer, inner), local, None, sort, fields)
            )

        # Index nested-loop join: probe a clustered index on a base-relation inner.
        if left_order:
            for outer, outer_costs, inner, inner_order in (
                (left_any, left, right, right_order),
                (right_any, right, left, left_order),
            ):
                index = inner.index
                if index is None or all(key.name != index.leading for key in inner_order.columns):
                    continue
                local = model.index_nested_loop_join(
                    outer_costs.rows, index.row_count, inner.width, index.distinct
                )
                alternatives.append(
                    _Alternative(
                        PhysicalOp.INDEX_NL_JOIN, (outer,), local, None, sort,
                        dict(fields, table=index.table, alias=index.alias),
                    )
                )
        return alternatives

    def _implement_aggregate(self, mexpr: AggregateMExpr, costs: _GroupCosts) -> List[_Alternative]:
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
                    dict(rows=1.0, width=costs.width, aggregates=mexpr.aggregates),
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
                dict(
                    rows=costs.rows,
                    width=costs.width,
                    group_by=mexpr.group_by,
                    aggregates=mexpr.aggregates,
                ),
            )
        ]
