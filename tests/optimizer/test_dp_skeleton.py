"""The plan DP's skeleton is built exactly as the straightforward code builds it.

Everything :class:`VolcanoOptimizer` works out before its DP runs — each
group's costs and :class:`_Alternative` list, each state's id, bound and
candidate tuples, the consumer lists, the sort-order registry and its
``satisfies`` table — is built in one lean pass: operators costed from
per-group block counts, join key orders cached on the multi-expression,
one field map per multi-expression, candidates built in place and
``satisfies`` filled on demand.  The reference below is the plain version:
every operator costed through the rows/width cost formulas, join keys split
per call with :func:`equijoin_keys`, a kwargs dict per alternative, one
``_candidate`` call and input list per candidate and the whole
``satisfies`` table filled when an order is interned.

Every optimizer an engine builds here mirrors its outermost ``_state`` and
``_order_id`` calls onto a reference skeleton, so both see the same
requests in the same order, and the two must agree field for field, floats
by their bits.
"""

import importlib.util
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Tuple
from unittest import mock

from hypothesis import HealthCheck, given, settings

from repro.algebra.expressions import ColumnRef, Comparison, conjunction, conjuncts
from repro.algebra.logical import QueryBatch
from repro.algebra.properties import ANY_ORDER, SortOrder
from repro.catalog.tpcd import tpcd_catalog
from repro.core.mqo import run_strategy
from repro.cost.cardinality import CatalogResolver, SelectivityEstimator
from repro.dag.memo import AggregateMExpr, JoinMExpr, ScanMExpr, SelectMExpr, equijoin_keys
from repro.dag.sharing import build_batch_dag
from repro.optimizer import best_cost
from repro.optimizer.best_cost import BestCostEngine
from repro.optimizer.plan import PhysicalOp
from repro.optimizer.volcano import VolcanoOptimizer, _order_key
from repro.service.scheduler import _deduplicate_names
from repro.service.session import OptimizerSession
from repro.workloads.batches import composite_batch
from repro.workloads.harness.scale import ScaleSpec, build_world
from repro.workloads.harness.traffic import TrafficSpec, generate_traffic, star_templates

_ANY = 0
_ID_BITS = 32


def _expansion_module():
    """The 2–6-alias join-graph generator of the SPJ expansion tests."""
    path = Path(__file__).resolve().parents[1] / "dag" / "test_expansion_equivalence.py"
    spec = importlib.util.spec_from_file_location("expansion_equivalence_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_EXPANSION = _expansion_module()


# ------------------------------------------------------------ the reference


class RefAlternative:
    __slots__ = ("op", "inputs", "local", "order", "sort", "passes_order", "fields")

    def __init__(self, op, inputs, local, order, sort, passes_order=False, **fields):
        self.op = op
        self.inputs = inputs
        self.local = local
        self.order = order
        self.sort = sort
        self.passes_order = passes_order
        self.fields = fields


class RefGroupCosts:
    def __init__(self, group, model):
        self.rows, self.width = group.rows, group.row_width
        self.sort = model.sort(self.rows, self.width)
        self.read = model.read_materialized(self.rows, self.width)
        self.write = model.materialize(self.rows, self.width)
        self.alternatives: List[RefAlternative] = []


class RefState:
    def __init__(self, gid, required, group, state_id):
        self.gid = gid
        self.required = required
        self.group = group
        self.id = state_id
        self.lb = group.read
        self.candidates: list = []


def ref_candidate(alternative, inputs, fits):
    lb, first, second = alternative.local, None, None
    if inputs:
        lb, first = inputs[0].lb, inputs[0].id
        if len(inputs) > 1:
            (other,) = inputs[1:]
            lb, second = lb + other.lb, other.id
        lb += alternative.local
    if fits is False:
        lb += alternative.sort
    local, sort = alternative.local, alternative.sort
    return lb, local, alternative.order, fits, sort, alternative, first, second


class ReferenceSkeleton:
    """States, candidates, alternatives and orders as the plain code builds them."""

    def __init__(self, dag, cost_model):
        self.dag = dag
        self.memo = dag.memo
        self.catalog = dag.catalog
        self.cost_model = cost_model
        self._groups: Dict[int, RefGroupCosts] = {}
        self._states: Dict[Tuple[int, int], RefState] = {}
        self._states_of: Dict[int, List[RefState]] = {}
        self._by_id: List[RefState] = []
        self._keys: List[int] = []
        self._consumers: List[List[int]] = []
        self._orders: List[SortOrder] = [ANY_ORDER]
        self._order_ids: Dict[SortOrder, int] = {ANY_ORDER: _ANY}
        self._order_keys = [_order_key(ANY_ORDER)]
        self._satisfied: Dict[Tuple[int, int], bool] = {(_ANY, _ANY): True}

    def _order_id(self, order):
        ident = self._order_ids.get(order)
        if ident is None:
            ident = self._order_ids[order] = len(self._orders)
            self._orders.append(order)
            self._order_keys.append(_order_key(order))
            for other, known in enumerate(self._orders):
                self._satisfied[ident, other] = order.satisfies(known)
                self._satisfied[other, ident] = known.satisfies(order)
        return ident

    def _state(self, gid, required):
        state = self._states.get((gid, required))
        if state is None:
            group = self._group(gid)
            state_id = len(self._by_id)
            state = RefState(gid, required, group, state_id)
            self._states[gid, required] = state
            self._states_of.setdefault(gid, []).append(state)
            self._by_id.append(state)
            self._keys.append(self.dag.rank(gid) << _ID_BITS | state_id)
            self._consumers.append([])
            candidates, states = state.candidates, self._states
            for alternative in group.alternatives:
                if alternative.order is None:
                    fits = None if required else True
                else:
                    fits = self._satisfied[alternative.order, required]
                sources = alternative.inputs
                inputs = [states.get(source) or self._state(*source) for source in sources]
                candidates.append(ref_candidate(alternative, inputs, fits))
                if alternative.passes_order and required:
                    ordered = [self._state(sources[0][0], required)]
                    candidates.append(ref_candidate(alternative, ordered, None))
            state.lb = min([group.read] + [candidate[0] for candidate in candidates])
            for source in dict.fromkeys(i for c in candidates for i in c[6:] if i is not None):
                self._consumers[source].append(state_id)
        return state

    def _group(self, group_id):
        costs = self._groups.get(group_id)
        if costs is None:
            costs = self._groups[group_id] = RefGroupCosts(self.memo.get(group_id), self.cost_model)
            for mexpr in self.dag.iter_mexprs(group_id):
                costs.alternatives.extend(self._implement(mexpr, costs))
        return costs

    def _implement(self, mexpr, costs):
        if isinstance(mexpr, ScanMExpr):
            return self._implement_scan(mexpr, costs)
        if isinstance(mexpr, SelectMExpr):
            return self._implement_select(mexpr, costs)
        if isinstance(mexpr, JoinMExpr):
            return self._implement_join(mexpr, costs)
        assert isinstance(mexpr, AggregateMExpr)
        return self._implement_aggregate(mexpr, costs)

    def _implement_scan(self, mexpr, costs):
        clustered = self.catalog.clustered_index(mexpr.table)
        scan_order = SortOrder()
        if clustered is not None:
            scan_order = SortOrder(tuple(ColumnRef(c, mexpr.alias) for c in clustered.columns))
        local = self.cost_model.table_scan(costs.rows, costs.width)
        fields = dict(rows=costs.rows, width=costs.width, table=mexpr.table, alias=mexpr.alias)
        order = self._order_id(scan_order)
        return [RefAlternative(PhysicalOp.TABLE_SCAN, (), local, order, costs.sort, **fields)]

    def _implement_select(self, mexpr, costs):
        child_group = self.memo.get(mexpr.child)
        alternatives = [
            RefAlternative(
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

    def _indexed_selection(self, mexpr, child_group, costs):
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
        local = self.cost_model.indexed_selection(
            stats.row_count, child_group.row_width, selectivity
        )
        order = self._order_id(SortOrder(tuple(ColumnRef(c, alias) for c in clustered.columns)))
        fields = dict(rows=costs.rows, width=costs.width, table=table, alias=alias)
        return RefAlternative(
            PhysicalOp.INDEX_SCAN, (), local, order, costs.sort, predicate=mexpr.predicate, **fields
        )

    def _implement_join(self, mexpr, costs):
        model = self.cost_model
        left_group = self.memo.get(mexpr.left)
        right_group = self.memo.get(mexpr.right)
        left_any = (mexpr.left, _ANY)
        right_any = (mexpr.right, _ANY)
        left_keys, right_keys = equijoin_keys(mexpr)
        common = dict(rows=costs.rows, width=costs.width, predicate=mexpr.predicate)
        alternatives = []
        if left_keys:
            left_order = self._order_id(SortOrder(tuple(left_keys)))
            right_order = self._order_id(SortOrder(tuple(right_keys)))
            local = model.merge_join(
                left_group.rows, left_group.row_width, right_group.rows, right_group.row_width,
                costs.rows,
            )
            alternatives.append(
                RefAlternative(
                    PhysicalOp.MERGE_JOIN,
                    ((mexpr.left, left_order), (mexpr.right, right_order)),
                    local,
                    left_order,
                    costs.sort,
                    **common,
                )
            )
        for outer, inner, outer_group, inner_group in (
            (left_any, right_any, left_group, right_group),
            (right_any, left_any, right_group, left_group),
        ):
            local = model.nested_loop_join(
                outer_group.rows, outer_group.row_width, inner_group.rows, inner_group.row_width,
                inner_is_stored=inner_group.is_relation,
            )
            alternatives.append(
                RefAlternative(
                    PhysicalOp.NESTED_LOOP_JOIN, (outer, inner), local, None, costs.sort, **common
                )
            )
        if left_keys:
            for outer, outer_group, inner_group, inner_keys in (
                (left_any, left_group, right_group, right_keys),
                (right_any, right_group, left_group, left_keys),
            ):
                probe = self._index_probe(outer_group, inner_group, inner_keys)
                if probe is not None:
                    local, table = probe
                    alias = inner_group.signature.alias
                    alternatives.append(
                        RefAlternative(
                            PhysicalOp.INDEX_NL_JOIN, (outer,), local, None, costs.sort,
                            table=table, alias=alias, **common,
                        )
                    )
        return alternatives

    def _index_probe(self, outer_group, inner_group, inner_keys):
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

    def _implement_aggregate(self, mexpr, costs):
        model = self.cost_model
        child_group = self.memo.get(mexpr.child)
        if not mexpr.group_by:
            return [
                RefAlternative(
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
            RefAlternative(
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


# ------------------------------------------------- the optimizer under test


class MirroredOptimizer(VolcanoOptimizer):
    """A :class:`VolcanoOptimizer` that replays its outermost ``_state`` and
    ``_order_id`` calls on a :class:`ReferenceSkeleton`."""

    def __init__(self, dag, cost_model=None):
        super().__init__(dag, cost_model)
        self.reference = ReferenceSkeleton(dag, self.cost_model)
        self.depth = 0

    def _state(self, gid, required):
        self.depth += 1
        try:
            state = super()._state(gid, required)
        finally:
            self.depth -= 1
        if not self.depth:
            self.reference._state(gid, required)
        return state

    def _order_id(self, order):
        ident = super()._order_id(order)
        if not self.depth:
            self.reference._order_id(order)
        return ident


@contextmanager
def mirrored():
    """Engines built inside get a :class:`MirroredOptimizer`; yields the list of them."""
    built: List[MirroredOptimizer] = []

    def build(dag, cost_model=None):
        built.append(MirroredOptimizer(dag, cost_model))
        return built[-1]

    with mock.patch.object(best_cost, "VolcanoOptimizer", build):
        yield built


def bits(value) -> str:
    """A number by its bits (and type: an int row count stays an int)."""
    return value.hex() if isinstance(value, float) else repr(value)


def alternative_view(alternative) -> tuple:
    fields = {
        k: bits(v) if isinstance(v, (int, float)) else v for k, v in alternative.fields.items()
    }
    return (
        alternative.op,
        alternative.inputs,
        bits(alternative.local),
        alternative.order,
        bits(alternative.sort),
        alternative.passes_order,
        fields,
    )


def candidate_view(candidate) -> tuple:
    lb, local, order, fits, sort, alternative, first, second = candidate
    view = alternative_view(alternative)
    return bits(lb), bits(local), order, fits, bits(sort), view, first, second


def assert_same_skeleton(optimizer: MirroredOptimizer) -> None:
    reference = optimizer.reference
    assert optimizer._orders == reference._orders
    assert optimizer._order_ids == reference._order_ids
    assert optimizer._order_keys == reference._order_keys
    implemented = {gid for gid, c in optimizer._groups.items() if c.alternatives is not None}
    assert implemented == set(reference._groups)
    for gid, want in reference._groups.items():
        got = optimizer._groups[gid]
        assert [bits(x) for x in (got.rows, got.width, got.sort, got.read, got.write)] == [
            bits(x) for x in (want.rows, want.width, want.sort, want.read, want.write)
        ]
        assert [alternative_view(a) for a in got.alternatives] == [
            alternative_view(a) for a in want.alternatives
        ]
    assert len(optimizer._by_id) == len(reference._by_id)
    for got, want in zip(optimizer._by_id, reference._by_id):
        assert (got.gid, got.required, got.id, bits(got.lb)) == (
            want.gid, want.required, want.id, bits(want.lb)
        )
        assert got.group is optimizer._groups[got.gid]
        assert [candidate_view(c) for c in got.candidates] == [
            candidate_view(c) for c in want.candidates
        ]
    assert {key: state.id for key, state in optimizer._states.items()} == {
        key: state.id for key, state in reference._states.items()
    }
    assert {gid: [s.id for s in states] for gid, states in optimizer._states_of.items()} == {
        gid: [s.id for s in states] for gid, states in reference._states_of.items()
    }
    assert optimizer._keys == reference._keys
    assert optimizer._consumers == reference._consumers
    for pair, fits in optimizer._satisfied.items():
        assert reference._satisfied[pair] is fits, pair


def optimize_and_check(dag) -> None:
    with mirrored() as built:
        engine = BestCostEngine(dag)
    result = run_strategy(dag, engine, batch_name="checked")
    result.plan.query_plans  # the trees are extracted through the same states
    (optimizer,) = built
    assert optimizer.reference._by_id  # the mirror saw the calls
    assert_same_skeleton(optimizer)


# ------------------------------------------------------------------- tests


def test_composite_batches():
    catalog = tpcd_catalog(1.0)
    for index in range(1, 7):
        optimize_and_check(build_batch_dag(composite_batch(index), catalog))


def test_star_serving_trace_in_one_session():
    """The benchmark's 180 requests, micro-batch by micro-batch, in one session."""
    catalog = build_world(ScaleSpec(scale=1.0), "star").catalog
    requests = generate_traffic(
        star_templates(6), TrafficSpec(requests=180, tenants=8, zipf=1.2, seed=5)
    )
    with mirrored() as built:
        session = OptimizerSession(catalog)
        for at in range(0, len(requests), 4):
            queries = _deduplicate_names([request.query for request in requests[at : at + 4]])
            session.optimize(QueryBatch(f"micro-{at}", queries))
    assert len(built) > 1
    for optimizer in built:
        assert_same_skeleton(optimizer)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_EXPANSION.join_graph_batches())
def test_generated_join_graphs(batch):
    optimize_and_check(build_batch_dag(batch, _EXPANSION._CATALOG))


def test_optimize_group_and_sorted_reads_are_mirrored():
    """``optimize_group`` interns a required order outside any state; sorted
    stored copies read ``satisfies`` pairs the states never did."""
    dag = build_batch_dag(composite_batch(3), tpcd_catalog(1.0))
    with mirrored() as built:
        engine = BestCostEngine(dag)
    (optimizer,) = built
    sorted_candidates = [c for c in dag.shareable_candidates() if c.order]
    assert sorted_candidates
    for candidate in sorted_candidates:
        engine.evaluate({candidate})
        optimizer.optimize_group(candidate.group, (), candidate.order)
    assert_same_skeleton(optimizer)
