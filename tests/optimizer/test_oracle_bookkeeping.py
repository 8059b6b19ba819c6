"""What the oracle works out per call, read from what it already knows.

``VolcanoOptimizer._stored`` maps a materialized set to ``{group id: stored
order ids}`` from per-optimizer caches; ``BestCostEngine._start_table``
forks ∅'s table for a key no remembered table can be closer to; and
``BatchDag.interesting_orders`` follows selections in one pass.  Each must
answer exactly what the plain computation answers.
"""

from collections import Counter, OrderedDict
from typing import Dict, List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import builder as qb
from repro.algebra.expressions import col, eq, lt
from repro.algebra.logical import QueryBatch
from repro.algebra.properties import SortOrder
from repro.catalog.tpcd import tpcd_catalog
from repro.dag.memo import AggregateMExpr, JoinMExpr, SelectMExpr, equijoin_keys
from repro.dag.sharing import MaterializationChoice, build_batch_dag
from repro.optimizer.best_cost import BestCostEngine
from repro.optimizer.volcano import PlanTable, VolcanoOptimizer, normalize_materialized
from repro.workloads.batches import composite_batch

CATALOG = tpcd_catalog(1.0)
BQ2 = build_batch_dag(composite_batch(2), CATALOG)
GROUPS = sorted(BQ2.scoped_groups())
#: Orders the optimizer interns while it builds states, and some it never sees.
ORDERS = sorted(
    {order for orders in BQ2.interesting_orders().values() for order in orders}
    | {SortOrder(), SortOrder((col("o_orderdate", "orders"),)), SortOrder((col("x"), col("y")))},
    key=str,
)


# ------------------------------------------------------------------ _stored


elements = st.one_of(
    st.sampled_from(GROUPS),
    st.builds(MaterializationChoice, st.sampled_from(GROUPS), st.sampled_from(ORDERS)),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(elements, max_size=12), st.booleans())
def test_stored_is_the_normalized_mapping(materialized, build_states):
    optimizer = VolcanoOptimizer(BQ2)
    if build_states:  # interns the join and grouping orders first
        optimizer.best_cost(frozenset())
    for _ in range(2):  # the second call reads every element from the cache
        stored = optimizer._stored(materialized)
        expected = {
            gid: tuple(map(optimizer._order_id, orders))
            for gid, orders in normalize_materialized(materialized).items()
        }
        assert stored == expected
        assert list(stored) == list(expected)


# ------------------------------------------------------------- _start_table


class _Unscanned(OrderedDict):
    def items(self):
        raise AssertionError("the remembered tables were scanned")


def test_one_element_key_forks_the_empty_table(monkeypatch):
    engine = BestCostEngine(BQ2)
    shared = BQ2.shareable_nodes()
    a, b, c = shared[:3]
    for key in ({a}, {a, b}, {b, c}):
        engine.evaluate(key)
    forked: List[PlanTable] = []
    fork = PlanTable.fork

    def recording_fork(table):
        forked.append(table)
        return fork(table)

    monkeypatch.setattr(PlanTable, "fork", recording_fork)
    results = engine._results
    engine._results = _Unscanned(results)
    table = engine._start_table(frozenset({c}))
    assert forked == [engine._empty]
    assert table.stored == {}

    # A larger key still starts from the closest remembered table, the most
    # recent of {a, b} and {b, c}.
    engine._results = results
    forked.clear()
    engine._start_table(frozenset({a, b, c}))
    assert forked == [results[frozenset({b, c})][1]]


# ------------------------------------------------------- interesting_orders


def fixpoint_orders(dag) -> Dict[int, tuple]:
    """The interesting orders as up to 32 passes over the groups by id computed them."""
    scoped = sorted(dag.scoped_groups())
    requested: Dict[int, List[SortOrder]] = {gid: [] for gid in scoped}
    for gid in scoped:
        for mexpr in dag.iter_mexprs(gid):
            if isinstance(mexpr, JoinMExpr):
                left_keys, right_keys = equijoin_keys(mexpr)
                if left_keys:
                    requested[mexpr.left].append(SortOrder(tuple(left_keys)))
                    requested[mexpr.right].append(SortOrder(tuple(right_keys)))
            elif isinstance(mexpr, AggregateMExpr) and mexpr.group_by:
                requested[mexpr.child].append(SortOrder(tuple(mexpr.group_by)))
    for _ in range(32):
        changed = False
        for gid in scoped:
            for mexpr in dag.iter_mexprs(gid):
                if isinstance(mexpr, SelectMExpr):
                    for order in requested[gid]:
                        if order not in requested[mexpr.child]:
                            requested[mexpr.child].append(order)
                            changed = True
        if not changed:
            break
    return {gid: tuple(orders) for gid, orders in requested.items()}


def counted(orders: Dict[int, tuple]) -> Dict[int, Counter]:
    return {gid: Counter(group_orders) for gid, group_orders in orders.items()}


@pytest.mark.parametrize("index", range(1, 7))
def test_interesting_orders_match_the_fixpoint(index):
    dag = build_batch_dag(composite_batch(index), CATALOG)
    assert counted(dag.interesting_orders()) == counted(fixpoint_orders(dag))


def test_a_select_chain_deeper_than_32_passes_is_followed_to_the_bottom():
    """Nested filtered derived tables: 40 selections over the scan, built bottom-up."""
    plan = qb.scan("orders")
    for depth in range(40):
        plan = plan.filter(lt(col("o_totalprice"), 1000 * (depth + 1))).as_derived(f"d{depth}")
    query = plan.join(qb.scan("customer"), eq(col("o_custkey"), col("c_custkey"))).query("q")
    dag = build_batch_dag(QueryBatch("chain", (query,)), CATALOG)
    (scan,) = [g.id for g in dag.memo if g.is_relation and g.signature.table == "orders"]
    join_key = SortOrder((col("o_custkey", "d39"),))
    assert dag.interesting_orders()[scan] == (join_key,)
    assert not fixpoint_orders(dag)[scan]  # 32 passes stop short of the scan
