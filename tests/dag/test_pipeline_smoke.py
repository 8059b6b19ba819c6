"""End-to-end smoke tests for the DAG + optimizer + MQO pipeline.

These are the first integration tests exercised while bringing the
substrate up; the detailed per-module tests live alongside them.
"""

import pytest

from repro.algebra import builder as qb
from repro.algebra.expressions import col, eq, lt
from repro.algebra.logical import QueryBatch
from repro.catalog.tpcd import tpcd_catalog
from repro.dag.sharing import build_batch_dag
from repro.optimizer.best_cost import BestCostEngine
from repro.service import OptimizerSession


def order_lineitem_query(name, cutoff):
    return (
        qb.scan("orders")
        .join(qb.scan("lineitem"), eq(col("o_orderkey"), col("l_orderkey")))
        .filter(lt(col("o_orderdate"), cutoff))
        .aggregate(["o_orderdate"], [("sum", "l_extendedprice", "revenue")])
        .query(name)
    )


def three_way_query(name, segment):
    return (
        qb.scan("customer")
        .join(qb.scan("orders"), eq(col("c_custkey"), col("o_custkey")))
        .join(qb.scan("lineitem"), eq(col("o_orderkey"), col("l_orderkey")))
        .filter(eq(col("c_mktsegment"), segment))
        .aggregate(["o_orderdate"], [("sum", "l_extendedprice", "revenue")])
        .query(name)
    )


@pytest.fixture(scope="module")
def catalog():
    return tpcd_catalog(scale_factor=0.01)


class TestDagConstruction:
    def test_single_query_dag(self, catalog):
        batch = QueryBatch("single", (three_way_query("Q", "BUILDING"),))
        dag = build_batch_dag(batch, catalog)
        summary = dag.summary()
        assert summary["queries"] == 1
        assert summary["groups"] > 5
        assert summary["mexprs"] >= summary["groups"] - 1

    def test_identical_queries_unify(self, catalog):
        q1 = three_way_query("Q1", "BUILDING")
        q2 = three_way_query("Q2", "BUILDING")
        dag = build_batch_dag(QueryBatch("dup", (q1, q2)), catalog)
        assert dag.query_roots["Q1"] == dag.query_roots["Q2"]
        assert len(dag.shareable_nodes()) >= 1

    def test_different_constants_share_via_subsumption(self, catalog):
        q1 = three_way_query("Q1", "BUILDING")
        q2 = three_way_query("Q2", "AUTOMOBILE")
        dag = build_batch_dag(QueryBatch("pair", (q1, q2)), catalog)
        assert dag.query_roots["Q1"] != dag.query_roots["Q2"]
        # The unfiltered (or relaxed) customer⋈orders⋈lineitem groups are shared.
        assert len(dag.shareable_nodes()) >= 1


class TestBestCost:
    def test_volcano_cost_positive_and_stable(self, catalog):
        batch = QueryBatch("pair", (order_lineitem_query("A", 19950101),
                                    three_way_query("B", "BUILDING")))
        dag = build_batch_dag(batch, catalog)
        engine = BestCostEngine(dag)
        cost1 = engine.volcano_cost()
        cost2 = engine.cost(frozenset())
        assert cost1 > 0
        assert cost1 == pytest.approx(cost2)

    def test_materializing_shared_node_changes_cost_consistently(self, catalog):
        q1 = order_lineitem_query("A", 19950101)
        q2 = order_lineitem_query("B", 19950101)
        dag = build_batch_dag(QueryBatch("dup", (q1, q2)), catalog)
        engine = BestCostEngine(dag)
        baseline = engine.volcano_cost()
        shareable = dag.shareable_nodes()
        assert shareable
        for gid in shareable:
            cost = engine.cost(frozenset({gid}))
            assert cost > 0
        best_single = min(engine.cost(frozenset({g})) for g in shareable)
        # Materializing the best single shared node must not be worse than
        # twice recomputing everything... at least it should never be negative.
        assert best_single > 0
        assert baseline > 0

    def test_incremental_matches_full(self, catalog):
        q1 = three_way_query("A", "BUILDING")
        q2 = three_way_query("B", "AUTOMOBILE")
        dag = build_batch_dag(QueryBatch("pair", (q1, q2)), catalog)
        shareable = dag.shareable_nodes()
        if len(shareable) < 2:
            pytest.skip("not enough shareable nodes for the scenario")
        incremental = BestCostEngine(dag, incremental=True)
        full = BestCostEngine(dag, incremental=False)
        subsets = [frozenset(), frozenset({shareable[0]}),
                   frozenset({shareable[0], shareable[1]}), frozenset({shareable[1]})]
        for subset in subsets:
            assert incremental.cost(subset) == pytest.approx(full.cost(subset), rel=1e-9)


class TestOptimizerSession:
    def test_strategies_ordering(self, catalog):
        q1 = three_way_query("Q1", "BUILDING")
        q2 = three_way_query("Q2", "BUILDING")
        session = OptimizerSession(catalog)
        results = session.compare(QueryBatch("dup", (q1, q2)),
                                  strategies=("volcano", "greedy", "marginal-greedy"))
        volcano = results["volcano"].total_cost
        greedy_cost = results["greedy"].total_cost
        marginal = results["marginal-greedy"].total_cost
        assert greedy_cost <= volcano + 1e-6
        assert marginal <= volcano + 1e-6
        assert results["volcano"].materialized_count == 0

    def test_result_summary_readable(self, catalog):
        q1 = order_lineitem_query("A", 19950101)
        q2 = order_lineitem_query("B", 19950101)
        result = OptimizerSession(catalog).optimize(QueryBatch("dup", (q1, q2)), strategy="greedy")
        text = result.summary()
        assert "strategy" in text
        assert "materialized nodes" in text
        assert result.oracle_calls >= 1
