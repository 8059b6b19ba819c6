"""Tests for the MultiQueryOptimizer facade and the MQO benefit oracles."""

import pytest

from repro.algebra import builder as qb
from repro.algebra.expressions import col, eq, lt
from repro.algebra.logical import Query, QueryBatch
from repro.catalog.tpcd import tpcd_catalog
from repro.core.benefit import (
    BestCostFunction,
    MaterializationBenefit,
    UseCostBenefit,
    mqo_decomposition,
)
from repro.core.mqo import STRATEGIES, MultiQueryOptimizer
from repro.dag.build import DagConfig
from repro.workloads.batches import composite_batch
from repro.workloads.synthetic import example1_batch, example1_catalog


@pytest.fixture(scope="module")
def catalog():
    return tpcd_catalog(0.05)


@pytest.fixture(scope="module")
def batch():
    def make(name, cutoff):
        return (
            qb.scan("orders")
            .join(qb.scan("lineitem"), eq(col("o_orderkey"), col("l_orderkey")))
            .filter(lt(col("o_orderdate"), cutoff))
            .aggregate(["o_orderdate"], [("sum", "l_extendedprice", "revenue")])
            .query(name)
        )

    return QueryBatch("pair", (make("A", 19950101), make("B", 19950101)))


@pytest.fixture(scope="module")
def mqo(catalog, request):
    # Indirectly parametrizable with a DagConfig; the default config otherwise.
    return MultiQueryOptimizer(catalog, dag_config=getattr(request, "param", None))


class TestBenefitOracles:
    @pytest.fixture(scope="class")
    def engine(self, mqo, batch):
        dag = mqo.build_dag(batch)
        return mqo.make_engine(dag)

    def test_best_cost_function(self, engine):
        bc = BestCostFunction(engine)
        assert len(bc.universe) >= 1
        assert bc.value(frozenset()) > 0

    def test_materialization_benefit_normalized(self, engine):
        mb = MaterializationBenefit(engine)
        assert mb.value(frozenset()) == pytest.approx(0.0)
        assert mb.baseline == pytest.approx(engine.volcano_cost())

    def test_use_cost_benefit_monotone_on_samples(self, engine):
        fm = UseCostBenefit(engine)
        elements = sorted(fm.universe, key=repr)[:3]
        previous = 0.0
        chosen = set()
        for element in elements:
            chosen.add(element)
            value = fm.value(frozenset(chosen))
            assert value >= previous - 1e-6
            previous = value

    def test_mqo_decomposition_use_cost(self, engine):
        decomposition = mqo_decomposition(engine, kind="use-cost")
        assert decomposition.universe == BestCostFunction(engine).universe
        for element in list(decomposition.universe)[:3]:
            assert decomposition.element_cost(element) > 0

    def test_unknown_decomposition_kind(self, engine):
        with pytest.raises(ValueError):
            mqo_decomposition(engine, kind="nope")


class TestMultiQueryOptimizer:
    @pytest.mark.parametrize(
        "mqo",
        [DagConfig(enable_or_subsumption=True), DagConfig(enable_or_subsumption=False)],
        ids=["or-nodes", "no-or-nodes"],
        indirect=True,
    )
    def test_all_strategies_run(self, mqo, batch):
        # BQ1 repeats Q3 with two constants: the only input here whose DAG
        # gains relaxed OR nodes when OR subsumption is on.
        for workload in (batch, composite_batch(1)):
            results = mqo.compare(
                workload, strategies=("volcano", "greedy", "marginal-greedy", "share-all")
            )
            volcano = results["volcano"].total_cost
            for result in results.values():
                assert result.total_cost <= volcano + 1e-6
                assert result.batch_name == workload.name
            assert results["volcano"].materialized_count == 0

    def test_unknown_strategy_rejected(self, mqo, batch):
        with pytest.raises(ValueError):
            mqo.optimize(batch, strategy="magic")

    def test_accepts_plain_query_sequence(self, mqo):
        query = (
            qb.scan("orders")
            .filter(lt(col("o_orderdate"), 19950101))
            .aggregate([], [("count", None, "n")])
            .query("single")
        )
        result = mqo.optimize([query], strategy="volcano")
        assert result.total_cost > 0

    def test_cardinality_limits_materializations(self, mqo, batch):
        limited = mqo.optimize(batch, strategy="greedy", cardinality=1)
        assert limited.materialized_count <= 1

    def test_eager_variants(self, mqo, batch):
        lazy = mqo.optimize(batch, strategy="greedy", lazy=True)
        eager = mqo.optimize(batch, strategy="greedy", lazy=False)
        assert lazy.total_cost == pytest.approx(eager.total_cost, rel=1e-9)

    def test_exhaustive_matches_or_beats_greedy_on_small_universe(self):
        catalog = example1_catalog()
        batch = example1_batch()
        optimizer = MultiQueryOptimizer(catalog)
        results = optimizer.compare(batch, strategies=("greedy", "exhaustive"))
        assert results["exhaustive"].total_cost <= results["greedy"].total_cost + 1e-6

    def test_summary_lists_materializations(self, mqo, batch):
        result = mqo.optimize(batch, strategy="greedy")
        summary = result.summary()
        assert "strategy" in summary
        if result.materialized_count:
            assert result.materialized_labels[0].split(":")[0] in summary

    def test_strategies_constant(self):
        assert "marginal-greedy" in STRATEGIES
