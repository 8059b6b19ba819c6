"""Tests for optimizing batches end to end and the MQO benefit oracles."""

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
from repro.core.mqo import MQOResult, run_strategy
from repro.core.strategies import available_strategies
from repro.core.strategies.builtin import GreedyStrategy
from repro.dag.build import DagConfig
from repro.dag.sharing import build_batch_dag
from repro.optimizer.best_cost import BestCostEngine
from repro.service import OptimizerSession
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
def session(catalog, request):
    # Indirectly parametrizable with a DagConfig; the default config otherwise.
    return OptimizerSession(catalog, dag_config=getattr(request, "param", None))


class TestBenefitOracles:
    @pytest.fixture(scope="class")
    def engine(self, catalog, batch):
        return BestCostEngine(build_batch_dag(batch, catalog))

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


class TestOptimizeBatches:
    @pytest.mark.parametrize(
        "session",
        [DagConfig(enable_or_subsumption=True), DagConfig(enable_or_subsumption=False)],
        ids=["or-nodes", "no-or-nodes"],
        indirect=True,
    )
    def test_all_strategies_run(self, session, batch):
        # BQ1 repeats Q3 with two constants: the only input here whose DAG
        # gains relaxed OR nodes when OR subsumption is on.
        for workload in (batch, composite_batch(1)):
            results = session.compare(
                workload, strategies=("volcano", "greedy", "marginal-greedy", "share-all")
            )
            volcano = results["volcano"].total_cost
            for result in results.values():
                assert result.total_cost <= volcano + 1e-6
                assert result.batch_name == workload.name
            assert results["volcano"].materialized_count == 0

    def test_unknown_strategy_rejected(self, session, batch):
        with pytest.raises(ValueError):
            session.optimize(batch, strategy="magic")

    def test_accepts_plain_query_sequence(self, session):
        query = (
            qb.scan("orders")
            .filter(lt(col("o_orderdate"), 19950101))
            .aggregate([], [("count", None, "n")])
            .query("single")
        )
        result = session.optimize([query], strategy="volcano")
        assert result.total_cost > 0

    def test_cardinality_limits_materializations(self, session, batch):
        limited = session.optimize(batch, strategy="greedy", cardinality=1)
        assert limited.materialized_count <= 1

    def test_eager_variants(self, session, batch):
        lazy = session.optimize(batch, strategy="greedy", lazy=True)
        eager = session.optimize(batch, strategy="greedy", lazy=False)
        assert lazy.total_cost == pytest.approx(eager.total_cost, rel=1e-9)

    def test_exhaustive_matches_or_beats_greedy_on_small_universe(self):
        catalog = example1_catalog()
        batch = example1_batch()
        results = OptimizerSession(catalog).compare(batch, strategies=("greedy", "exhaustive"))
        assert results["exhaustive"].total_cost <= results["greedy"].total_cost + 1e-6

    def test_summary_lists_materializations(self, session, batch):
        result = session.optimize(batch, strategy="greedy")
        summary = result.summary()
        assert "strategy" in summary
        if result.materialized_count:
            assert result.materialized_labels[0].split(":")[0] in summary

    def test_strategies_constant(self):
        assert "marginal-greedy" in available_strategies()


class TestRunStrategy:
    def test_result_records_the_memo_it_refers_to(self):
        dag = build_batch_dag(example1_batch(), example1_catalog())
        result = run_strategy(dag, BestCostEngine(dag), batch_name="ex1", strategy="greedy")
        assert result.memo_uid == dag.memo.uid
        assert result.batch_name == "ex1"
        assert result.benefit == pytest.approx(result.volcano_cost - result.total_cost)

    def test_memo_uid_is_required(self):
        """Execution's foreign-memo guard compares ``memo_uid``; a result
        without one cannot be built."""
        with pytest.raises(TypeError, match="memo_uid"):
            MQOResult(
                strategy="volcano",
                batch_name="b",
                total_cost=1.0,
                volcano_cost=1.0,
                materialized=(),
                materialized_labels=(),
                optimization_time=0.0,
                oracle_calls=0,
                query_costs={},
                plan=None,
                dag_summary={},
            )

    @pytest.mark.parametrize(
        "strategy", [GreedyStrategy, GreedyStrategy()], ids=["class", "instance"]
    )
    def test_takes_strategy_names_only(self, strategy):
        dag = build_batch_dag(example1_batch(), example1_catalog())
        with pytest.raises(ValueError, match="unknown strategy"):
            run_strategy(dag, BestCostEngine(dag), batch_name="ex1", strategy=strategy)
