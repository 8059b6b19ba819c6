"""Plan trees are extracted from cost-only tables, on demand.

The DP stores ``(cost, delivered order, winning candidate)`` per state and
stops propagating where cost and order are unchanged; the trees a result
hands out are built from those entries when first read.  These tests pin the
places where that could go wrong: an equal-cost re-choice below a consumer
that is not revisited, a table that moves on after a result was taken from
it, and results that keep a table alive.
"""

import gc

import pytest

from repro.catalog.tpcd import tpcd_catalog
from repro.core.mqo import run_strategy
from repro.cost.model import CostModel
from repro.dag.sharing import MaterializationChoice, build_batch_dag
from repro.obs import InMemorySink, Observability, Tracer
from repro.optimizer.best_cost import BestCostEngine
from repro.optimizer.plan import PhysicalOp
from repro.optimizer.volcano import PlanTable, VolcanoOptimizer
from repro.service.session import OptimizerSession
from repro.workloads.batches import composite_batch


@pytest.fixture(scope="module")
def dag():
    return build_batch_dag(composite_batch(1), tpcd_catalog(1.0))


def nodes_of(result):
    plans = list(result.query_plans.values()) + list(result.materialization_plans.values())
    return [node for plan in plans for node in plan.iter_nodes()]


class TestCutoffOnCostAndOrder:
    """Reading ``g`` back costs exactly what computing it does: ``g``'s entry
    changes, its cost and order do not, and no consumer is revisited."""

    def tied_read(self, dag):
        """(group, its candidate, a cost model under which reading it ties with computing it)."""
        baseline = BestCostEngine(dag).evaluate(frozenset())
        on_optimal_plan = [node.group for node in nodes_of(baseline)]
        gid = next(
            g for g in dag.shareable_nodes() if on_optimal_plan.count(g) >= 2
        )  # ≥ 2 consumers whose trees must pick the read up
        computed = VolcanoOptimizer(dag).optimize_group(gid)
        group = dag.memo.get(gid)

        class TiedRead(CostModel):
            def read_materialized(self, rows, row_width):
                if (rows, row_width) == (group.rows, group.row_width):
                    return computed.cost
                return super().read_materialized(rows, row_width)

        # Stored in the order the computation delivers: the order ties as well.
        candidate = MaterializationChoice(gid, computed.order) if computed.order else gid
        return gid, candidate, TiedRead()

    def test_propagation_stops_and_trees_still_read_the_materialization(self, dag):
        gid, candidate, model = self.tied_read(dag)
        engine = BestCostEngine(dag, model)
        empty = engine.evaluate(frozenset())
        assert empty.query_plans  # ∅'s trees are built before the table is forked
        before = engine.statistics.invalidated_entries
        result = engine.evaluate({candidate})
        revisited = engine.statistics.invalidated_entries - before
        assert revisited == len(engine.optimizer._states_of[gid])  # g's states, no consumer
        assert result.use_cost == empty.use_cost

        reads = [n.group for n in nodes_of(result) if n.op is PhysicalOp.READ_MATERIALIZED]
        assert reads.count(gid) >= 2
        assert result == BestCostEngine(dag, model, incremental=False).evaluate({candidate})
        assert all(
            node.op is not PhysicalOp.READ_MATERIALIZED for node in nodes_of(empty)
        )  # and ∅'s own trees are untouched


class TestMovedTable:
    def test_result_of_a_table_that_moved_on(self, dag):
        first, second = (frozenset({gid}) for gid in dag.shareable_nodes()[:2])
        optimizer = VolcanoOptimizer(dag)
        table = PlanTable()
        lazy = optimizer.best_cost(first, cache=table)
        moved = optimizer.best_cost(second, cache=table)
        reference = VolcanoOptimizer(dag)
        assert lazy == reference.best_cost(first)
        assert lazy.materialization_plans.keys() == first
        assert moved == reference.best_cost(second)
        assert table.stored.keys() == second  # the caller's table stays where it was moved

    def test_engine_results_survive_eviction_of_their_table(self, dag):
        universe = dag.shareable_candidates()
        engine = BestCostEngine(dag, max_cached_results=2)
        held = [engine.evaluate({candidate}) for candidate in universe[:5]]
        reference = BestCostEngine(dag, incremental=False)
        for candidate, result in zip(universe, held):
            assert result == reference.evaluate({candidate})


def referents(obj, depth):
    found, frontier = [], [obj]
    for _ in range(depth):
        frontier = [r for o in frontier for r in gc.get_referents(o)]
        found.extend(frontier)
    return found


class TestRetention:
    def test_extracted_result_drops_table_and_optimizer(self, dag):
        result = VolcanoOptimizer(dag).best_cost(dag.shareable_candidates()[:1])
        assert result._source is not None
        assert result.query_plans and result.materialization_plans
        assert result._source is None

    def test_session_results_hold_no_table(self):
        session = OptimizerSession(tpcd_catalog(1.0))
        result = session.optimize(composite_batch(1))
        assert result.plan._source is None
        held = referents(result.plan, 2)
        assert not any(isinstance(o, (PlanTable, VolcanoOptimizer)) for o in held)
        assert result.plan.query_plans.keys() == result.query_costs.keys()


class TestPlansExtracted:
    @pytest.mark.parametrize("strategy", ["marginal-greedy", "greedy", "share-all", "volcano"])
    def test_one_strategy_run_extracts_at_most_two_sets(self, dag, strategy):
        engine = BestCostEngine(dag)
        result = run_strategy(dag, engine, batch_name="b", strategy=strategy)
        assert engine.statistics.evaluations == result.oracle_calls >= 1
        # The selection, and ∅ too if the cost-based fallback looked at both.
        extracted = engine.statistics.as_dict()["plans_extracted"]
        assert 1 <= extracted <= 2
        assert result.plan.query_plans and result.plan._source is None  # reading again is free
        assert engine.statistics.plans_extracted == extracted

    def test_counter_and_span_attribute(self):
        sink = InMemorySink()
        session = OptimizerSession(
            tpcd_catalog(1.0), obs=Observability(tracer=Tracer(sink))
        )
        result = session.optimize(composite_batch(1))
        assert result.oracle_calls > 2
        counters = session.obs.registry.snapshot()["counters"]
        assert counters["optimizer_plans_extracted"] == 1
        (span,) = sink.spans("optimize.best_cost")
        assert span["attrs"]["extracted"] == 1
