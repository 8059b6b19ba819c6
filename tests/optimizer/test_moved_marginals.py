"""MarginalGreedy's marginals, answered by moving one remembered plan table.

:meth:`BestCostEngine.moved_use_costs` answers ``buc(base ∪ {e})`` for many
elements by moving ``base``'s remembered table to each set and putting every
entry back, instead of forking and remembering a table per set.  What the
greedy loops read must not change: every marginal equals the one
:meth:`SetFunction.marginal` computes from separate ``evaluate`` calls, bit
for bit; the moved table is left as it was; and each element counts the
evaluations the marginal it replaces counted.
"""

import importlib.util
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.algebra.logical import QueryBatch
from repro.catalog.tpcd import tpcd_catalog
from repro.core.benefit import UseCostBenefit, mqo_decomposition
from repro.core.marginal_greedy import lazy_marginal_greedy, marginal_greedy
from repro.core.mqo import run_strategy
from repro.core.set_functions import SetFunction
from repro.dag.sharing import build_batch_dag
from repro.optimizer.best_cost import BestCostEngine
from repro.optimizer.volcano import PlanTable, VolcanoOptimizer
from repro.service.scheduler import _deduplicate_names
from repro.service.session import OptimizerSession
from repro.workloads.batches import composite_batch
from repro.workloads.harness.scale import ScaleSpec, build_world
from repro.workloads.harness.traffic import TrafficSpec, generate_traffic, star_templates


def _expansion_module():
    """The 2–6-alias join-graph generator of the SPJ expansion tests."""
    path = Path(__file__).resolve().parents[1] / "dag" / "test_expansion_equivalence.py"
    spec = importlib.util.spec_from_file_location("expansion_equivalence_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_EXPANSION = _expansion_module()


@lru_cache(maxsize=None)
def bq_dag(n):
    return build_batch_dag(composite_batch(n), tpcd_catalog(1.0))


def star_trace_batches():
    """The benchmark's 180-request star trace, in the scheduler's micro-batches of 4."""
    catalog = build_world(ScaleSpec(scale=1.0), "star").catalog
    requests = generate_traffic(
        star_templates(6), TrafficSpec(requests=180, tenants=8, zipf=1.2, seed=5)
    )
    batches = [
        QueryBatch(f"micro-{at}", _deduplicate_names([r.query for r in requests[at : at + 4]]))
        for at in range(0, len(requests), 4)
    ]
    return catalog, batches


@contextmanager
def recorded_marginals():
    """Every ``UseCostBenefit.marginals`` call made inside: (engine, elements,
    subset, gains).  Patched by hand, as Hypothesis forbids function-scoped
    fixtures."""
    calls = []
    moved = UseCostBenefit.marginals

    def marginals(self, elements, subset):
        elements, subset = list(elements), frozenset(subset)
        gains = moved(self, elements, subset)
        calls.append((self._use_cost.engine, elements, subset, gains))
        return gains

    UseCostBenefit.marginals = marginals
    try:
        yield calls
    finally:
        UseCostBenefit.marginals = moved


def assert_marginals_are_separate_evaluations(calls):
    """Each recorded gain is ``SetFunction.marginal`` on a fresh engine, bit for bit."""
    assert calls
    references = {}
    for engine, elements, subset, gains in calls:
        reference = references.get(engine)
        if reference is None:
            reference = references[engine] = UseCostBenefit(BestCostEngine(engine.dag))
        want = [SetFunction.marginal(reference, element, subset) for element in elements]
        assert [gain.hex() for gain in gains] == [gain.hex() for gain in want]


def run_both(dag):
    for lazy in (True, False):
        run_strategy(dag, BestCostEngine(dag), batch_name="b", lazy=lazy)


class TestMarginalsAreSeparateEvaluations:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_composite_batches(self, n):
        with recorded_marginals() as calls:
            run_both(bq_dag(n))
        assert_marginals_are_separate_evaluations(calls)
        assert any(len(subset) > 0 for _, _, subset, _ in calls)  # refreshes too

    @pytest.mark.parametrize("lazy", [True, False])
    def test_star_serving_trace(self, lazy):
        catalog, batches = star_trace_batches()
        session = OptimizerSession(catalog)
        with recorded_marginals() as calls:
            for batch in batches:
                session.optimize(batch, lazy=lazy)
        assert_marginals_are_separate_evaluations(calls)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_EXPANSION.join_graph_batches())
    def test_generated_join_graphs(self, batch):
        with recorded_marginals() as calls:
            run_both(build_batch_dag(batch, _EXPANSION._CATALOG))
        if calls:
            assert_marginals_are_separate_evaluations(calls)


def table_snapshot(engine, base):
    table = engine._results[frozenset(base)][1]
    working = engine.optimizer._working(table)
    return table, (list(working), dict(table.own), list(table.base), table.added, table.stored)


def assert_same_plans(got, want):
    assert got.use_cost == want.use_cost
    assert got.overhead_cost == want.overhead_cost
    assert got.query_plans == want.query_plans
    assert got.materialization_plans == want.materialization_plans


class TestMovedTable:
    @pytest.mark.parametrize("n", [1, 2])
    def test_move_leaves_the_base_table_and_later_evaluations_alone(self, n):
        dag = bq_dag(n)
        universe = sorted(dag.shareable_candidates(), key=repr)
        engine = BestCostEngine(dag)
        reference = BestCostEngine(dag, incremental=False)
        for base in (frozenset(), frozenset(universe[:1]), frozenset(universe[1:3])):
            engine.evaluate(base)
            table, before = table_snapshot(engine, base)
            base_cost, use_costs = engine.moved_use_costs(base, universe)
            assert table_snapshot(engine, base) == (table, before)
            assert base_cost == reference.use_cost(base)
            for element, use_cost in zip(universe, use_costs):
                assert use_cost == reference.use_cost(base | {element})
        # Later evaluations, including of the sets just answered by a move,
        # and the base results' trees are those of the from-scratch engine.
        for subset in (
            frozenset(),
            frozenset(universe[:1]),
            frozenset(universe[:2]),
            frozenset(universe[1:3]),
            frozenset(universe[1:4]),
            frozenset(universe[-2:]),
        ):
            assert_same_plans(engine.evaluate(subset), reference.evaluate(subset))

    @pytest.mark.parametrize("n", [2, 4])
    def test_every_move_starts_from_the_base_tables_working_list(self, n, monkeypatch):
        """Each move finds the working list as the base table holds it: the
        entries the previous move propagated or derived are all put back."""
        dag = bq_dag(n)
        universe = sorted(dag.shareable_candidates(), key=repr)
        engine = BestCostEngine(dag)
        reference = BestCostEngine(dag)  # evaluate() is checked against scratch elsewhere
        optimizer = engine.optimizer
        starts = []
        propagate = VolcanoOptimizer._propagate

        def recording(self, table, stored, work):
            starts.append(list(work))
            return propagate(self, table, stored, work)

        derived = 0
        for base in (frozenset(), frozenset(universe[:2]), frozenset(universe[::3])):
            engine.evaluate(base)
            # The engine's tables all hold ∅'s entries, so its moves never
            # derive one; a table built for ``base`` alone lacks those that
            # the bounds skipped under ``base``, which removals need.
            alone = PlanTable()
            optimizer.best_cost(base, cache=alone)
            sets = [base | {e} for e in universe] + [base - {e} for e in base]
            sets += [frozenset(), frozenset(universe[1::4])]
            for table in (engine._results[base][1], alone):
                starts.clear()
                monkeypatch.setattr(VolcanoOptimizer, "_propagate", recording)
                forward, moves = optimizer.moved_use_costs(table, sets)
                monkeypatch.undo()
                want = optimizer._working(table)
                assert len(starts) == len(sets)
                assert all(start == want for start in starts)
                assert forward == [reference.use_cost(subset) for subset in sets]
                assert optimizer.moved_use_costs(table, sets[::-1])[0] == forward[::-1]
                derived += moves.recomputed - moves.invalidated
        assert derived > 0

    def test_moved_sets_are_not_remembered(self):
        dag = bq_dag(2)
        universe = sorted(dag.shareable_candidates(), key=repr)
        engine = BestCostEngine(dag)
        engine.evaluate(frozenset())
        engine.moved_use_costs(frozenset(), universe)
        assert list(engine._results) == [frozenset()]
        assert engine.statistics.full_evaluations == 1


class TestCounts:
    def test_element_in_the_base_gets_zero_and_counts_nothing(self):
        dag = bq_dag(2)
        first, second = sorted(dag.shareable_candidates(), key=repr)[:2]
        engine = BestCostEngine(dag)
        benefit = UseCostBenefit(engine)
        engine.evaluate({first})
        before = engine.statistics.as_dict()
        assert benefit.marginals([first], {first}) == [0.0]
        assert benefit.marginals([], {first}) == []
        assert engine.moved_use_costs({first}, [first]) == (
            engine._results[frozenset({first})][0].use_cost,
            [engine._results[frozenset({first})][0].use_cost],
        )
        assert engine.statistics.as_dict() == before
        gains = benefit.marginals([first, second, first], {first})
        after = engine.statistics.as_dict()
        assert gains[0] == gains[2] == 0.0
        assert gains[1] == SetFunction.marginal(benefit, second, {first})
        # One moved element: the set and the base lookup, one of them a hit.
        assert after["evaluations"] - before["evaluations"] == 2
        assert after["result_cache_hits"] - before["result_cache_hits"] == 1
        assert after["incremental_evaluations"] - before["incremental_evaluations"] == 1

    def test_remembered_set_is_read_back_as_a_hit(self):
        dag = bq_dag(2)
        first = sorted(dag.shareable_candidates(), key=repr)[0]
        engine = BestCostEngine(dag)
        engine.evaluate(frozenset())
        remembered = engine.evaluate({first}).use_cost
        before = engine.statistics.as_dict()
        assert engine.moved_use_costs(frozenset(), [first])[1] == [remembered]
        after = engine.statistics.as_dict()
        assert after["evaluations"] - before["evaluations"] == 2
        assert after["result_cache_hits"] - before["result_cache_hits"] == 2
        assert after["incremental_evaluations"] == before["incremental_evaluations"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lazy", [True, False])
    def test_incremental_and_reference_engines_count_the_same_evaluations(self, n, lazy):
        dag = bq_dag(n)
        counts = []
        for incremental in (True, False):
            engine = BestCostEngine(dag, incremental=incremental)
            decomposition = mqo_decomposition(engine)
            (lazy_marginal_greedy if lazy else marginal_greedy)(decomposition)
            counts.append(engine.statistics.evaluations)
        assert counts[0] == counts[1]
