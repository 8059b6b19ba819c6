"""The incremental ``bestCost`` engine against its from-scratch reference.

``BestCostEngine(incremental=False)`` derives every plan table from nothing;
the incremental engine moves remembered tables by change propagation.  Both
must return the same costs *and the same plan trees* for every set, in every
order of asking — and the incremental one must actually be incremental.
"""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.catalog.tpcd import tpcd_catalog
from repro.core.mqo import run_strategy
from repro.core.strategies import available_strategies
from repro.dag.sharing import build_batch_dag
from repro.optimizer.best_cost import BestCostEngine
from repro.workloads.batches import composite_batch
from repro.workloads.synthetic import random_star_batch, star_schema_catalog

SRC = Path(__file__).resolve().parents[2] / "src"

BATCHES = ("bq1", "bq2", "star-a", "star-b")


@lru_cache(maxsize=None)
def batch_dag(name):
    if name.startswith("bq"):
        return build_batch_dag(composite_batch(int(name[2:])), tpcd_catalog(1.0))
    seed = {"star-a": 3, "star-b": 11}[name]
    return build_batch_dag(random_star_batch(4, seed=seed), star_schema_catalog())


def run(dag, *, incremental, strategy, lazy=True, cardinality=None, decomposition="use-cost"):
    engine = BestCostEngine(dag, incremental=incremental)
    result = run_strategy(
        dag,
        engine,
        batch_name="b",
        strategy=strategy,
        lazy=lazy,
        cardinality=cardinality,
        decomposition=decomposition,
    )
    return engine, result


class TestEngineStaysIncremental:
    """One table is ever built from nothing; a base in use is never lost."""

    @pytest.mark.parametrize("batch", ["bq2", "star-a"])
    @pytest.mark.parametrize(
        "strategy, lazy",
        [("marginal-greedy", True), ("marginal-greedy", False), ("greedy", True)],
    )
    def test_cold_strategy_builds_one_table_from_scratch(self, batch, strategy, lazy):
        dag = batch_dag(batch)
        engine, _ = run(dag, incremental=True, strategy=strategy, lazy=lazy)
        stats = engine.statistics
        assert stats.evaluations - stats.result_cache_hits > 8  # more sets than the old cache held
        assert stats.full_evaluations == 1
        assert stats.incremental_evaluations == (
            stats.evaluations - stats.result_cache_hits - 1
        )
        reference, _ = run(dag, incremental=False, strategy=strategy, lazy=lazy)
        assert stats.dp_entries_recomputed < reference.statistics.dp_entries_recomputed
        assert stats.dp_entries_reused > 0 == reference.statistics.dp_entries_reused

    def test_empty_table_outlives_the_result_cache(self):
        dag = batch_dag("bq1")
        engine = BestCostEngine(dag, max_cached_results=2)
        universe = dag.shareable_candidates()
        engine.evaluate(frozenset())
        for candidate in universe[:4]:
            engine.evaluate({candidate})
        assert frozenset() not in engine._results  # ∅'s result is long evicted
        costs = engine.standalone_materialization_costs(universe)
        reference = BestCostEngine(dag, incremental=False)
        assert costs == reference.standalone_materialization_costs(universe)
        assert engine.statistics.full_evaluations == 1

    def test_first_query_need_not_be_the_empty_set(self):
        dag = batch_dag("bq1")
        first = frozenset(dag.shareable_candidates()[:2])
        engine = BestCostEngine(dag)
        reference = BestCostEngine(dag, incremental=False)
        assert engine.evaluate(first) == reference.evaluate(first)
        assert engine.evaluate(frozenset()) == reference.evaluate(frozenset())
        assert engine.statistics.full_evaluations == 1


def _universe(dag):
    """Sorted and unsorted candidates plus the same nodes as bare group ids."""
    return list(dag.shareable_candidates()) + list(dag.shareable_nodes())


@st.composite
def evaluation_sequences(draw):
    batch = draw(st.sampled_from(BATCHES))
    universe = _universe(batch_dag(batch))
    element = st.sampled_from(universe)
    index = st.integers(min_value=0, max_value=64)
    step = st.one_of(
        st.tuples(st.just("add"), element),
        st.tuples(st.just("remove"), index),
        st.tuples(st.just("jump"), st.frozensets(element, max_size=4)),
        st.tuples(st.just("revisit"), index),
    )
    return batch, draw(st.lists(step, min_size=1, max_size=16)), draw(st.booleans())


def assert_same_plans(got, want):
    assert got.use_cost == want.use_cost
    assert got.overhead_cost == want.overhead_cost
    assert got.query_plans == want.query_plans
    assert got.materialization_plans == want.materialization_plans


class TestDifferential:
    @pytest.mark.parametrize("batch", BATCHES)
    def test_grow_then_shrink_through_every_candidate(self, batch):
        """Every candidate is added to, and later removed from, a non-trivial set."""
        dag = batch_dag(batch)
        universe = _universe(dag)
        incremental = BestCostEngine(dag)
        reference = BestCostEngine(dag, incremental=False)
        grow = [frozenset(universe[:i]) for i in range(len(universe) + 1)]
        shrink = [frozenset(universe[i:]) for i in range(1, len(universe) + 1)]
        for subset in grow + shrink:
            assert_same_plans(incremental.evaluate(subset), reference.evaluate(subset))
        stats = incremental.statistics
        assert stats.full_evaluations == 1
        assert stats.dp_entries_recomputed < reference.statistics.dp_entries_recomputed / 4

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(evaluation_sequences())
    def test_random_add_remove_sequences(self, case):
        """Additions, removals, jumps and revisits: same plans at every step."""
        batch, steps, tiny_cache = case
        dag = batch_dag(batch)
        # A tiny result cache evicts the tables the walk would start from.
        incremental = BestCostEngine(dag, max_cached_results=3 if tiny_cache else 256)
        reference = BestCostEngine(dag, incremental=False)
        current = frozenset()
        visited = [current]
        for kind, argument in steps:
            if kind == "add":
                current = current | {argument}
            elif kind == "remove":
                members = sorted(current, key=repr)
                current = current - set(members[argument % len(members) :][:1] if members else ())
            elif kind == "jump":
                current = argument
            else:
                current = visited[argument % len(visited)]
            visited.append(current)
            assert_same_plans(incremental.evaluate(current), reference.evaluate(current))
        assert incremental.statistics.full_evaluations == 1

    @pytest.mark.parametrize("batch", ["bq1", "star-a"])
    @pytest.mark.parametrize("decomposition", ["use-cost", "canonical"])
    @pytest.mark.parametrize("lazy", [True, False])
    def test_every_strategy_chooses_the_same(self, batch, decomposition, lazy):
        dag = batch_dag(batch)
        for strategy in available_strategies():
            knobs = dict(
                strategy=strategy,
                lazy=lazy,
                decomposition=decomposition,
                cardinality=2 if strategy == "exhaustive" else None,
            )
            _, got = run(dag, incremental=True, **knobs)
            _, want = run(dag, incremental=False, **knobs)
            assert got.materialized == want.materialized, strategy
            assert got.total_cost == want.total_cost, strategy
            assert got.plan == want.plan, strategy


_HASHSEED_PROBE = """
import json
from repro.catalog.tpcd import tpcd_catalog
from repro.core.mqo import run_strategy
from repro.dag.sharing import build_batch_dag
from repro.optimizer.best_cost import BestCostEngine
from repro.workloads.batches import composite_batch

dag = build_batch_dag(composite_batch(2), tpcd_catalog(1.0))
report = {}
for strategy, decomposition in (
    ("marginal-greedy", "use-cost"), ("marginal-greedy", "canonical"), ("greedy", "use-cost")
):
    engine = BestCostEngine(dag)
    result = run_strategy(
        dag, engine, batch_name="b", strategy=strategy, decomposition=decomposition
    )
    report[strategy + "/" + decomposition] = {
        "statistics": engine.statistics.as_dict(),
        "materialized": [dag.describe_candidate(c) for c in result.materialized],
        "total_cost": result.total_cost,
    }
print(json.dumps(report))
"""


def test_statistics_do_not_depend_on_the_hash_seed():
    """No count (and no plan choice) may hang on set iteration order."""
    outputs = []
    for hashseed in ("1", "2", "3"):
        done = subprocess.run(
            [sys.executable, "-c", _HASHSEED_PROBE],
            env={**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    assert all(run["statistics"]["full_evaluations"] == 1 for run in outputs[0].values())
