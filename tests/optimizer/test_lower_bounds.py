"""The plan DP's lower-bound skipping is exact.

Every DP state and candidate carries a static lower bound, and ``_compute``
skips a candidate whose bound cannot beat the incumbent without reading its
inputs.  The reference here is the very same DP with every bound forced to
−∞ (its engine's optimizer rewrites each new state's bounds before any
consumer reads them), so it never skips.  Both engines walk the same random
add/remove/jump sequences and must agree on costs, on the candidate every
shared state chose and on the extracted plan trees; every entry of the
bounded DP must be at least its state's bound.
"""

import gc
import math
import weakref
from contextlib import contextmanager
from functools import lru_cache
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.catalog.tpcd import tpcd_catalog
from repro.dag.sharing import build_batch_dag
from repro.optimizer import best_cost
from repro.optimizer.best_cost import BestCostEngine
from repro.optimizer.volcano import VolcanoOptimizer
from repro.workloads.batches import composite_batch
from repro.workloads.synthetic import random_star_batch, star_schema_catalog


class UnboundedOptimizer(VolcanoOptimizer):
    """The same DP whose every state and candidate has the bound −∞.

    A state's inputs are created (and so rewritten) inside its own
    ``_state`` call, and its consumers read its bound only after that call
    returns, so no bound is read before it is −∞.
    """

    def _state(self, gid, required):
        created = len(self._by_id)
        state = super()._state(gid, required)
        if state.id >= created:
            state.lb = -math.inf
            state.candidates[:] = [(-math.inf,) + c[1:] for c in state.candidates]
        return state


@contextmanager
def no_bounds():
    """Engines built inside get an :class:`UnboundedOptimizer`: nothing is skipped."""
    with mock.patch.object(best_cost, "VolcanoOptimizer", UnboundedOptimizer):
        yield


@lru_cache(maxsize=None)
def batch_dag(batch):
    kind, number = batch
    if kind == "bq":
        return build_batch_dag(composite_batch(number), tpcd_catalog(1.0))
    return build_batch_dag(random_star_batch(4, seed=number), star_schema_catalog())


@st.composite
def evaluation_sequences(draw):
    batch = draw(
        st.one_of(
            st.tuples(st.just("bq"), st.integers(min_value=1, max_value=6)),
            st.tuples(st.just("star"), st.integers(min_value=0, max_value=40)),
        )
    )
    dag = batch_dag(batch)
    element = st.sampled_from(list(dag.shareable_candidates()) + list(dag.shareable_nodes()))
    step = st.one_of(
        st.tuples(st.just("add"), element),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=64)),
        st.tuples(st.just("jump"), st.frozensets(element, max_size=4)),
    )
    return batch, draw(st.lists(step, min_size=1, max_size=12))


def choices(engine, key):
    """``state id -> (cost, order, choice, presorted)`` of a remembered table,
    the choice named by its position among the state's candidates."""
    optimizer, table = engine.optimizer, engine._results[key][1]
    named = {}
    for state_id, entry in enumerate(optimizer._working(table)):
        if entry is not None:
            cost, order, choice, presorted = entry
            if isinstance(choice, tuple):
                candidates = optimizer._by_id[state_id].candidates
                choice = ("candidate", next(i for i, c in enumerate(candidates) if c is choice))
            named[state_id] = (cost, order, choice, presorted)
    return named


def assert_entries_respect_bounds(engine, key):
    optimizer, table = engine.optimizer, engine._results[key][1]
    for state_id, entry in enumerate(optimizer._working(table)):
        if entry is not None:
            assert entry[0] >= optimizer._by_id[state_id].lb, state_id


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(evaluation_sequences())
def test_skipping_changes_no_cost_choice_or_plan(case):
    batch, steps = case
    dag = batch_dag(batch)
    bounded = BestCostEngine(dag)
    with no_bounds():
        reference = BestCostEngine(dag)
    current = frozenset()
    for kind, argument in steps:
        if kind == "add":
            current = current | {argument}
        elif kind == "remove":
            members = sorted(current, key=repr)
            current = current - set(members[argument % len(members) :][:1] if members else ())
        else:
            current = argument
        got = bounded.evaluate(current)
        want = reference.evaluate(current)
        assert (got.use_cost, got.overhead_cost) == (want.use_cost, want.overhead_cost)
        assert_entries_respect_bounds(bounded, current)
        mine, theirs = choices(bounded, current), choices(reference, current)
        assert mine == {state_id: theirs[state_id] for state_id in mine}
        assert got.query_plans == want.query_plans
        assert got.materialization_plans == want.materialization_plans
    assert reference.statistics.candidates_skipped == 0


def test_the_bounds_do_skip():
    """BQ2's ∅ evaluation skips candidates and so derives fewer entries."""
    dag = batch_dag(("bq", 2))
    bounded = BestCostEngine(dag)
    with no_bounds():
        reference = BestCostEngine(dag)
        reference.evaluate(frozenset())
    bounded.evaluate(frozenset())
    assert bounded.statistics.candidates_skipped > 0 == reference.statistics.candidates_skipped
    assert bounded.statistics.dp_entries_recomputed < reference.statistics.dp_entries_recomputed


def test_an_unreferenced_optimizer_needs_no_cycle_collector():
    """States, candidates and alternatives point at their inputs only, so a
    dropped optimizer is freed at once and leaves no cyclic garbage."""
    dag = batch_dag(("bq", 2))
    gc.collect()
    gc.disable()
    try:
        optimizer = VolcanoOptimizer(dag)
        optimizer.best_cost(dag.shareable_candidates()[:2]).query_plans
        ref = weakref.ref(optimizer)
        del optimizer
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
