"""The Greedy algorithm of Roy et al. (Algorithm 1) and its lazy variant.

Greedy works directly on the ``bestCost`` oracle: at every iteration it
adds the node whose materialization yields the largest reduction in
``bestCost(X ∪ {x})`` and stops as soon as no node reduces the cost.  The
"monotonicity heuristic" (supermodularity of ``bestCost``) makes the
benefits non-increasing over the iterations, which the LazyGreedy variant
exploits with a Minoux-style max-heap of stale benefit bounds — this is the
third optimization of Roy et al. recalled in Section 5.2 of the paper.

These implementations are written against an arbitrary
:class:`~repro.core.set_functions.SetFunction` ``best_cost`` so they can be
used both on the real MQO oracle (:mod:`repro.core.benefit`) and on
synthetic instances in tests.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .set_functions import Element, SetFunction, Subset

__all__ = ["GreedyCostStep", "GreedyResult", "greedy", "lazy_greedy"]


@dataclass(frozen=True)
class GreedyCostStep:
    """One Greedy iteration: the node picked and the resulting best cost."""

    element: Element
    benefit: float
    cost_after: float


@dataclass
class GreedyResult:
    """Outcome of a Greedy / LazyGreedy run.

    Attributes:
        selected: the chosen materialization set ``X``.
        order: elements in selection order.
        initial_cost: ``bestCost(∅)`` — the no-sharing (plain Volcano) cost.
        final_cost: ``bestCost(X)``.
        benefit: ``initial_cost − final_cost`` (the materialization benefit).
        steps: per-iteration trace.
        oracle_calls: number of ``bestCost`` evaluations performed.
        wall_time: wall-clock seconds spent inside the algorithm.
    """

    selected: Subset
    order: Tuple[Element, ...]
    initial_cost: float
    final_cost: float
    steps: Tuple[GreedyCostStep, ...]
    oracle_calls: int
    wall_time: float

    @property
    def benefit(self) -> float:
        return self.initial_cost - self.final_cost

    def __len__(self) -> int:
        return len(self.selected)


def greedy(
    best_cost: SetFunction,
    *,
    cardinality: Optional[int] = None,
    tolerance: float = 1e-9,
) -> GreedyResult:
    """Run the Greedy algorithm of Roy et al. on a ``bestCost`` oracle.

    Args:
        best_cost: a set function returning the best consolidated-plan cost
            given that the argument set of nodes is materialized.
        cardinality: optional limit on the number of materialized nodes.
        tolerance: minimum cost reduction regarded as an improvement.

    Returns:
        A :class:`GreedyResult` with the selected set and the run trace.
    """
    start = time.perf_counter()
    universe = best_cost.universe
    calls = 0

    selected: set = set()
    order: List[Element] = []
    steps: List[GreedyCostStep] = []

    current_cost = best_cost.value(frozenset())
    calls += 1
    initial_cost = current_cost
    candidates = set(universe)
    limit = len(universe) if cardinality is None else max(0, int(cardinality))

    while candidates and len(selected) < limit:
        best_element: Optional[Element] = None
        best_new_cost = math.inf
        for element in sorted(candidates, key=repr):
            new_cost = best_cost.value(frozenset(selected | {element}))
            calls += 1
            if new_cost < best_new_cost or (
                new_cost == best_new_cost and repr(element) < repr(best_element)
            ):
                best_element = element
                best_new_cost = new_cost
        if best_element is None or current_cost - best_new_cost <= tolerance:
            break
        selected.add(best_element)
        candidates.discard(best_element)
        order.append(best_element)
        steps.append(
            GreedyCostStep(
                element=best_element,
                benefit=current_cost - best_new_cost,
                cost_after=best_new_cost,
            )
        )
        current_cost = best_new_cost

    return GreedyResult(
        selected=frozenset(selected),
        order=tuple(order),
        initial_cost=initial_cost,
        final_cost=current_cost,
        steps=tuple(steps),
        oracle_calls=calls,
        wall_time=time.perf_counter() - start,
    )


def lazy_greedy(
    best_cost: SetFunction,
    *,
    cardinality: Optional[int] = None,
    tolerance: float = 1e-9,
) -> GreedyResult:
    """LazyGreedy: Greedy accelerated with stale benefit upper bounds.

    Valid under the monotonicity heuristic (supermodular ``bestCost``); when
    the assumption fails the output may differ from :func:`greedy`, which
    mirrors the behaviour discussed by Roy et al.
    """
    start = time.perf_counter()
    universe = best_cost.universe
    calls = 0

    selected: set = set()
    order: List[Element] = []
    steps: List[GreedyCostStep] = []

    current_cost = best_cost.value(frozenset())
    calls += 1
    initial_cost = current_cost
    limit = len(universe) if cardinality is None else max(0, int(cardinality))

    # Heap entries: (-benefit_bound, tie_breaker, element, iteration_computed).
    heap: List[Tuple[float, str, Element, int]] = []
    for element in sorted(universe, key=repr):  # oracle calls in an order hashing cannot change
        new_cost = best_cost.value(frozenset({element}))
        calls += 1
        heapq.heappush(heap, (-(current_cost - new_cost), repr(element), element, 0))

    iteration = 0
    while heap and len(selected) < limit:
        neg_benefit, tie, element, computed_at = heapq.heappop(heap)
        benefit = -neg_benefit
        if benefit <= tolerance:
            break
        if computed_at != iteration:
            new_cost = best_cost.value(frozenset(selected | {element}))
            calls += 1
            heapq.heappush(heap, (-(current_cost - new_cost), tie, element, iteration))
            continue
        new_cost = current_cost - benefit
        selected.add(element)
        order.append(element)
        iteration += 1
        steps.append(
            GreedyCostStep(element=element, benefit=benefit, cost_after=new_cost)
        )
        current_cost = new_cost

    return GreedyResult(
        selected=frozenset(selected),
        order=tuple(order),
        initial_cost=initial_cost,
        final_cost=current_cost,
        steps=tuple(steps),
        oracle_calls=calls,
        wall_time=time.perf_counter() - start,
    )
