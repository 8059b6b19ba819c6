"""The MarginalGreedy algorithm (Algorithm 2) and its lazy variant.

MarginalGreedy solves unconstrained normalized submodular maximization
(UNSM) given a decomposition ``f = fM − c``: it repeatedly adds the element
with the largest marginal-benefit-to-cost ratio ``f'M(x, X)/c({x})`` as long
as that ratio exceeds 1, and finally appends every element with negative
additive cost.  Theorem 1 of the paper shows the output ``X`` satisfies

    f(X) >= [1 − (c(Θ)/f(Θ)) · ln(1 + f(Θ)/c(Θ))] · f(Θ)

for an optimal solution ``Θ``, and Theorem 2 shows this factor is the best
achievable in polynomial time unless P = NP.

Two speed-ups from Section 5 are implemented:

* the ratio<1 elimination (an element whose current ratio drops below 1 can
  never be selected later, because ``fM`` is submodular), and
* the Minoux-style lazy evaluation (:func:`lazy_marginal_greedy`), which
  keeps stale upper bounds on the ratios in a max-heap and only refreshes
  the top entry.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .decomposition import Decomposition, canonical_decomposition
from .set_functions import Element, SetFunction, Subset, as_frozenset

__all__ = [
    "GreedyStep",
    "MarginalGreedyResult",
    "marginal_greedy",
    "lazy_marginal_greedy",
    "theorem1_factor",
    "theorem1_bound",
]


@dataclass(frozen=True)
class GreedyStep:
    """One iteration of a greedy run: the element picked and the bookkeeping."""

    element: Element
    ratio: float
    monotone_gain: float
    cost: float
    value_after: float


@dataclass
class MarginalGreedyResult:
    """Outcome of a MarginalGreedy run.

    Attributes:
        selected: the chosen set ``X``.
        order: the elements in the order they were added (ratio-driven picks
            first, then the free negative-cost elements).
        value: ``f(X)`` for the original function of the decomposition.
        steps: per-iteration trace of the ratio-driven picks.
        free_elements: negative-cost elements appended at the end.
        monotone_evaluations: number of ``fM`` marginal evaluations performed
            (the dominant cost; each one is a ``bestCost`` call in MQO).
        pruned: elements removed mid-run by the ratio<1 elimination.
        wall_time: wall-clock seconds spent inside the algorithm.
    """

    selected: Subset
    order: Tuple[Element, ...]
    value: float
    steps: Tuple[GreedyStep, ...]
    free_elements: Subset
    monotone_evaluations: int
    pruned: Subset
    wall_time: float

    def __len__(self) -> int:
        return len(self.selected)


def theorem1_factor(f_opt: float, c_opt: float) -> float:
    """The Theorem-1 approximation factor ``1 − (c/f)·ln(1 + f/c)``.

    ``f_opt`` is ``f(Θ)`` and ``c_opt`` is ``c(Θ)`` for an optimal solution
    ``Θ``.  The factor degenerates gracefully: if ``c_opt`` is zero the
    factor is 1 (the bound is vacuous but safe), and if ``f_opt`` is not
    positive the bound is reported as 0.
    """
    if f_opt <= 0.0:
        return 0.0
    if c_opt <= 0.0:
        return 1.0
    gamma = f_opt / c_opt
    return 1.0 - math.log1p(gamma) / gamma


def theorem1_bound(f_opt: float, c_opt: float) -> float:
    """The guaranteed value ``factor * f(Θ)`` promised by Theorem 1."""
    return theorem1_factor(f_opt, c_opt) * max(f_opt, 0.0)


def _resolve_decomposition(
    problem: "SetFunction | Decomposition",
) -> Decomposition:
    if isinstance(problem, Decomposition):
        return problem
    return canonical_decomposition(problem)


def marginal_greedy(
    problem: "SetFunction | Decomposition",
    *,
    cardinality: Optional[int] = None,
    eliminate_low_ratio: bool = True,
    add_negative_cost_elements: bool = True,
) -> MarginalGreedyResult:
    """Run MarginalGreedy (Algorithm 2) on a UNSM problem.

    Args:
        problem: either a normalized submodular :class:`SetFunction` (the
            canonical Proposition-1 decomposition is computed for it) or an
            explicit :class:`Decomposition`.
        cardinality: optional cardinality constraint ``k`` (Section 5.3); the
            ratio-driven loop stops after ``k`` picks and no free elements
            are appended.
        eliminate_low_ratio: apply the Section-5.1 optimization that drops an
            element permanently once its ratio falls below 1.
        add_negative_cost_elements: append all elements with negative additive
            cost at the end of the unconstrained run (as the paper does).

    Returns:
        A :class:`MarginalGreedyResult` describing the chosen set.
    """
    start = time.perf_counter()
    decomposition = _resolve_decomposition(problem)
    universe = decomposition.universe

    selected: set = set()
    order: List[Element] = []
    steps: List[GreedyStep] = []
    pruned: set = set()
    evaluations = 0

    positive_cost = [e for e in universe if decomposition.element_cost(e) > 0.0]
    negative_cost = sorted(
        (e for e in universe if decomposition.element_cost(e) < 0.0), key=repr
    )
    zero_cost = sorted(
        (e for e in universe if decomposition.element_cost(e) == 0.0), key=repr
    )
    candidates = set(positive_cost)
    # Zero-cost elements behave like infinitely good ratios whenever their
    # marginal gain is positive; treat them as candidates too so that the
    # ratio rule (gain/0 = +inf > 1) is honoured.
    candidates.update(zero_cost)

    limit = len(universe) if cardinality is None else max(0, int(cardinality))

    while candidates and len(selected) < limit:
        best_element: Optional[Element] = None
        best_ratio = -math.inf
        best_gain = 0.0
        to_drop: List[Element] = []
        ordered = sorted(candidates, key=repr)
        gains = decomposition.monotone_marginals(ordered, frozenset(selected))
        evaluations += len(ordered)
        for element, gain in zip(ordered, gains):
            cost = decomposition.element_cost(element)
            ratio = math.inf if cost <= 0.0 and gain > 0.0 else (
                gain / cost if cost > 0.0 else -math.inf
            )
            if eliminate_low_ratio and ratio <= 1.0:
                # Submodularity of fM: the ratio can only shrink as X grows,
                # so this element can never be selected in a later iteration.
                to_drop.append(element)
                continue
            if ratio > best_ratio or (
                ratio == best_ratio and repr(element) < repr(best_element)
            ):
                best_element = element
                best_ratio = ratio
                best_gain = gain
        for element in to_drop:
            candidates.discard(element)
            pruned.add(element)
        if best_element is None or best_ratio <= 1.0:
            break
        selected.add(best_element)
        order.append(best_element)
        candidates.discard(best_element)
        steps.append(
            GreedyStep(
                element=best_element,
                ratio=best_ratio,
                monotone_gain=best_gain,
                cost=decomposition.element_cost(best_element),
                value_after=decomposition.value(frozenset(selected)),
            )
        )

    free: set = set()
    if add_negative_cost_elements and cardinality is None:
        for element in negative_cost:
            if element not in selected:
                selected.add(element)
                order.append(element)
                free.add(element)

    final = frozenset(selected)
    return MarginalGreedyResult(
        selected=final,
        order=tuple(order),
        value=decomposition.value(final),
        steps=tuple(steps),
        free_elements=frozenset(free),
        monotone_evaluations=evaluations,
        pruned=frozenset(pruned),
        wall_time=time.perf_counter() - start,
    )


def lazy_marginal_greedy(
    problem: "SetFunction | Decomposition",
    *,
    cardinality: Optional[int] = None,
    add_negative_cost_elements: bool = True,
) -> MarginalGreedyResult:
    """The LazyMarginalGreedy algorithm (Section 5.2).

    Identical output to :func:`marginal_greedy` (ties are broken the same
    way), but the marginal-benefit-to-cost ratios are kept as stale upper
    bounds in a max-heap and only the top entry is refreshed, which is valid
    because submodularity of ``fM`` makes the true ratios non-increasing over
    the iterations.
    """
    start = time.perf_counter()
    decomposition = _resolve_decomposition(problem)
    universe = decomposition.universe

    selected: set = set()
    order: List[Element] = []
    steps: List[GreedyStep] = []
    pruned: set = set()
    evaluations = 0

    negative_cost = sorted(
        (e for e in universe if decomposition.element_cost(e) < 0.0), key=repr
    )
    limit = len(universe) if cardinality is None else max(0, int(cardinality))

    # Heap entries: (-ratio, tie_breaker, element, gain, iteration_computed).
    heap: List[Tuple[float, str, Element, float, int]] = []
    # Oracle calls in an order hashing cannot change; each repr is built once.
    ties = {element: repr(element) for element in universe}
    first = sorted((e for e in universe if decomposition.element_cost(e) >= 0.0), key=ties.get)
    gains = decomposition.monotone_marginals(first, frozenset())
    evaluations += len(first)
    for element, gain in zip(first, gains):
        cost = decomposition.element_cost(element)
        ratio = math.inf if cost == 0.0 and gain > 0.0 else (
            gain / cost if cost > 0.0 else -math.inf
        )
        heapq.heappush(heap, (-ratio, ties[element], element, gain, 0))

    iteration = 0
    while heap and len(selected) < limit:
        neg_ratio, tie, element, gain, computed_at = heapq.heappop(heap)
        ratio = -neg_ratio
        if ratio <= 1.0:
            # Stale or fresh, the bound says no remaining element can have a
            # true ratio above 1 (bounds only over-estimate) — stop.
            pruned.update(e for (_, _, e, _, _) in heap)
            pruned.add(element)
            break
        if computed_at != iteration:
            (gain,) = decomposition.monotone_marginals((element,), frozenset(selected))
            evaluations += 1
            cost = decomposition.element_cost(element)
            ratio = math.inf if cost == 0.0 and gain > 0.0 else (
                gain / cost if cost > 0.0 else -math.inf
            )
            heapq.heappush(heap, (-ratio, tie, element, gain, iteration))
            continue
        selected.add(element)
        order.append(element)
        iteration += 1
        steps.append(
            GreedyStep(
                element=element,
                ratio=ratio,
                monotone_gain=gain,
                cost=decomposition.element_cost(element),
                value_after=decomposition.value(frozenset(selected)),
            )
        )

    free: set = set()
    if add_negative_cost_elements and cardinality is None:
        for element in negative_cost:
            if element not in selected:
                selected.add(element)
                order.append(element)
                free.add(element)

    final = frozenset(selected)
    return MarginalGreedyResult(
        selected=final,
        order=tuple(order),
        value=decomposition.value(final),
        steps=tuple(steps),
        free_elements=frozenset(free),
        monotone_evaluations=evaluations,
        pruned=frozenset(pruned),
        wall_time=time.perf_counter() - start,
    )
