"""Bridging the optimizer's ``bestCost`` oracle to the UNSM formulation.

The reformulation at the heart of the paper replaces minimizing
``bestCost(Q, S)`` by maximizing the materialization benefit

    mb(S) = bestCost(Q, ∅) − bestCost(Q, S)
          = (bestUseCost(Q, ∅) − bestUseCost(Q, S)) − c(S)

where the parenthesised part is monotone non-decreasing in ``S`` and ``c``
is (approximately) additive — the cost of computing and writing each
materialized node.  This module provides those functions as
:class:`~repro.core.set_functions.SetFunction` objects over the universe of
shareable equivalence nodes, plus the two decompositions the MarginalGreedy
algorithm can run on:

* ``"use-cost"`` (default): ``fM(S) = buc(∅) − buc(S)`` and
  ``c({e}) =`` standalone compute + write cost of ``e`` — the natural MQO
  decomposition described in Section 2.4;
* ``"canonical"``: the Proposition-1 decomposition of ``mb`` itself (costs
  ``n+1`` extra ``bestCost`` calls on near-full sets, as the paper notes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..optimizer.best_cost import BestCostEngine
from .decomposition import Decomposition, canonical_decomposition, decomposition_from_parts
from .set_functions import (
    AdditiveFunction,
    Element,
    LambdaSetFunction,
    SetFunction,
    Subset,
    as_frozenset,
)

__all__ = [
    "BestCostFunction",
    "UseCostFunction",
    "MaterializationBenefit",
    "UseCostBenefit",
    "standalone_materialization_costs",
    "mqo_decomposition",
]


class BestCostFunction(SetFunction):
    """``bc(S) = bestCost(Q, S)`` over the shareable equivalence nodes."""

    def __init__(self, engine: BestCostEngine, universe: Optional[Iterable] = None):
        self._engine = engine
        if universe is None:
            universe = engine.dag.shareable_candidates()
        self._universe = as_frozenset(universe)

    @property
    def engine(self) -> BestCostEngine:
        return self._engine

    @property
    def universe(self) -> Subset:
        return self._universe

    def value(self, subset: Iterable) -> float:
        return self._engine.cost(as_frozenset(subset))


class UseCostFunction(SetFunction):
    """``buc(S) = bestUseCost(Q, S)`` (monotonically non-increasing in ``S``)."""

    def __init__(self, engine: BestCostEngine, universe: Optional[Iterable] = None):
        self._engine = engine
        if universe is None:
            universe = engine.dag.shareable_candidates()
        self._universe = as_frozenset(universe)

    @property
    def universe(self) -> Subset:
        return self._universe

    @property
    def engine(self) -> BestCostEngine:
        return self._engine

    def value(self, subset: Iterable) -> float:
        return self._engine.use_cost(as_frozenset(subset))


class MaterializationBenefit(SetFunction):
    """``mb(S) = bc(∅) − bc(S)`` — the function the paper maximizes."""

    def __init__(self, engine: BestCostEngine, universe: Optional[Iterable] = None):
        self._best_cost = BestCostFunction(engine, universe)
        self._baseline = self._best_cost.value(frozenset())

    @property
    def baseline(self) -> float:
        """``bc(∅)``: the no-sharing (plain Volcano) cost."""
        return self._baseline

    @property
    def universe(self) -> Subset:
        return self._best_cost.universe

    def value(self, subset: Iterable) -> float:
        return self._baseline - self._best_cost.value(subset)


class UseCostBenefit(SetFunction):
    """``fM(S) = buc(∅) − buc(S)``: the monotone part of the MQO decomposition."""

    def __init__(self, engine: BestCostEngine, universe: Optional[Iterable] = None):
        self._use_cost = UseCostFunction(engine, universe)
        self._baseline = self._use_cost.value(frozenset())

    @property
    def baseline(self) -> float:
        return self._baseline

    @property
    def universe(self) -> Subset:
        return self._use_cost.universe

    def value(self, subset: Iterable) -> float:
        return self._baseline - self._use_cost.value(subset)

    def marginals(self, elements: Iterable, subset: Iterable) -> List[float]:
        """The marginals from one table move each (see
        :meth:`~repro.optimizer.best_cost.BestCostEngine.moved_use_costs`),
        as the same floats :meth:`SetFunction.marginal` computes."""
        base = as_frozenset(subset)
        elements = list(elements)
        baseline = self._baseline
        base_cost, use_costs = self._use_cost.engine.moved_use_costs(base, elements)
        return [
            0.0 if element in base else (baseline - use_cost) - (baseline - base_cost)
            for element, use_cost in zip(elements, use_costs)
        ]


def standalone_materialization_costs(
    engine: BestCostEngine, universe: Optional[Iterable] = None
) -> Dict:
    """Per-candidate cost of computing (without sharing) and writing each node."""
    if universe is None:
        universe = engine.dag.shareable_candidates()
    return engine.standalone_materialization_costs(universe)


def mqo_decomposition(
    engine: BestCostEngine,
    universe: Optional[Iterable] = None,
    kind: str = "use-cost",
) -> Decomposition:
    """Build the decomposition MarginalGreedy runs on for an MQO instance.

    Args:
        engine: the ``bestCost`` engine for the batch.
        universe: the candidate nodes (defaults to the shareable nodes).
        kind: ``"use-cost"`` for the natural MQO decomposition or
            ``"canonical"`` for the Proposition-1 decomposition of ``mb``.
    """
    if kind == "use-cost":
        monotone = UseCostBenefit(engine, universe)
        cost = AdditiveFunction(standalone_materialization_costs(engine, monotone.universe))
        original = MaterializationBenefit(engine, monotone.universe)
        return Decomposition(original=original, monotone=monotone, cost=cost)
    if kind == "canonical":
        benefit = MaterializationBenefit(engine, universe)
        return canonical_decomposition(benefit)
    raise ValueError(f"unknown decomposition kind {kind!r}; use 'use-cost' or 'canonical'")
