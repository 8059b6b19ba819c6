"""The built-in materialization-selection strategies.

These are the five strategies of the reproduction, by name:

``"volcano"``
    No sharing at all — every query gets its individually optimal plan
    (``bestCost(Q, ∅)``); the baseline of the paper's experiments.
``"greedy"``
    The Greedy algorithm of Roy et al. (Algorithm 1), optionally lazy.
``"marginal-greedy"``
    The paper's MarginalGreedy algorithm (Algorithm 2) on the MQO
    decomposition, optionally lazy.
``"share-all"``
    Materialize every shareable node (the heuristic of approaches that
    materialize all common subexpressions, e.g. Silva et al.).
``"exhaustive"``
    Enumerate subsets of the candidate universe (only feasible for tiny
    universes, or with a cardinality bound; validates the greedy strategies).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..benefit import BestCostFunction, mqo_decomposition
from ..exhaustive import enumeration_size, minimize
from ..greedy import greedy, lazy_greedy
from ..marginal_greedy import lazy_marginal_greedy, marginal_greedy
from ..set_functions import CallCountingFunction
from .base import Strategy, StrategyContext, ordered_selection

__all__ = [
    "VolcanoStrategy",
    "GreedyStrategy",
    "MarginalGreedyStrategy",
    "ShareAllStrategy",
    "ExhaustiveStrategy",
]

#: Hard limit on unbounded exhaustive searches (2**16 plan evaluations).
EXHAUSTIVE_MAX_CANDIDATES = 16


class VolcanoStrategy(Strategy):
    """Materialize nothing: the plain-Volcano no-sharing baseline."""

    name = "volcano"

    def select(self, context: StrategyContext) -> Tuple:
        return ()


class GreedyStrategy(Strategy):
    """Greedy of Roy et al. driven directly by the ``bestCost`` oracle."""

    name = "greedy"

    def select(self, context: StrategyContext) -> Iterable:
        oracle = CallCountingFunction(BestCostFunction(context.engine))
        run = (lazy_greedy if context.lazy else greedy)(
            oracle, cardinality=context.cardinality
        )
        return run.selected


class MarginalGreedyStrategy(Strategy):
    """The paper's MarginalGreedy on the chosen MQO decomposition."""

    name = "marginal-greedy"

    def select(self, context: StrategyContext) -> Iterable:
        problem = mqo_decomposition(context.engine, kind=context.decomposition)
        run = (lazy_marginal_greedy if context.lazy else marginal_greedy)(
            problem, cardinality=context.cardinality
        )
        return run.selected


class ShareAllStrategy(Strategy):
    """Materialize every shareable node (cardinality-truncated if bounded)."""

    name = "share-all"

    def select(self, context: StrategyContext) -> Iterable:
        selected = ordered_selection(context.dag.shareable_nodes())
        if context.cardinality is not None:
            selected = selected[: context.cardinality]
        return selected


class ExhaustiveStrategy(Strategy):
    """Brute-force the optimal materialization set (tiny universes only).

    Without a cardinality bound the universe is limited to
    ``EXHAUSTIVE_MAX_CANDIDATES`` nodes; with a bound the search is allowed
    whenever the ``Σ_{k≤c} C(n, k)`` subsets it enumerates stay within the
    same budget, so small cardinalities remain feasible on larger DAGs.
    """

    name = "exhaustive"

    def select(self, context: StrategyContext) -> Iterable:
        oracle = BestCostFunction(context.engine)
        budget = 2 ** EXHAUSTIVE_MAX_CANDIDATES
        if enumeration_size(len(oracle.universe), context.cardinality) > budget:
            raise ValueError(
                "exhaustive strategy is limited to at most "
                f"{EXHAUSTIVE_MAX_CANDIDATES} materialization candidates "
                "(or an equivalently small cardinality-bounded search)"
            )
        best = minimize(
            oracle,
            cardinality=context.cardinality,
            max_universe=EXHAUSTIVE_MAX_CANDIDATES,
        )
        return best.best_set
