"""Materialization-selection strategies.

The package splits strategy *selection* (which nodes to materialize) from
the surrounding machinery (DAG construction, final cost evaluation, result
assembly, all in :func:`repro.core.mqo.run_strategy`).  Strategies are
looked up by name with :func:`get_strategy`; :func:`available_strategies`
lists the names.
"""

from .base import Strategy, StrategyContext, ordered_selection
from .registry import available_strategies, get_strategy
from .builtin import (
    ExhaustiveStrategy,
    GreedyStrategy,
    MarginalGreedyStrategy,
    ShareAllStrategy,
    VolcanoStrategy,
)

__all__ = [
    "Strategy",
    "StrategyContext",
    "ordered_selection",
    "available_strategies",
    "get_strategy",
    "VolcanoStrategy",
    "GreedyStrategy",
    "MarginalGreedyStrategy",
    "ShareAllStrategy",
    "ExhaustiveStrategy",
]
