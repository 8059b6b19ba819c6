"""Strategy lookup: the built-in strategy classes by name."""

from __future__ import annotations

from typing import Dict, Tuple, Type

from .base import Strategy
from .builtin import (
    ExhaustiveStrategy,
    GreedyStrategy,
    MarginalGreedyStrategy,
    ShareAllStrategy,
    VolcanoStrategy,
)

__all__ = ["available_strategies", "get_strategy"]

_STRATEGIES: Dict[str, Type[Strategy]] = {
    cls.name: cls
    for cls in (
        VolcanoStrategy,
        GreedyStrategy,
        MarginalGreedyStrategy,
        ShareAllStrategy,
        ExhaustiveStrategy,
    )
}


def available_strategies() -> Tuple[str, ...]:
    """Every strategy name, baseline first."""
    return tuple(_STRATEGIES)


def get_strategy(name: str) -> Type[Strategy]:
    """The strategy class called ``name``.

    Raises:
        ValueError: with the list of valid names, when unknown.
    """
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose one of {available_strategies()}"
        ) from None
