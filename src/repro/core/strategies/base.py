"""The common protocol every materialization-selection strategy implements.

A *strategy* answers one question: given the combined DAG of a batch and a
``bestCost`` engine over it, which equivalence nodes (with which stored sort
orders) should be materialized?  Everything around that decision — building
the DAG, evaluating the final plan, falling back to the no-sharing plan when
the selection does not pay off, assembling the :class:`~repro.core.mqo.MQOResult`
— is shared runner logic in :func:`repro.core.mqo.run_strategy`.

Strategies are stateless classes with a unique :attr:`Strategy.name`;
:mod:`repro.core.strategies.registry` maps the names to the classes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional, Tuple

from ...dag.sharing import BatchDag
from ...optimizer.best_cost import BestCostEngine

__all__ = ["Strategy", "StrategyContext", "ordered_selection"]


@dataclass(frozen=True)
class StrategyContext:
    """Everything a strategy may consult when picking nodes to materialize.

    Attributes:
        dag: the combined AND-OR DAG of the batch.
        engine: the ``bestCost`` oracle over the DAG (caching, incremental).
        lazy: prefer the lazy (heap-accelerated) greedy variants.
        cardinality: optional upper bound on how many nodes to materialize.
        decomposition: which MQO decomposition MarginalGreedy runs on
            (``"use-cost"`` or ``"canonical"``).
    """

    dag: BatchDag
    engine: BestCostEngine
    lazy: bool = True
    cardinality: Optional[int] = None
    decomposition: str = "use-cost"


class Strategy(ABC):
    """A materialization-selection strategy.

    Subclasses set :attr:`name` (the lookup key, also shown in results)
    and implement :meth:`select`.  Instances must be stateless with respect
    to the batch.
    """

    #: Unique strategy name, e.g. ``"marginal-greedy"``.
    name: ClassVar[str] = ""

    @abstractmethod
    def select(self, context: StrategyContext) -> Iterable:
        """Return the materialization candidates chosen for this batch.

        Elements may be bare group ids or
        :class:`~repro.dag.sharing.MaterializationChoice` objects; the runner
        normalizes and orders them before the final cost evaluation.
        """


def ordered_selection(elements: Iterable) -> Tuple:
    """Deterministic ordering of a selection (by group id, then sort order)."""
    return tuple(
        sorted(
            elements,
            key=lambda e: (getattr(e, "group", e), str(getattr(e, "order", ""))),
        )
    )
