"""The outcome of one strategy run, and the runner that produces it.

:func:`run_strategy` runs one materialization-selection strategy against a
batch DAG and its ``bestCost`` engine and assembles the :class:`MQOResult`.
The serving layer (:class:`~repro.service.session.OptimizerSession`) calls
it for every batch; a one-shot optimization pairs it with
:func:`~repro.dag.sharing.build_batch_dag` and a fresh
:class:`~repro.optimizer.best_cost.BestCostEngine`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..dag.sharing import BatchDag
from ..optimizer.best_cost import BestCostEngine
from ..optimizer.volcano import BestCostResult
from .strategies import StrategyContext, get_strategy, ordered_selection

__all__ = ["MQOResult", "run_strategy"]


@dataclass
class MQOResult:
    """The outcome of optimizing one batch with one strategy."""

    strategy: str
    batch_name: str
    total_cost: float
    volcano_cost: float
    materialized: Tuple[int, ...]
    materialized_labels: Tuple[str, ...]
    optimization_time: float
    oracle_calls: int
    query_costs: Dict[str, float]
    plan: BestCostResult
    dag_summary: Dict[str, int]
    #: uid of the memo the plans' group ids refer to.
    memo_uid: int

    @property
    def benefit(self) -> float:
        """Materialization benefit ``bc(∅) − bc(X)``."""
        return self.volcano_cost - self.total_cost

    @property
    def improvement(self) -> float:
        """Relative improvement over the plain Volcano baseline (0..1)."""
        if self.volcano_cost <= 0:
            return 0.0
        return self.benefit / self.volcano_cost

    @property
    def materialized_count(self) -> int:
        return len(self.materialized)

    def summary(self) -> str:
        lines = [
            f"strategy            : {self.strategy}",
            f"batch               : {self.batch_name}",
            f"estimated cost      : {self.total_cost / 1000.0:.2f} s",
            f"volcano (no MQO)    : {self.volcano_cost / 1000.0:.2f} s",
            f"benefit             : {self.benefit / 1000.0:.2f} s ({self.improvement:.1%})",
            f"materialized nodes  : {self.materialized_count}",
            f"optimization time   : {self.optimization_time:.3f} s",
            f"bestCost calls      : {self.oracle_calls}",
        ]
        for label in self.materialized_labels:
            lines.append(f"  * {label}")
        return "\n".join(lines)


def run_strategy(
    dag: BatchDag,
    engine: BestCostEngine,
    *,
    batch_name: str,
    strategy: str = "marginal-greedy",
    lazy: bool = True,
    cardinality: Optional[int] = None,
    decomposition: str = "use-cost",
) -> MQOResult:
    """Run one strategy against a pre-built DAG and engine.

    It looks the strategy up by name, evaluates the selection, falls back
    to the no-sharing plan when materializing does not pay off, and
    assembles the :class:`MQOResult`.
    """
    strategy_cls = get_strategy(strategy)
    start = time.perf_counter()
    calls_before = engine.statistics.evaluations

    volcano_cost = engine.volcano_cost()
    context = StrategyContext(
        dag=dag,
        engine=engine,
        lazy=lazy,
        cardinality=cardinality,
        decomposition=decomposition,
    )
    selected = ordered_selection(strategy_cls().select(context))

    result = engine.evaluate(frozenset(selected))
    if result.total_cost > volcano_cost and strategy != "volcano":
        # The final plan choice is cost-based: if the selected
        # materializations do not pay off (possible for share-all, and in
        # principle for marginal-greedy whose additive cost part is only
        # an approximation), fall back to the no-sharing plan.
        selected = ()
        result = engine.evaluate(frozenset())
    elapsed = time.perf_counter() - start
    calls = engine.statistics.evaluations - calls_before

    return MQOResult(
        strategy=strategy,
        batch_name=batch_name,
        total_cost=result.total_cost,
        volcano_cost=volcano_cost,
        materialized=selected,
        materialized_labels=tuple(dag.describe_candidate(g) for g in selected),
        optimization_time=elapsed,
        oracle_calls=calls,
        query_costs={name: plan.cost for name, plan in result.query_plans.items()},
        plan=result,
        dag_summary=dag.summary(),
        memo_uid=dag.memo.uid,
    )
