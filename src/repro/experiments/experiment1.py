"""Experiment 1: batched TPCD queries (Figure 4 of the paper).

For the composite batches BQ1–BQ6 (Q3, Q5, Q7, Q8, Q9, Q10 each repeated
twice with different selection constants) and for both database scales
(1GB and 100GB), the experiment reports

* the estimated cost of the consolidated plan produced by plain Volcano
  (no MQO), Greedy and MarginalGreedy  (Figures 4a and 4b),
* the number of nodes each algorithm chose to materialize (the numbers on
  top of the bars in the paper's figures), and
* the optimization time of each algorithm (Figure 4c), and
* what that time buys (the Section 5 optimizations): per algorithm, lazy
  and eager, how many ``bestCost`` calls it made, how many of them had to
  build a plan table from nothing rather than update a remembered one, and
  how many plan-DP entries were recomputed versus taken over — beside a
  column checking that the incremental engine's answer equals the
  from-scratch one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..catalog.tpcd import tpcd_catalog
from ..cost.model import CostModel, CostParameters
from ..service.session import OptimizerSession
from ..workloads.batches import COMPOSITE_BATCH_NAMES, composite_batch
from .reporting import ResultTable

__all__ = [
    "Experiment1Row",
    "EfficiencyRow",
    "Experiment1Results",
    "run_experiment1",
    "DEFAULT_STRATEGIES",
]

DEFAULT_STRATEGIES: Tuple[str, ...] = ("volcano", "greedy", "marginal-greedy")


@dataclass(frozen=True)
class Experiment1Row:
    """One (batch, scale, strategy) measurement."""

    batch: str
    scale_factor: float
    strategy: str
    estimated_cost_s: float
    volcano_cost_s: float
    materialized_nodes: int
    optimization_time_s: float
    best_cost_calls: int

    @property
    def improvement(self) -> float:
        if self.volcano_cost_s <= 0:
            return 0.0
        return 1.0 - self.estimated_cost_s / self.volcano_cost_s


@dataclass(frozen=True)
class EfficiencyRow:
    """What one cold (batch, strategy, lazy/eager) run cost the ``bestCost`` oracle."""

    batch: str
    strategy: str
    lazy: bool
    optimization_time_s: float
    best_cost_calls: int
    result_cache_hits: int
    full_evaluations: int
    incremental_evaluations: int
    dp_entries_recomputed: int
    dp_entries_reused: int
    plans_extracted: int
    #: The from-scratch engine chose the same nodes at the same total cost.
    matches_full: bool


@dataclass
class Experiment1Results:
    """All measurements plus the figure-by-figure views."""

    rows: List[Experiment1Row] = field(default_factory=list)
    efficiency: List[EfficiencyRow] = field(default_factory=list)

    def _scale_rows(self, scale_factor: float) -> List[Experiment1Row]:
        return [r for r in self.rows if r.scale_factor == scale_factor]

    def _cost_table(self, scale_factor: float, title: str) -> ResultTable:
        strategies = sorted({r.strategy for r in self._scale_rows(scale_factor)},
                            key=lambda s: DEFAULT_STRATEGIES.index(s) if s in DEFAULT_STRATEGIES else 99)
        columns = ["batch"]
        for strategy in strategies:
            columns.append(f"{strategy} cost (s)")
            if strategy != "volcano":
                columns.append(f"{strategy} #mat")
        table = ResultTable(title, columns)
        batches = sorted({r.batch for r in self._scale_rows(scale_factor)})
        for batch in batches:
            cells: List = [batch]
            for strategy in strategies:
                row = self._find(batch, scale_factor, strategy)
                cells.append(row.estimated_cost_s if row else None)
                if strategy != "volcano":
                    cells.append(row.materialized_nodes if row else None)
            table.add_row(*cells)
        table.notes = (
            "Estimated consolidated-plan cost (seconds of the paper's resource-"
            "consumption cost model); #mat is the number of materialized nodes."
        )
        return table

    def figure_4a(self) -> ResultTable:
        """Figure 4a: estimated costs for the 1GB database."""
        return self._cost_table(1.0, "Figure 4a — Batched TPCD queries, 1GB total size")

    def figure_4b(self) -> ResultTable:
        """Figure 4b: estimated costs for the 100GB database."""
        return self._cost_table(100.0, "Figure 4b — Batched TPCD queries, 100GB total size")

    def figure_4c(self) -> ResultTable:
        """Figure 4c: optimization times (the paper plots these in logscale)."""
        strategies = sorted({r.strategy for r in self.rows},
                            key=lambda s: DEFAULT_STRATEGIES.index(s) if s in DEFAULT_STRATEGIES else 99)
        scale = min({r.scale_factor for r in self.rows}) if self.rows else 1.0
        table = ResultTable(
            "Figure 4c — Optimization time (seconds)",
            ["batch"] + [f"{s} opt time (s)" for s in strategies],
        )
        for batch in sorted({r.batch for r in self.rows}):
            cells: List = [batch]
            for strategy in strategies:
                row = self._find(batch, scale, strategy)
                cells.append(row.optimization_time_s if row else None)
            table.add_row(*cells)
        table.notes = "Optimization (CPU) time of the materialization-selection phase."
        return table

    def efficiency_table(self) -> ResultTable:
        """The Section 5 optimizations at work: oracle calls and DP entries."""
        table = ResultTable(
            "Efficiency of bestCost — cold runs, incremental engine",
            [
                "batch",
                "strategy",
                "variant",
                "opt time (s)",
                "bestCost calls",
                "cached",
                "full",
                "incremental",
                "DP recomputed",
                "DP reused",
                "trees",
                "= from scratch",
            ],
        )
        for row in self.efficiency:
            table.add_row(
                row.batch,
                row.strategy,
                "lazy" if row.lazy else "eager",
                row.optimization_time_s,
                row.best_cost_calls,
                row.result_cache_hits,
                row.full_evaluations,
                row.incremental_evaluations,
                row.dp_entries_recomputed,
                row.dp_entries_reused,
                row.plans_extracted,
                "yes" if row.matches_full else "NO",
            )
        table.notes = (
            "Of the bestCost calls, 'cached' were answered from the result cache, "
            "'full' built a plan table from nothing and 'incremental' updated a "
            "remembered one; DP entries are (group, sort order) plan-table entries and "
            "'trees' the sets whose plan trees were extracted from them. "
            "'= from scratch': BestCostEngine(incremental=False) picks the same "
            "nodes at the same total cost."
        )
        return table

    def tables(self) -> List[ResultTable]:
        result = []
        if self._scale_rows(1.0):
            result.append(self.figure_4a())
        if self._scale_rows(100.0):
            result.append(self.figure_4b())
        if self.rows:
            result.append(self.figure_4c())
        if self.efficiency:
            result.append(self.efficiency_table())
        return result

    def _find(self, batch: str, scale: float, strategy: str) -> Optional[Experiment1Row]:
        for row in self.rows:
            if row.batch == batch and row.scale_factor == scale and row.strategy == strategy:
                return row
        return None


def run_experiment1(
    *,
    scale_factors: Sequence[float] = (1.0, 100.0),
    max_batches: int = 6,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    cost_parameters: Optional[CostParameters] = None,
    lazy: bool = True,
    verbose: bool = False,
) -> Experiment1Results:
    """Run Experiment 1 and return the per-figure result tables.

    Args:
        scale_factors: database scales to evaluate (1 = 1GB, 100 = 100GB).
        max_batches: how many composite batches to run (6 = BQ1 … BQ6).
        strategies: the strategies to compare.
        cost_parameters: optional override of the cost-model calibration
            (e.g. ``CostParameters().with_memory(128 * 1024 * 1024)``).
        lazy: use the lazy (heap-accelerated) greedy variants.
        verbose: print each measurement as it is produced.
    """
    results = Experiment1Results()
    cost_model = CostModel(cost_parameters if cost_parameters is not None else CostParameters())
    for scale in scale_factors:
        catalog = tpcd_catalog(scale)
        # One serving session per strategy: the composite batches BQ1 ⊂ BQ2 ⊂ …
        # overlap heavily, so each batch only pays for its new queries, while
        # the reported optimization times stay per-strategy (a shared session
        # would let one strategy's warm bestCost caches speed up the next).
        sessions = {s: OptimizerSession(catalog, cost_model) for s in strategies}
        for index in range(1, max_batches + 1):
            batch = composite_batch(index)
            for strategy in strategies:
                result = sessions[strategy].optimize(batch, strategy=strategy, lazy=lazy)
                row = Experiment1Row(
                    batch=batch.name,
                    scale_factor=float(scale),
                    strategy=strategy,
                    estimated_cost_s=result.total_cost / 1000.0,
                    volcano_cost_s=result.volcano_cost / 1000.0,
                    materialized_nodes=result.materialized_count,
                    optimization_time_s=result.optimization_time,
                    best_cost_calls=result.oracle_calls,
                )
                results.rows.append(row)
                if verbose:
                    print(
                        f"[experiment1] scale={scale:g} {batch.name} {strategy:16s} "
                        f"cost={row.estimated_cost_s:10.1f}s mat={row.materialized_nodes:3d} "
                        f"opt={row.optimization_time_s:6.2f}s"
                    )
    # The efficiency table: every selecting strategy, lazy and eager, each in
    # a fresh session (cold caches) at the smallest scale.
    catalog = tpcd_catalog(min(scale_factors))
    for index in range(1, max_batches + 1):
        batch = composite_batch(index)
        for strategy in strategies:
            if strategy == "volcano":
                continue
            for variant in (True, False):
                results.efficiency.append(
                    _measure_efficiency(catalog, cost_model, batch, strategy, variant)
                )
    return results


def _measure_efficiency(catalog, cost_model, batch, strategy: str, lazy: bool) -> EfficiencyRow:
    session = OptimizerSession(catalog, cost_model)
    result = session.optimize(batch, strategy=strategy, lazy=lazy)
    counters = session.obs.registry.snapshot()["counters"]
    reference = OptimizerSession(catalog, cost_model, incremental=False).optimize(
        batch, strategy=strategy, lazy=lazy
    )
    return EfficiencyRow(
        batch=batch.name,
        strategy=strategy,
        lazy=lazy,
        optimization_time_s=result.optimization_time,
        best_cost_calls=result.oracle_calls,
        result_cache_hits=counters["optimizer_result_cache_hits"],
        full_evaluations=counters["optimizer_full_evaluations"],
        incremental_evaluations=counters["optimizer_incremental_evaluations"],
        dp_entries_recomputed=counters["optimizer_dp_entries_recomputed"],
        dp_entries_reused=counters["optimizer_dp_entries_reused"],
        plans_extracted=counters["optimizer_plans_extracted"],
        matches_full=(
            reference.materialized == result.materialized
            and reference.total_cost == result.total_cost
        ),
    )
