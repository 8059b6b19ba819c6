"""Example 1 / Figure 1 of the paper, reproduced on the synthetic A,B,C,D catalog.

The paper's introductory example: two queries ``A ⋈ B ⋈ C`` and
``B ⋈ C ⋈ D`` whose locally optimal plans share nothing, but materializing
``B ⋈ C`` once and reading it from both queries gives a cheaper
consolidated plan (460 vs 370 cost units in the paper's illustrative
numbers).  Our cost model is the TPCD resource-consumption model rather
than the paper's unit costs, so the absolute values differ, but the
qualitative conclusion — the shared plan beats the locally optimal plans,
and the node picked is ``B ⋈ C`` — is what this module checks and reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.mqo import MQOResult
from ..service.session import OptimizerSession
from ..workloads.synthetic import example1_batch, example1_catalog
from .reporting import ResultTable

__all__ = ["Example1Outcome", "run_example1"]


@dataclass(frozen=True)
class Example1Outcome:
    """Costs of the no-sharing plan vs the consolidated shared plan."""

    volcano_cost: float
    shared_cost: float
    materialized_labels: Tuple[str, ...]
    results: Dict[str, MQOResult]

    @property
    def sharing_wins(self) -> bool:
        return self.shared_cost < self.volcano_cost

    @property
    def shares_b_join_c(self) -> bool:
        """Whether the algorithm chose to materialize the ``B ⋈ C`` subexpression."""
        return any("b ⋈ c" in label.lower() for label in self.materialized_labels)

    def table(self) -> ResultTable:
        table = ResultTable(
            "Example 1 (Figure 1) — sharing B ⋈ C between A⋈B⋈C and B⋈C⋈D",
            ["plan", "estimated cost (ms)"],
        )
        table.add_row("locally optimal plans (no sharing)", self.volcano_cost)
        table.add_row("consolidated plan with sharing", self.shared_cost)
        table.notes = "Materialized: " + (", ".join(self.materialized_labels) or "(nothing)")
        return table


def run_example1(
    large_rows: int = 2_000_000, small_rows: int = 10_000, strategy: str = "greedy"
) -> Example1Outcome:
    """Optimize the Example-1 batch and report both plan costs."""
    catalog = example1_catalog(large_rows=large_rows, small_rows=small_rows)
    batch = example1_batch()
    results = OptimizerSession(catalog).compare(batch, strategies=("volcano", strategy))
    shared = results[strategy]
    return Example1Outcome(
        volcano_cost=results["volcano"].total_cost,
        shared_cost=shared.total_cost,
        materialized_labels=shared.materialized_labels,
        results=results,
    )
