"""Empirical verification of Theorem 1 on the hardness-style instances.

The paper proves that MarginalGreedy achieves
``f(X) ≥ [1 − (c(Θ)/f(Θ)) ln(1 + f(Θ)/c(Θ))] · f(Θ)`` and that no
polynomial algorithm can do better (Theorem 2, via Profitted Max Coverage).
This experiment measures, on random Profitted Max Coverage instances and on
random weighted-coverage UNSM instances, how close MarginalGreedy actually
gets to the exhaustive optimum and how much slack the Theorem-1 bound
leaves.  The paper has no corresponding figure (the result is a proof); the
table here is the empirical counterpart used to validate the
implementation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.coverage import ProfittedMaxCoverage, perfect_cover_instance, random_instance
from ..core.exhaustive import maximize
from ..core.marginal_greedy import marginal_greedy, theorem1_bound, theorem1_factor
from .reporting import ResultTable

__all__ = ["TheoryRow", "TheoryResults", "run_theory_experiment"]


@dataclass(frozen=True)
class TheoryRow:
    """One instance: the optimum, the greedy value and the Theorem-1 bound."""

    instance: str
    n_subsets: int
    gamma: float
    optimum: float
    greedy_value: float
    theorem1_guarantee: float

    @property
    def achieved_ratio(self) -> float:
        if self.optimum <= 0:
            return 1.0
        return self.greedy_value / self.optimum

    @property
    def bound_satisfied(self) -> bool:
        return self.greedy_value >= self.theorem1_guarantee - 1e-9


@dataclass
class TheoryResults:
    rows: List[TheoryRow] = field(default_factory=list)

    @property
    def all_bounds_satisfied(self) -> bool:
        return all(row.bound_satisfied for row in self.rows)

    @property
    def mean_achieved_ratio(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.achieved_ratio for r in self.rows) / len(self.rows)

    def table(self) -> ResultTable:
        table = ResultTable(
            "Theorem 1 — MarginalGreedy vs optimum on Profitted Max Coverage",
            [
                "instance",
                "m",
                "gamma",
                "optimum f(Θ)",
                "greedy f(X)",
                "Thm-1 guarantee",
                "achieved/opt",
                "bound ok",
            ],
        )
        for row in self.rows:
            table.add_row(
                row.instance,
                row.n_subsets,
                round(row.gamma, 3),
                round(row.optimum, 4),
                round(row.greedy_value, 4),
                round(row.theorem1_guarantee, 4),
                round(row.achieved_ratio, 4),
                "yes" if row.bound_satisfied else "NO",
            )
        table.notes = (
            "greedy f(X) must always be at least the Theorem-1 guarantee; the "
            "achieved ratio shows how much slack the worst-case bound leaves."
        )
        return table


def run_theory_experiment(
    *,
    n_random_instances: int = 10,
    n_perfect_instances: int = 5,
    seed: int = 7,
    gammas: Sequence[float] = (1.0, 2.0, 4.0),
) -> TheoryResults:
    """Run MarginalGreedy on random hardness-style instances and check Theorem 1."""
    rng = random.Random(seed)
    results = TheoryResults()

    def measure(label: str, problem: ProfittedMaxCoverage) -> None:
        decomposition = problem.decomposition()
        optimum = maximize(decomposition.original)
        greedy = marginal_greedy(decomposition)
        c_opt = decomposition.cost.value(optimum.best_set)
        guarantee = theorem1_bound(max(optimum.best_value, 0.0), c_opt)
        results.rows.append(
            TheoryRow(
                instance=label,
                n_subsets=problem.instance.n_subsets,
                gamma=problem.gamma,
                optimum=optimum.best_value,
                greedy_value=greedy.value,
                theorem1_guarantee=guarantee,
            )
        )

    for i in range(n_random_instances):
        gamma = gammas[i % len(gammas)]
        instance = random_instance(
            n_elements=rng.randint(10, 16),
            n_subsets=rng.randint(5, 9),
            budget=rng.randint(2, 4),
            density=rng.uniform(0.2, 0.5),
            seed=rng.randint(0, 10_000),
        )
        measure(f"random-{i}", ProfittedMaxCoverage(instance, gamma=gamma))

    for i in range(n_perfect_instances):
        gamma = gammas[i % len(gammas)]
        instance = perfect_cover_instance(
            n_elements=12,
            cover_size=3,
            n_decoys=rng.randint(2, 5),
            seed=rng.randint(0, 10_000),
        )
        measure(f"perfect-{i}", ProfittedMaxCoverage(instance, gamma=gamma))

    return results
