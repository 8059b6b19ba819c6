"""The paper's contribution: provable multi-query optimization via UNSM.

This package contains the algorithmic core of the reproduction:

* :mod:`repro.core.set_functions` — set-function abstractions and checks,
* :mod:`repro.core.decomposition` — Proposition 1/2 decompositions,
* :mod:`repro.core.marginal_greedy` — MarginalGreedy and LazyMarginalGreedy
  (Algorithm 2, Theorem 1, Section 5 speed-ups),
* :mod:`repro.core.greedy` — the Greedy baseline of Roy et al. (Algorithm 1),
* :mod:`repro.core.pruning` — Theorem 4 universe reduction,
* :mod:`repro.core.exhaustive` — brute-force optima for verification,
* :mod:`repro.core.coverage` — Max Coverage / Profitted Max Coverage
  (the Section 4 hardness construction),
* :mod:`repro.core.benefit` — the materialization-benefit oracle bridging
  the optimizer's ``bestCost`` to UNSM,
* :mod:`repro.core.strategies` — the materialization-selection strategies,
  looked up by name,
* :mod:`repro.core.mqo` — :func:`run_strategy` and its :class:`MQOResult`
  (see :mod:`repro.service` for the optimizer session that calls it).
"""

from .set_functions import (
    AdditiveFunction,
    CachedSetFunction,
    CallCountingFunction,
    LambdaSetFunction,
    SetFunction,
    TabularSetFunction,
    all_subsets,
)
from .decomposition import (
    Decomposition,
    canonical_decomposition,
    decomposition_from_parts,
    improve_decomposition,
    verify_decomposition,
)
from .marginal_greedy import (
    MarginalGreedyResult,
    lazy_marginal_greedy,
    marginal_greedy,
    theorem1_bound,
    theorem1_factor,
)
from .greedy import GreedyResult, greedy, lazy_greedy
from .pruning import PruningReport, prune_universe
from .exhaustive import ExhaustiveResult, maximize, minimize
from .coverage import (
    CoverageFunction,
    MaxCoverageInstance,
    ProfittedMaxCoverage,
    greedy_max_coverage,
    greedy_set_cover,
    perfect_cover_instance,
    random_instance,
)
from .benefit import (
    BestCostFunction,
    MaterializationBenefit,
    UseCostBenefit,
    UseCostFunction,
    mqo_decomposition,
    standalone_materialization_costs,
)
from .mqo import MQOResult, run_strategy
from .strategies import Strategy, StrategyContext, available_strategies, get_strategy

__all__ = [
    "BestCostFunction",
    "MaterializationBenefit",
    "UseCostBenefit",
    "UseCostFunction",
    "mqo_decomposition",
    "standalone_materialization_costs",
    "MQOResult",
    "run_strategy",
    "Strategy",
    "StrategyContext",
    "available_strategies",
    "get_strategy",
    "AdditiveFunction",
    "CachedSetFunction",
    "CallCountingFunction",
    "LambdaSetFunction",
    "SetFunction",
    "TabularSetFunction",
    "all_subsets",
    "Decomposition",
    "canonical_decomposition",
    "decomposition_from_parts",
    "improve_decomposition",
    "verify_decomposition",
    "MarginalGreedyResult",
    "lazy_marginal_greedy",
    "marginal_greedy",
    "theorem1_bound",
    "theorem1_factor",
    "GreedyResult",
    "greedy",
    "lazy_greedy",
    "PruningReport",
    "prune_universe",
    "ExhaustiveResult",
    "maximize",
    "minimize",
    "CoverageFunction",
    "MaxCoverageInstance",
    "ProfittedMaxCoverage",
    "greedy_max_coverage",
    "greedy_set_cover",
    "perfect_cover_instance",
    "random_instance",
]

