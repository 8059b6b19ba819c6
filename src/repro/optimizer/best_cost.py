"""The ``bestCost`` oracle with caching and incremental re-optimization.

Section 5.1 of the paper recalls the incremental cost-update optimization of
Roy et al.: when the greedy loop evaluates ``bestCost(X ∪ {x})`` after
having evaluated ``bestCost(X)``, only the plan-DP entries of ``x`` and of
those ancestors whose best plan changes need to be recomputed.
:class:`BestCostEngine` keeps the plan table of the empty set for its whole
life and, next to every memoized result, the entries in which that set's
table differs from it.  A new set starts from the remembered table closest
to it — fewest candidates added *or removed* — and
:meth:`~repro.optimizer.volcano.VolcanoOptimizer.best_cost` propagates the
difference upward, stopping wherever a recomputed entry costs and delivers
what the old one did.  Tables hold costs; a result builds its plan trees from
its table the first time they are read (``plans_extracted``).

The engine is deliberately oblivious to which algorithm drives it — the
Greedy and MarginalGreedy loops simply call it through a
:class:`~repro.core.set_functions.SetFunction` adapter — so the lazy and
non-lazy variants benefit equally, mirroring the paper's setup.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..cost.model import CostModel
from ..dag.sharing import BatchDag
from .volcano import BestCostResult, PlanTable, VolcanoOptimizer, split_candidate

__all__ = ["BestCostEngine", "EngineStatistics"]


@dataclass
class EngineStatistics:
    """Counters describing how the engine answered its queries.

    ``full_evaluations`` started from an empty plan table,
    ``incremental_evaluations`` from a remembered one; of the latter's
    entries ``invalidated_entries`` were re-derived.  ``dp_entries_recomputed``
    counts every entry derived (either way) and ``dp_entries_reused`` the
    entries of the evaluated tables that were taken over as they were.
    ``plans_extracted`` counts the results whose plan trees were read.
    """

    evaluations: int = 0
    result_cache_hits: int = 0
    incremental_evaluations: int = 0
    full_evaluations: int = 0
    invalidated_entries: int = 0
    dp_entries_recomputed: int = 0
    dp_entries_reused: int = 0
    plans_extracted: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class BestCostEngine:
    """Evaluate ``bestCost(Q, S)`` with result caching and incremental DP reuse.

    Args:
        dag: the combined batch DAG.
        cost_model: the cost model (defaults to the paper's parameters).
        incremental: start every evaluation from the closest remembered plan
            table; ``False`` derives every table from scratch (the reference
            the differential tests compare against).
        max_cached_results: how many ``BestCostResult`` objects (and, with
            them, plan tables) to memoize.
    """

    def __init__(
        self,
        dag: BatchDag,
        cost_model: Optional[CostModel] = None,
        *,
        incremental: bool = True,
        max_cached_results: int = 256,
    ):
        self.dag = dag
        self.optimizer = VolcanoOptimizer(dag, cost_model)
        self.incremental = incremental
        self.max_cached_results = max_cached_results
        self._statistics = EngineStatistics()
        # The engine's DP entries are keyed (group id, sort order) and remain
        # valid even when a shared memo grows after engine creation: group
        # ids are append-only, the plan DP only explores this batch's active
        # scope, and that scope is frozen once the batch's queries and the
        # subsumption pass over them are in the memo (later batches can only
        # add groups/derivations outside it).  This is what lets a persistent
        # OptimizerSession keep engines — and their caches — alive across
        # arbitrarily many batches with no invalidation protocol.
        self._empty: Optional[PlanTable] = None
        self._results: "OrderedDict[FrozenSet, Tuple[BestCostResult, Optional[PlanTable]]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------ API

    @property
    def statistics(self) -> EngineStatistics:
        """The engine's counters (trees are extracted by results, after ``evaluate``)."""
        self._statistics.plans_extracted = self.optimizer.plans_extracted
        return self._statistics

    def evaluate(self, materialized: Iterable) -> BestCostResult:
        """Return the full :class:`BestCostResult` for a materialization set."""
        key = frozenset(materialized)
        self._statistics.evaluations += 1
        cached = self._results.get(key)
        if cached is not None:
            self._statistics.result_cache_hits += 1
            self._results.move_to_end(key)
            return cached[0]
        return self._derive(key)

    def cost(self, materialized: Iterable) -> float:
        """``bestCost(Q, S)`` as a plain number (what the greedy loops consume)."""
        return self.evaluate(materialized).total_cost

    def use_cost(self, materialized: Iterable) -> float:
        """``bestUseCost(Q, S)`` — excludes the cost of computing/writing ``S``."""
        return self.evaluate(materialized).use_cost

    def volcano_cost(self) -> float:
        """The no-sharing baseline ``bestCost(Q, ∅)``."""
        return self.cost(frozenset())

    def standalone_materialization_costs(self, universe: Iterable) -> Dict:
        """Cost of computing each candidate without sharing, plus writing it to disk.

        This is the additive part of the natural MQO decomposition.  All
        candidates are costed against one shared plan-DP table (the empty
        materialization set), so the whole universe costs roughly one extra
        ``bestCost`` evaluation instead of one per node.  Sorted candidates
        additionally pay the sort needed to store the result in their order.
        """
        self.evaluate(frozenset())  # the decomposition's bc(∅) query; builds ∅'s table
        table = self._empty if self.incremental else PlanTable()
        return {
            element: self.optimizer.materialization_cost(*split_candidate(element), table)
            for element in universe
        }

    # ------------------------------------------------------------- internals

    def _derive(self, key: FrozenSet) -> BestCostResult:
        """Answer a result-cache miss with one ``best_cost`` call."""
        table = self._start_table(key)
        result = self.optimizer.best_cost(key, cache=table)
        statistics = self._statistics
        statistics.invalidated_entries += table.invalidated
        statistics.dp_entries_recomputed += table.recomputed
        statistics.dp_entries_reused += table.size() - table.recomputed
        self._results[key] = (result, table if self.incremental else None)
        while len(self._results) > self.max_cached_results:
            self._results.popitem(last=False)
        return result

    def _start_table(self, key: FrozenSet) -> PlanTable:
        """The plan table ``best_cost`` should move to ``key``."""
        if not self.incremental:
            self._statistics.full_evaluations += 1
            return PlanTable()
        if self._empty is None:
            if not key:
                self._statistics.full_evaluations += 1
                self._empty = PlanTable()
                return self._empty
            self._derive(frozenset())  # every other table is held against ∅'s
        base, distance = self._empty, len(key)
        for other, (_, table) in reversed(self._results.items()):
            difference = len(key ^ other)
            if difference < distance:
                base, distance = table, difference
                if distance == 1:
                    break
        self._statistics.incremental_evaluations += 1
        return base.fork()
