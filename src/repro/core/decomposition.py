"""Decompositions of normalized submodular functions (Propositions 1 and 2).

Any normalized (``f(∅)=0``) submodular function — even one taking negative
values — can be written as ``f = fM − c`` with ``fM`` monotone submodular
and ``c`` additive (Proposition 1 of the paper).  The MarginalGreedy
algorithm operates on such a decomposition, and its approximation factor
depends on the additive part ``c``; Proposition 2 shows the canonical
decomposition

    c*(S) = Σ_{e∈S} (f(U\\{e}) − f(U)),      f*M = f + c*

is the best possible one (it is a fixed point of the improvement step that
makes the factor of any other decomposition at least as good).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from .set_functions import (
    AdditiveFunction,
    Element,
    SetFunction,
    Subset,
    SumFunction,
    as_frozenset,
)

__all__ = [
    "Decomposition",
    "canonical_decomposition",
    "decomposition_from_parts",
    "improve_decomposition",
    "verify_decomposition",
]


@dataclass(frozen=True)
class Decomposition:
    """A decomposition ``f(S) = monotone(S) − cost(S)`` of a set function.

    Attributes:
        original: the function being decomposed (used for evaluation and
            for reporting ``f`` values; the greedy ratio only touches
            ``monotone`` and ``cost``).
        monotone: the monotone submodular part ``fM``.
        cost: the additive part ``c``.
    """

    original: SetFunction
    monotone: SetFunction
    cost: AdditiveFunction

    @property
    def universe(self) -> Subset:
        return self.original.universe

    def value(self, subset: Iterable[Element]) -> float:
        """Evaluate the original function ``f`` on ``subset``."""
        return self.original.value(subset)

    def monotone_marginal(self, element: Element, subset: Iterable[Element]) -> float:
        """The paper's ``f'M(e, S)``."""
        return self.monotone.marginal(element, subset)

    def element_cost(self, element: Element) -> float:
        """The additive cost ``c({e})`` of a single element."""
        return self.cost.weight(element)

    def ratio(self, element: Element, subset: Iterable[Element]) -> float:
        """The marginal-benefit-to-cost ratio ``r(e, S) = f'M(e,S)/c({e})``.

        Elements with non-positive cost have an infinite ratio (they are
        appended unconditionally by MarginalGreedy at the end of the run).
        """
        cost = self.element_cost(element)
        if cost <= 0.0:
            return float("inf")
        return self.monotone_marginal(element, subset) / cost

    def negative_cost_elements(self) -> Subset:
        """Elements whose additive cost is negative (added for free at the end)."""
        return frozenset(e for e in self.universe if self.element_cost(e) < 0.0)

    def consistency_error(self, subset: Iterable[Element]) -> float:
        """``|f(S) − (fM(S) − c(S))|`` for the given subset."""
        key = as_frozenset(subset)
        return abs(self.original.value(key) - (self.monotone.value(key) - self.cost.value(key)))


def decomposition_from_parts(
    monotone: SetFunction, cost: AdditiveFunction, original: Optional[SetFunction] = None
) -> Decomposition:
    """Build a :class:`Decomposition` from explicit ``fM`` and ``c`` parts.

    If ``original`` is omitted it is reconstructed as ``fM − c``.
    """
    if monotone.universe != cost.universe:
        raise ValueError("monotone part and cost part must share the same universe")
    if original is None:
        original = monotone - cost
    return Decomposition(original=original, monotone=monotone, cost=cost)


def canonical_decomposition(func: SetFunction) -> Decomposition:
    """The Proposition-1 decomposition ``(f*M, c*)`` of a normalized submodular ``f``.

    ``c*({e}) = f(U\\{e}) − f(U)`` and ``f*M = f + c*``.  Computing it takes
    exactly ``n + 1`` evaluations of ``f`` (on ``U`` and on each ``U\\{e}``),
    as noted in Section 3 of the paper.
    """
    universe = func.universe
    full_value = func.value(universe)
    weights: Dict[Element, float] = {}
    for element in sorted(universe, key=repr):  # oracle calls in an order hashing cannot change
        weights[element] = func.value(universe - {element}) - full_value
    cost = AdditiveFunction(weights)
    monotone = SumFunction(func, cost)
    return Decomposition(original=func, monotone=monotone, cost=cost)


def improve_decomposition(decomposition: Decomposition) -> Decomposition:
    """Apply the Proposition-2 improvement step to a decomposition.

    Given ``(fM, c)``, subtract the linear function
    ``d(S) = Σ_{i∈S} (fM(U) − fM(U\\{i}))`` from both parts.  The new
    monotone part stays monotone (by submodularity of ``fM``) and the
    approximation factor can only improve.  The canonical decomposition is a
    fixed point of this map.
    """
    monotone = decomposition.monotone
    universe = decomposition.universe
    full_value = monotone.value(universe)
    shifts: Dict[Element, float] = {
        element: full_value - monotone.value(universe - {element}) for element in universe
    }
    shift_fn = AdditiveFunction(shifts)
    new_cost = AdditiveFunction(
        {e: decomposition.cost.weight(e) - shifts[e] for e in universe}
    )
    new_monotone = monotone - shift_fn
    return Decomposition(
        original=decomposition.original, monotone=new_monotone, cost=new_cost
    )


def verify_decomposition(
    decomposition: Decomposition,
    *,
    exhaustive: bool = True,
    tol: float = 1e-6,
) -> bool:
    """Check that a decomposition is valid.

    Validity means (i) ``f(S) = fM(S) − c(S)`` on every checked subset,
    (ii) ``fM`` is monotone and (iii) ``c`` is additive (true by
    construction for :class:`AdditiveFunction`).  With ``exhaustive=True``
    every subset is checked, so this is only suitable for small universes.
    """
    if exhaustive:
        from .set_functions import all_subsets

        for subset in all_subsets(decomposition.universe):
            if decomposition.consistency_error(subset) > tol:
                return False
        if not decomposition.monotone.is_monotone(tol=tol):
            return False
        return True
    # Spot-check: empty set, full set, singletons.
    probes = [frozenset(), decomposition.universe]
    probes.extend(frozenset({e}) for e in decomposition.universe)
    return all(decomposition.consistency_error(p) <= tol for p in probes)
