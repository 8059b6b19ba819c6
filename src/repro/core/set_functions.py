"""Set functions and the structural properties used throughout the paper.

The MQO reformulation of Kathuria & Sudarshan treats the materialization
benefit ``mb(S) = bestCost(∅) − bestCost(S)`` as a *normalized submodular*
set function that may take negative values.  Everything in
:mod:`repro.core` is written against the small abstraction in this module:
a :class:`SetFunction` is a real-valued function on subsets of a finite
universe, and the algorithms only ever interact with it through
:meth:`SetFunction.value` and :meth:`SetFunction.marginal`.

The module also provides exhaustive property checkers (submodularity,
supermodularity, monotonicity, additivity, normalization) used by the test
suite and by the property-based tests, plus a handful of concrete function
families (additive, tabular, callable-backed) and wrappers (caching,
call-counting, scaling, restriction).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping
from typing import Callable, Dict, FrozenSet, Hashable, Iterator, List, Optional, Tuple

Element = Hashable
Subset = FrozenSet[Element]

__all__ = [
    "Element",
    "Subset",
    "SetFunction",
    "TabularSetFunction",
    "AdditiveFunction",
    "LambdaSetFunction",
    "CachedSetFunction",
    "CallCountingFunction",
    "ScaledFunction",
    "ShiftedFunction",
    "SumFunction",
    "DifferenceFunction",
    "RestrictedFunction",
    "all_subsets",
    "as_frozenset",
]


def as_frozenset(items: Iterable[Element]) -> Subset:
    """Return ``items`` as a :class:`frozenset` (identity for frozensets)."""
    if isinstance(items, frozenset):
        return items
    return frozenset(items)


def all_subsets(universe: Iterable[Element]) -> Iterator[Subset]:
    """Yield every subset of ``universe`` (the empty set first).

    Only intended for small universes (exhaustive checks, brute-force
    optima); the number of subsets is ``2**len(universe)``.
    """
    elements = sorted(universe, key=repr)
    for size in range(len(elements) + 1):
        for combo in itertools.combinations(elements, size):
            yield frozenset(combo)


class SetFunction(ABC):
    """A real-valued function ``f : 2^U -> R`` over a finite universe ``U``.

    Subclasses implement :meth:`value`; everything else (marginals,
    property checks, algebra) is derived.  Instances are expected to be
    immutable once constructed.
    """

    @property
    @abstractmethod
    def universe(self) -> Subset:
        """The ground set the function is defined over."""

    @abstractmethod
    def value(self, subset: Iterable[Element]) -> float:
        """Return ``f(subset)``."""

    # -- convenience ----------------------------------------------------

    def __call__(self, subset: Iterable[Element]) -> float:
        return self.value(subset)

    def __len__(self) -> int:
        return len(self.universe)

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        """Return ``f(S ∪ {e}) − f(S)`` (the paper's ``f'(e, S)``)."""
        base = as_frozenset(subset)
        if element in base:
            return 0.0
        return self.value(base | {element}) - self.value(base)

    def marginals(self, elements: Iterable[Element], subset: Iterable[Element]) -> List[float]:
        """``[f'(e, S) for e in elements]``; subclasses may answer them together."""
        base = as_frozenset(subset)
        return [self.marginal(element, base) for element in elements]

    def gain(self, addition: Iterable[Element], subset: Iterable[Element]) -> float:
        """Return ``f(S ∪ E) − f(S)`` (the paper's ``Δf(E, S)``)."""
        base = as_frozenset(subset)
        extra = as_frozenset(addition)
        return self.value(base | extra) - self.value(base)

    # -- structural property checks (exhaustive; small universes only) ---

    def is_normalized(self, *, tol: float = 1e-9) -> bool:
        """``f(∅) == 0`` up to ``tol``."""
        return abs(self.value(frozenset())) <= tol

    def is_monotone(self, *, tol: float = 1e-9) -> bool:
        """``f(A) <= f(B)`` whenever ``A ⊆ B`` (checked via single-element steps)."""
        for subset in all_subsets(self.universe):
            for element in self.universe - subset:
                if self.marginal(element, subset) < -tol:
                    return False
        return True

    def is_submodular(self, *, tol: float = 1e-9) -> bool:
        """Diminishing returns: ``f'(e, A) >= f'(e, B)`` for ``A ⊆ B``, ``e ∉ B``.

        Uses the equivalent pairwise characterisation
        ``f(S∪{a}) + f(S∪{b}) >= f(S∪{a,b}) + f(S)``.
        """
        universe = sorted(self.universe, key=repr)
        for subset in all_subsets(self.universe):
            remaining = [e for e in universe if e not in subset]
            for a, b in itertools.combinations(remaining, 2):
                lhs = self.value(subset | {a}) + self.value(subset | {b})
                rhs = self.value(subset | {a, b}) + self.value(subset)
                if lhs + tol < rhs:
                    return False
        return True

    def is_supermodular(self, *, tol: float = 1e-9) -> bool:
        """``f`` is supermodular iff ``-f`` is submodular."""
        return ScaledFunction(self, -1.0).is_submodular(tol=tol)

    def is_additive(self, *, tol: float = 1e-9) -> bool:
        """``f(S) == Σ_{e∈S} f({e})`` for every subset ``S``."""
        singles = {e: self.value(frozenset({e})) for e in self.universe}
        for subset in all_subsets(self.universe):
            expected = sum(singles[e] for e in subset)
            if abs(self.value(subset) - expected) > tol:
                return False
        return True

    # -- algebra ---------------------------------------------------------

    def scaled(self, factor: float) -> "ScaledFunction":
        return ScaledFunction(self, factor)

    def shifted(self, offset: float) -> "ShiftedFunction":
        return ShiftedFunction(self, offset)

    def __add__(self, other: "SetFunction") -> "SumFunction":
        return SumFunction(self, other)

    def __sub__(self, other: "SetFunction") -> "DifferenceFunction":
        return DifferenceFunction(self, other)

    def restricted(self, universe: Iterable[Element]) -> "RestrictedFunction":
        return RestrictedFunction(self, universe)

    def cached(self) -> "CachedSetFunction":
        return CachedSetFunction(self)

    def counting(self) -> "CallCountingFunction":
        return CallCountingFunction(self)

    def tabulate(self) -> "TabularSetFunction":
        """Materialise the function as an explicit table (small universes)."""
        table = {subset: self.value(subset) for subset in all_subsets(self.universe)}
        return TabularSetFunction(self.universe, table)


class TabularSetFunction(SetFunction):
    """A set function defined by an explicit table of subset values.

    Missing subsets raise :class:`KeyError`; the table therefore has to be
    complete for the algorithms that touch arbitrary subsets.  Mostly used
    by tests and by :meth:`SetFunction.tabulate`.
    """

    def __init__(self, universe: Iterable[Element], table: Mapping[Subset, float]):
        self._universe = as_frozenset(universe)
        self._table: Dict[Subset, float] = {as_frozenset(k): float(v) for k, v in table.items()}

    @property
    def universe(self) -> Subset:
        return self._universe

    def value(self, subset: Iterable[Element]) -> float:
        key = as_frozenset(subset)
        if not key <= self._universe:
            raise ValueError(f"subset {set(key)!r} is not contained in the universe")
        return self._table[key]

    @classmethod
    def from_function(
        cls, universe: Iterable[Element], func: Callable[[Subset], float]
    ) -> "TabularSetFunction":
        universe = as_frozenset(universe)
        return cls(universe, {s: func(s) for s in all_subsets(universe)})


class AdditiveFunction(SetFunction):
    """An additive (modular) function ``c(S) = Σ_{e∈S} w(e)``."""

    def __init__(self, weights: Mapping[Element, float]):
        self._weights: Dict[Element, float] = dict(weights)
        self._universe = frozenset(self._weights)

    @property
    def universe(self) -> Subset:
        return self._universe

    @property
    def weights(self) -> Dict[Element, float]:
        return dict(self._weights)

    def weight(self, element: Element) -> float:
        return self._weights[element]

    def value(self, subset: Iterable[Element]) -> float:
        return float(sum(self._weights[e] for e in as_frozenset(subset)))

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        if element in as_frozenset(subset):
            return 0.0
        return self._weights[element]


class LambdaSetFunction(SetFunction):
    """Wrap an arbitrary callable ``func(frozenset) -> float`` as a set function."""

    def __init__(self, universe: Iterable[Element], func: Callable[[Subset], float]):
        self._universe = as_frozenset(universe)
        self._func = func

    @property
    def universe(self) -> Subset:
        return self._universe

    def value(self, subset: Iterable[Element]) -> float:
        return float(self._func(as_frozenset(subset)))


class CachedSetFunction(SetFunction):
    """Memoize values of an underlying (possibly expensive) set function."""

    def __init__(self, inner: SetFunction):
        self._inner = inner
        self._cache: Dict[Subset, float] = {}

    @property
    def universe(self) -> Subset:
        return self._inner.universe

    @property
    def inner(self) -> SetFunction:
        return self._inner

    def value(self, subset: Iterable[Element]) -> float:
        key = as_frozenset(subset)
        if key not in self._cache:
            self._cache[key] = self._inner.value(key)
        return self._cache[key]

    @property
    def cache_size(self) -> int:
        return len(self._cache)


class CallCountingFunction(SetFunction):
    """Count the number of oracle evaluations made on the wrapped function.

    The paper measures algorithm efficiency in the number of ``bestCost``
    invocations; the ablation benchmarks use this wrapper to report that
    number for the lazy and non-lazy greedy variants.
    """

    def __init__(self, inner: SetFunction):
        self._inner = inner
        self.calls = 0

    @property
    def universe(self) -> Subset:
        return self._inner.universe

    @property
    def inner(self) -> SetFunction:
        return self._inner

    def value(self, subset: Iterable[Element]) -> float:
        self.calls += 1
        return self._inner.value(subset)

    def reset(self) -> None:
        self.calls = 0


class ScaledFunction(SetFunction):
    """``(a · f)(S) = a * f(S)``."""

    def __init__(self, inner: SetFunction, factor: float):
        self._inner = inner
        self._factor = float(factor)

    @property
    def universe(self) -> Subset:
        return self._inner.universe

    def value(self, subset: Iterable[Element]) -> float:
        return self._factor * self._inner.value(subset)


class ShiftedFunction(SetFunction):
    """``(f + b)(S) = f(S) + b`` — note this breaks normalization for ``b != 0``."""

    def __init__(self, inner: SetFunction, offset: float):
        self._inner = inner
        self._offset = float(offset)

    @property
    def universe(self) -> Subset:
        return self._inner.universe

    def value(self, subset: Iterable[Element]) -> float:
        return self._inner.value(subset) + self._offset


class SumFunction(SetFunction):
    """Pointwise sum of two set functions over the same universe."""

    def __init__(self, left: SetFunction, right: SetFunction):
        if left.universe != right.universe:
            raise ValueError("cannot add set functions over different universes")
        self._left = left
        self._right = right

    @property
    def universe(self) -> Subset:
        return self._left.universe

    def value(self, subset: Iterable[Element]) -> float:
        key = as_frozenset(subset)
        return self._left.value(key) + self._right.value(key)


class DifferenceFunction(SetFunction):
    """Pointwise difference ``f − g`` of two set functions over the same universe."""

    def __init__(self, left: SetFunction, right: SetFunction):
        if left.universe != right.universe:
            raise ValueError("cannot subtract set functions over different universes")
        self._left = left
        self._right = right

    @property
    def universe(self) -> Subset:
        return self._left.universe

    def value(self, subset: Iterable[Element]) -> float:
        key = as_frozenset(subset)
        return self._left.value(key) - self._right.value(key)


class RestrictedFunction(SetFunction):
    """Restriction of a set function to a sub-universe.

    Used by the Theorem-4 universe-reduction step: the greedy algorithm is
    re-run on the pruned ground set while evaluating the original function.
    """

    def __init__(self, inner: SetFunction, universe: Iterable[Element]):
        sub = as_frozenset(universe)
        if not sub <= inner.universe:
            raise ValueError("restricted universe must be a subset of the original universe")
        self._inner = inner
        self._universe = sub

    @property
    def universe(self) -> Subset:
        return self._universe

    def value(self, subset: Iterable[Element]) -> float:
        key = as_frozenset(subset)
        if not key <= self._universe:
            raise ValueError("subset escapes the restricted universe")
        return self._inner.value(key)
