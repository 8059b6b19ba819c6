"""Strategy lookup: names, classes, error messages, names only."""

import pytest

from repro.core.strategies import (
    Strategy,
    StrategyContext,
    available_strategies,
    get_strategy,
)
from repro.core.strategies.builtin import (
    ExhaustiveStrategy,
    GreedyStrategy,
    MarginalGreedyStrategy,
    ShareAllStrategy,
    VolcanoStrategy,
)
from repro.service import OptimizerSession
from repro.workloads.synthetic import example1_batch, example1_catalog

BUILTIN = ("volcano", "greedy", "marginal-greedy", "share-all", "exhaustive")


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert available_strategies() == BUILTIN

    def test_get_strategy_returns_classes(self):
        assert get_strategy("volcano") is VolcanoStrategy
        assert get_strategy("greedy") is GreedyStrategy
        assert get_strategy("marginal-greedy") is MarginalGreedyStrategy
        assert get_strategy("share-all") is ShareAllStrategy
        assert get_strategy("exhaustive") is ExhaustiveStrategy

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_strategy("magic")
        message = str(excinfo.value)
        assert "magic" in message
        for name in BUILTIN:
            assert name in message

    def test_strategy_instances_are_not_names(self):
        """A ``Strategy`` object is rejected, even one named like a built-in:
        the result cache keys on the name, so accepting it would serve the
        built-in's cached plan for a different selection."""

        class Nothing(Strategy):
            name = "greedy"

            def select(self, context: StrategyContext):
                return ()

        session = OptimizerSession(example1_catalog())
        session.optimize(example1_batch(), strategy="greedy")
        with pytest.raises(ValueError, match="unknown strategy"):
            session.optimize(example1_batch(), strategy=Nothing())
