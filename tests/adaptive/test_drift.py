"""Unit tests for the drift detector."""

import pytest

from repro.adaptive import DriftDetector, FeedbackStatsStore
from repro.adaptive.drift import AdaptiveConfig


@pytest.fixture()
def stats_for():
    store = FeedbackStatsStore(ewma_alpha=1.0)

    def make(rows, observations=1):
        entry = None
        for _ in range(observations):
            entry = store.record(f"k{rows}", rows=rows)
        return entry

    return make


class TestRatio:
    def test_symmetric(self):
        assert DriftDetector.ratio(100, 10) == pytest.approx(10.0)
        assert DriftDetector.ratio(10, 100) == pytest.approx(10.0)
        assert DriftDetector.ratio(100, 100) == 1.0

    def test_floored_at_one_row(self):
        # 0 observed rows vs an estimate of 5 is a factor of 5, not infinity.
        assert DriftDetector.ratio(5, 0) == 5.0
        assert DriftDetector.ratio(0, 0) == 1.0


class TestCheck:
    def test_within_threshold_is_quiet(self, stats_for):
        detector = DriftDetector(threshold=2.0)
        assert detector.check(100.0, stats_for(180)) is None
        assert detector.check(100.0, stats_for(55)) is None

    def test_beyond_threshold_fires_in_both_directions(self, stats_for):
        detector = DriftDetector(threshold=2.0)
        over = detector.check(100.0, stats_for(500))
        assert over is not None and over.ratio == pytest.approx(5.0)
        assert over.observed == 500.0 and over.estimated == 100.0
        under = detector.check(100.0, stats_for(10))
        assert under is not None and under.ratio == pytest.approx(10.0)
        assert "drift" in over.describe()

    def test_no_stats_is_never_drift(self):
        detector = DriftDetector(threshold=2.0)
        assert detector.check(100.0, None) is None

    def test_min_observations_gate(self, stats_for):
        detector = DriftDetector(threshold=2.0, min_observations=3)
        assert detector.check(100.0, stats_for(900, observations=2)) is None
        assert detector.check(100.0, stats_for(901, observations=3)) is not None

    def test_min_confidence_gate(self, stats_for):
        detector = DriftDetector(threshold=2.0, min_confidence=0.5)
        assert detector.check(100.0, stats_for(902), confidence=0.4) is None
        assert detector.check(100.0, stats_for(903), confidence=0.6) is not None

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0.5},
        {"min_observations": 0},
    ])
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            DriftDetector(**kwargs)


class TestConfig:
    def test_defaults_are_enabled_with_paper_ish_knobs(self):
        config = AdaptiveConfig()
        assert config.enabled
        assert config.drift_threshold == 2.0

    def test_disabled_config_flag(self):
        assert not AdaptiveConfig(enabled=False).enabled
