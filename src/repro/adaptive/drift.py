"""Drift detection and the adaptive subsystem's configuration.

A cached plan was chosen against the cardinality estimates that were
current when it was optimized.  When execution observes cardinalities that
disagree with those estimates by more than a configurable factor — because
the data changed underneath the session, or because the static estimate
was simply wrong — the plan's cost ranking is no longer trustworthy and the
affected cached results should be re-optimized with corrected statistics.
:class:`DriftDetector` makes that call per observed plan node;
:class:`AdaptiveConfig` bundles every knob of the feedback loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .stats import ObservedStats

__all__ = ["AdaptiveConfig", "DriftDetector", "DriftEvent"]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the runtime-feedback loop (see :mod:`repro.adaptive`).

    Attributes:
        enabled: master switch; a session given a disabled config behaves
            exactly like one with no adaptive config at all.
        drift_threshold: observed/estimated ratio (in either direction)
            above which a plan node counts as drifted.
        min_observations: observations required before a node may be
            declared drifted (1 = react to the first measurement).
        min_confidence: store confidence required both to declare drift and
            for the estimator overlay to use an observed value verbatim.
        ewma_alpha / epoch_decay: forwarded to the
            :class:`~repro.adaptive.stats.FeedbackStatsStore`.
    """

    enabled: bool = True
    drift_threshold: float = 2.0
    min_observations: int = 1
    min_confidence: float = 0.5
    ewma_alpha: float = 0.5
    epoch_decay: float = 0.5


@dataclass(frozen=True)
class DriftEvent:
    """One detected estimate/observation disagreement."""

    key: str
    estimated: float
    observed: float
    ratio: float

    def describe(self) -> str:
        return (
            f"drift on {self.key}: estimated {self.estimated:.0f} rows, "
            f"observed {self.observed:.0f} (×{self.ratio:.1f})"
        )


class DriftDetector:
    """Flags plan nodes whose observed cardinality contradicts the estimate."""

    def __init__(
        self,
        *,
        threshold: float = 2.0,
        min_observations: int = 1,
        min_confidence: float = 0.0,
    ):
        if threshold < 1.0:
            raise ValueError("threshold must be at least 1.0")
        if min_observations < 1:
            raise ValueError("min_observations must be positive")
        self.threshold = threshold
        self.min_observations = min_observations
        self.min_confidence = min_confidence

    @staticmethod
    def ratio(estimated: float, observed: float) -> float:
        """The symmetric over/under-estimation factor (always ≥ 1)."""
        estimated = max(estimated, 1.0)
        observed = max(observed, 1.0)
        return max(estimated / observed, observed / estimated)

    def check(
        self,
        estimated: float,
        stats: Optional[ObservedStats],
        *,
        confidence: float = 1.0,
    ) -> Optional[DriftEvent]:
        """A :class:`DriftEvent` when the node drifted, else None."""
        if stats is None or stats.observations < self.min_observations:
            return None
        if confidence < self.min_confidence:
            return None
        ratio = self.ratio(estimated, stats.rows)
        if ratio <= self.threshold:
            return None
        return DriftEvent(
            key=stats.key, estimated=estimated, observed=stats.rows, ratio=ratio
        )
