"""End-to-end observability for the serving stack: metrics + tracing.

The package is **zero-dependency** (stdlib only) and sits below every other
``repro`` package — :mod:`repro.adaptive`, :mod:`repro.service`,
:mod:`repro.execution` and :mod:`repro.storage` all import it, it imports
none of them.

Two halves, one handle:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket latency histograms (p50/p95/p99), with
  JSON snapshots and Prometheus text exposition.  The serving layer's
  public statistics classes are live *views* over a registry, so every
  historical counter keeps its exact field and value while gaining an
  exposition format.
* :mod:`repro.obs.trace` — a span :class:`Tracer` with per-request trace
  IDs, explicit cross-thread propagation and sampled JSONL output; its
  disabled twin :data:`NULL_TRACER` is a true no-op for the hot path.

:class:`Observability` bundles one registry + one tracer + the label set
identifying the component holding it.
"""

from __future__ import annotations

from typing import Dict, Optional

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    Labels,
    LabelsLike,
    MetricsRegistry,
    StatisticsView,
    metric_field,
    normalize_labels,
)
from .trace import (
    InMemorySink,
    JsonlTraceWriter,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "InMemorySink",
    "JsonlTraceWriter",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "Span",
    "StatisticsView",
    "Tracer",
    "metric_field",
    "normalize_labels",
]


class Observability:
    """One registry + one tracer + the labels of the component holding them.

    Args:
        registry: the metrics registry; a private one is created when
            omitted, so a bare ``Observability()`` is always functional.
        tracer: the span tracer; tracing is *disabled* (:data:`NULL_TRACER`)
            when omitted — metrics are cheap enough to be always-on,
            tracing is opt-in.
        labels: identity labels stamped on every metric created through
            this handle and exposed to span emitters.
    """

    __slots__ = ("registry", "tracer", "labels", "_latencies")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
        labels: LabelsLike = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.labels: Labels = normalize_labels(labels)
        # observe_latency's resolved series: the registry never drops a
        # metric, so a per-call-site histogram can be looked up once.
        self._latencies: Dict[tuple, Histogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        return self.registry.counter(name, self._merged(labels))

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self.registry.gauge(name, self._merged(labels))

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self.registry.histogram(name, self._merged(labels))

    def observe_latency(self, name: str, seconds: float, **labels: object) -> None:
        """Record one latency observation under this handle's labels.

        Called on every served request, so the series is resolved once per
        (name, labels) and cached rather than re-normalized each time.
        """
        key = (name, *((k, str(v)) for k, v in labels.items()))
        histogram = self._latencies.get(key)
        if histogram is None:
            histogram = self._latencies[key] = self.histogram(name, **labels)
        histogram.observe(seconds)

    def _merged(self, labels: dict) -> Labels:
        if not labels:
            return self.labels
        merged = dict(self.labels)
        merged.update({k: str(v) for k, v in labels.items()})
        return normalize_labels(merged)
