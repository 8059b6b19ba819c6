"""Zero-dependency metrics for the serving stack.

One :class:`MetricsRegistry` holds every counter, gauge and latency
histogram a serving target (an
:class:`~repro.service.session.OptimizerSession` and everything hanging
off it) emits.  Metrics are identified by ``(name, labels)`` — labels are
how one shared registry keeps per-strategy and per-component series
apart — and are created lazily on first use, so instrumented code never
checks "does this metric exist yet".

Two design rules keep the hot path honest:

* **Counters are plain attribute adds.**  ``Counter.inc()`` is
  ``self.value += n`` — no lock, no dict lookup.  Instrumented components
  hold on to their counter objects (see :class:`StatisticsView`) and
  increment them under whatever lock already guards the code path, exactly
  as the pre-registry dataclass counters did.
* **Histograms own a lock.**  ``observe()`` updates bucket counts and the
  running sum together; snapshots and percentile extraction read under the
  same lock, so a reporter can never see a torn (count, sum) pair.

The existing statistics classes of the serving stack
(:class:`~repro.service.session.SessionStatistics`,
:class:`~repro.service.matcache.CacheStatistics`,
:class:`~repro.storage.spill.SpillStatistics`,
:class:`~repro.adaptive.stats.FeedbackStatistics`) are **views** over a
registry: each public field is a descriptor reading/writing a registry
counter, so ``session.statistics.batches_served`` and the registry's
``session_batches_served`` series are one number — the counters did not
move, they grew an exposition format.  A view constructed without a
registry owns a private one, which keeps every historical construction
pattern (and every historical counter value) bit-identical.

Snapshots are JSON-able dicts (:meth:`MetricsRegistry.snapshot`); the
Prometheus text exposition (:meth:`MetricsRegistry.render_prometheus`)
renders the same state for scrape-style consumers.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "StatisticsView",
    "metric_field",
    "normalize_labels",
]

#: Canonical label form: a sorted tuple of (key, value-as-str) pairs.
Labels = Tuple[Tuple[str, str], ...]

LabelsLike = Union[None, Mapping[str, object], Iterable[Tuple[str, object]]]

#: Fixed latency buckets (seconds): exponential 1 µs → 10 s, the range the
#: serving stack's operations actually span (a warm cache hit is ~µs, a cold
#: scaled TPC-D batch ~seconds).  Fixed — never adaptive — so histograms
#: from different series/processes merge by plain bucket-count addition.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


def normalize_labels(labels: LabelsLike) -> Labels:
    """Labels in canonical form: a tuple of (key, str(value)) pairs, sorted."""
    if not labels:
        return ()
    items = labels.items() if isinstance(labels, Mapping) else labels
    return tuple(sorted((str(k), str(v)) for k, v in items))


class Counter:
    """A monotonically adjustable integer series.

    ``inc`` is deliberately lock-free: every producer in the serving stack
    already increments under a component lock (session, cache, store), and
    the registry's snapshot reading a slightly stale int is harmless —
    what must never happen is a *torn* multi-field read, which the
    :class:`StatisticsView` snapshot helpers take the component lock for.
    """

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}{dict(self.labels)}={self.value})"


class Gauge:
    """A set-to-current-value series (queue depths, cache bytes, ...)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}{dict(self.labels)}={self.value})"


class HistogramSnapshot:
    """An immutable copy of a histogram's state, with percentile extraction.

    Snapshots of histograms with identical bucket bounds merge by plain
    addition (:meth:`merge`) — how a report rolls per-strategy latency
    series up to one p50/p95/p99 without ever sharing a histogram lock.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(
        self,
        bounds: Tuple[float, ...],
        counts: Tuple[int, ...],
        total: float,
        count: int,
    ):
        self.bounds = bounds
        self.counts = counts
        self.sum = total
        self.count = count

    @classmethod
    def merge(cls, parts: "Sequence[HistogramSnapshot]") -> "HistogramSnapshot":
        """Sum snapshots bucket-by-bucket (bounds must match exactly)."""
        if not parts:
            return cls(DEFAULT_LATENCY_BUCKETS, (0,) * (len(DEFAULT_LATENCY_BUCKETS) + 1), 0.0, 0)
        bounds = parts[0].bounds
        for part in parts[1:]:
            if part.bounds != bounds:
                raise ValueError("cannot merge histograms with different bucket bounds")
        counts = [0] * len(parts[0].counts)
        total = 0.0
        count = 0
        for part in parts:
            for index, value in enumerate(part.counts):
                counts[index] += value
            total += part.sum
            count += part.count
        return cls(bounds, tuple(counts), total, count)

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.sum / self.count

    def percentile(self, q: float) -> Optional[float]:
        """The q-quantile (q in [0, 1]) by linear interpolation within buckets.

        Observations above the last finite bound clamp to that bound (the
        overflow bucket has no upper edge to interpolate toward) — the same
        convention Prometheus' ``histogram_quantile`` uses.  ``None`` on an
        empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                if index >= len(self.bounds):
                    return self.bounds[-1]  # overflow bucket: clamp
                upper = self.bounds[index]
                lower = self.bounds[index - 1] if index > 0 else 0.0
                fraction = (target - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.bounds[-1]  # pragma: no cover - cumulative always reaches count

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(0.50)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(0.95)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(0.99)

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {
                ("+Inf" if index >= len(self.bounds) else repr(self.bounds[index])): value
                for index, value in enumerate(self.counts)
                if value
            },
        }


class Histogram:
    """A fixed-bucket latency histogram with p50/p95/p99 extraction.

    Buckets are cumulative-*exclusive* internally (``counts[i]`` holds the
    observations in ``(bounds[i-1], bounds[i]]``; the last slot is the
    overflow bucket) and rendered cumulatively for Prometheus.  Bounds are
    fixed at construction — percentiles are approximate within a bucket but
    merging across series/processes stays exact.
    """

    __slots__ = ("name", "labels", "bounds", "_counts", "_sum", "_count", "_lock")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # bisect_left keeps a boundary value in its (lower, upper] bucket —
        # consistent with the cumulative le (≤) semantics of the exposition.
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                self.bounds, tuple(self._counts), self._sum, self._count
            )

    def percentile(self, q: float) -> Optional[float]:
        return self.snapshot().percentile(q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            count = self._count
        return f"Histogram({self.name}{dict(self.labels)} n={count})"


_KINDS = {"counter": Counter, "gauge": Gauge}


class MetricsRegistry:
    """Every metric of one serving target, keyed by ``(name, labels)``.

    Thread-safe: creation is locked, and lookups return the same object for
    the same identity, so concurrent components share series instead of
    clobbering each other.  A metric name is bound to one kind — asking for
    ``counter("x")`` after ``histogram("x")`` raises instead of silently
    forking the series.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics: Dict[Tuple[str, Labels], object] = {}
        self._kinds: Dict[str, str] = {}

    # ----------------------------------------------------------- get-or-create

    def _get_or_create(self, kind: str, name: str, labels: LabelsLike, factory):
        canonical = normalize_labels(labels)
        key = (name, canonical)
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if self._kinds[name] != kind:
                    raise ValueError(
                        f"metric {name!r} is a {self._kinds[name]}, not a {kind}"
                    )
                return existing
            bound = self._kinds.setdefault(name, kind)
            if bound != kind:
                raise ValueError(f"metric {name!r} is a {bound}, not a {kind}")
            metric = factory(name, canonical)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, labels: LabelsLike = None) -> Counter:
        return self._get_or_create("counter", name, labels, Counter)

    def gauge(self, name: str, labels: LabelsLike = None) -> Gauge:
        return self._get_or_create("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        labels: LabelsLike = None,
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            "histogram", name, labels, lambda n, l: Histogram(n, l, buckets)
        )

    # ------------------------------------------------------------------- reads

    def metrics(self) -> List[object]:
        """Every registered metric, in (name, labels) order."""
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def histogram_snapshots(self, name: str) -> Dict[Labels, HistogramSnapshot]:
        """All label series of one histogram name, snapshotted."""
        with self._lock:
            series = [
                metric
                for (metric_name, _), metric in self._metrics.items()
                if metric_name == name and isinstance(metric, Histogram)
            ]
        return {histogram.labels: histogram.snapshot() for histogram in series}

    def snapshot(self) -> Dict[str, object]:
        """The whole registry as one JSON-able dict.

        Counters and gauges are plain numbers; histograms expand to their
        bucket counts plus derived count/sum/mean/p50/p95/p99.  Series are
        keyed ``name`` or ``name{k=v,...}`` — stable, sorted, diff-able.
        """
        out: Dict[str, object] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self.metrics():
            key = _series_key(metric.name, metric.labels)
            if isinstance(metric, Counter):
                out["counters"][key] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][key] = metric.value
            else:
                out["histograms"][key] = metric.snapshot().as_dict()
        return out

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format (0.0.4).

        Histograms render cumulatively with the conventional ``_bucket``
        (``le`` label), ``_sum`` and ``_count`` series.
        """
        lines: List[str] = []
        seen_types: set = set()
        for metric in self.metrics():
            if metric.name not in seen_types:
                seen_types.add(metric.name)
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, (Counter, Gauge)):
                lines.append(f"{metric.name}{_render_labels(metric.labels)} {metric.value}")
                continue
            snap = metric.snapshot()
            cumulative = 0
            for index, value in enumerate(snap.counts):
                cumulative += value
                le = "+Inf" if index >= len(snap.bounds) else _format_float(snap.bounds[index])
                labels = metric.labels + (("le", le),)
                lines.append(f"{metric.name}_bucket{_render_labels(labels)} {cumulative}")
            lines.append(
                f"{metric.name}_sum{_render_labels(metric.labels)} {_format_float(snap.sum)}"
            )
            lines.append(f"{metric.name}_count{_render_labels(metric.labels)} {snap.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _series_key(name: str, labels: Labels) -> str:
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def _format_float(value: float) -> str:
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Labels) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels) + "}"


# --------------------------------------------------------------------------
# Statistics views: the serving stack's public counter bundles, re-based on
# a registry without changing any public field.
# --------------------------------------------------------------------------


class _MetricField:
    """Descriptor exposing a registry counter as a plain int attribute.

    ``stats.hits`` reads the counter's value, ``stats.hits += 1`` writes it
    back — the exact mutation idiom the former dataclasses supported, so no
    instrumented call site changes.
    """

    __slots__ = ("name",)

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._counters[self.name].value

    def __set__(self, obj, value) -> None:
        obj._counters[self.name].value = value


def metric_field() -> _MetricField:
    """Declare one counter-backed field on a :class:`StatisticsView`."""
    return _MetricField()


class StatisticsView:
    """A bundle of named counters that is a live view over a registry.

    Subclasses declare fields with :func:`metric_field` and set ``_prefix``
    (the registry name of field ``f`` is ``_prefix + f``); construction
    without arguments creates a private registry, so standalone statistics
    objects — and :meth:`aggregate` results — behave exactly like the
    dataclasses they replace.  Constructed *with* a shared registry (what
    the serving layer does), the same fields become labeled series of that
    registry for free.
    """

    _prefix: str = ""

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, *, labels: LabelsLike = None
    ):
        registry = registry if registry is not None else MetricsRegistry()
        canonical = normalize_labels(labels)
        self._registry = registry
        self._labels = canonical
        self._counters = {
            name: registry.counter(self._prefix + name, canonical)
            for name in self.field_names()
        }

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        """Every metric field, base classes first, in declaration order."""
        cached = cls.__dict__.get("_field_names_cache")
        if cached is not None:
            return cached
        names: List[str] = []
        for klass in reversed(cls.__mro__):
            for name, attr in vars(klass).items():
                if isinstance(attr, _MetricField) and name not in names:
                    names.append(name)
        result = tuple(names)
        cls._field_names_cache = result
        return result

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.field_names()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, StatisticsView):
            return NotImplemented
        return type(self) is type(other) and self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({fields})"
