"""Benchmark-side spans: timing wrappers around the calls into each layer.

Nothing in ``src/`` knows about this module.  :meth:`SpanRecorder.installed`
patches the public methods listed in :func:`_targets` on their classes for
the duration of one traced round and restores them afterwards, so untraced
rounds (the source of every end-to-end number) run the program unmodified.

A span records name, start, end, the span that caused it and the operation
it belongs to.  A layer's *self time* is its spans' duration minus the part
their direct child spans cover.  The leaf libraries (``algebra``,
``catalog``, ``cost``) are called ~1M times per cold batch; wrapping them
from outside would measure the wrapper, so their time stays inside
``optimizer.best_cost`` — spans inside the program are a later change.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "SpanRecorder", "layer_times"]

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: "Optional[Span]", op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start


def _targets(backend: str) -> List[Tuple[type, str, str]]:
    """(class, method, span name) for every layer boundary that is wrapped."""
    from repro.core.strategies.registry import available_strategies, get_strategy
    from repro.dag.build import DagBuilder
    from repro.execution.backends import resolve_backend
    from repro.optimizer.best_cost import BestCostEngine
    from repro.optimizer.volcano import VolcanoOptimizer
    from repro.service.matcache import MaterializationCache
    from repro.service.session import OptimizerSession
    from repro.storage.spill import SpillingMaterializationCache

    targets = [
        (VolcanoOptimizer, "best_cost", "optimizer.best_cost"),
        (BestCostEngine, "evaluate", "optimizer.evaluate"),
        (DagBuilder, "intern_query", "dag.intern"),
        (DagBuilder, "finalize", "dag.subsume"),
        (OptimizerSession, "optimize", "session.optimize"),
        (OptimizerSession, "execute_plans", "session.execute"),
        (MaterializationCache, "get", "matcache.get"),
        (MaterializationCache, "get_batch", "matcache.get"),
        (MaterializationCache, "put", "matcache.put"),
        (SpillingMaterializationCache, "get", "matcache.get"),
        (resolve_backend(backend), "execute_result", "execution.execute"),
    ]
    for name in available_strategies():
        targets.append((get_strategy(name), "select", "core.select"))
    return targets


class SpanRecorder:
    """Collects the spans of one traced round, in memory.

    Every workload has one operation in flight at a time, so a span opened
    on a thread with no enclosing span (the scheduler's workers) is filed
    under the operation the client currently has open.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``EngineStatistics`` of every engine that evaluated during the round.
        self.engine_statistics: Dict[int, object] = {}
        self._local = threading.local()
        self._current_op: Optional[Span] = None
        self._op_seq = 0

    @contextmanager
    def op(self) -> Iterator[Span]:
        """The span of one client operation; layer spans nest under it."""
        self._op_seq += 1
        span = Span("op", _now(), None, self._op_seq)
        self._current_op = span
        self._local.current = span
        try:
            yield span
        finally:
            span.end = _now()
            self._local.current = None
            self._current_op = None
            self.spans.append(span)

    def _wrap(self, original, name: str):
        spans = self.spans
        local = self._local
        engines = self.engine_statistics if name == "optimizer.evaluate" else None

        def traced(obj, *args, **kwargs):
            enclosing = getattr(local, "current", None)
            parent = enclosing if enclosing is not None else self._current_op
            span = Span(name, _now(), parent, parent.op if parent is not None else 0)
            local.current = span
            try:
                return original(obj, *args, **kwargs)
            finally:
                span.end = _now()
                local.current = enclosing
                spans.append(span)
                if engines is not None:
                    engines[id(obj.statistics)] = obj.statistics

        traced._perf_original = original
        return traced

    @contextmanager
    def installed(self, backend: str) -> Iterator["SpanRecorder"]:
        """Patch the layer boundaries for the duration of the block."""
        undo = []
        try:
            for cls, method, name in _targets(backend):
                own = cls.__dict__.get(method)
                original = getattr(cls, method)
                if hasattr(original, "_perf_original"):
                    continue  # inherited from a class that is already patched
                setattr(cls, method, self._wrap(original, name))
                undo.append((cls, method, own))
            yield self
        finally:
            for cls, method, own in reversed(undo):
                if own is None:
                    delattr(cls, method)
                else:
                    setattr(cls, method, own)

    def as_records(self) -> List[Dict[str, object]]:
        """The spans as JSON-able dicts (parents by index) for ``--trace-out``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "id": i,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": index.get(id(span.parent)),
                "op": span.op,
            }
            for i, span in enumerate(self.spans)
        ]


def layer_times(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Per span name: total seconds, self seconds, number of spans."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        total[span.name] += span.duration
        own[span.name] += span.duration - covered[id(span)]
        calls[span.name] += 1
    return total, own, calls
