"""Span-based tracing for the serving stack.

A **trace** is one request's causal story: a trace ID minted when a query
enters the system (at :meth:`~repro.service.scheduler.BatchScheduler.submit`
time, or at the session API boundary for direct calls) and carried through
every component that works on it — scheduler worker, session,
optimizer phases, executor backend, materialization cache, spill tier,
feedback absorption.  A **span** is one timed operation inside a trace;
spans nest per thread, and cheap point-in-time **events** (cache hit, spill,
drift) attach to whichever span is open when they happen.

Two implementations share one surface:

* :class:`Tracer` — the real thing: thread-local span stacks, per-trace
  sampling decided at the root, records pushed to a sink (the JSONL writer
  for a trace directory, an in-memory sink for tests).
* :class:`NullTracer` (the module singleton :data:`NULL_TRACER`) — the
  disabled mode.  Every method is a constant-return no-op and ``span()``
  hands back one preallocated null context manager, so an uninstrumented
  serving path pays a single attribute load + call per potential span and
  allocates nothing.  ``tests/obs/test_tracing_overhead.py`` holds the
  disabled serving path within 2% of a bare executor call.

Cross-thread propagation is explicit, not ambient: the component that
crosses a thread boundary (the scheduler) captures ``trace_id`` at submit
time and re-enters it on the worker via :meth:`Tracer.activate` — the same
shape as W3C traceparent propagation, minus the wire format.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from random import random
from typing import Dict, List, Optional, Union

__all__ = [
    "InMemorySink",
    "JsonlTraceWriter",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
]


def _new_id() -> str:
    return os.urandom(8).hex()


class Span:
    """One timed operation; also its own context manager.

    Mutating helpers (:meth:`set`, :meth:`event`) are only called from the
    thread that opened the span — spans are thread-local by construction,
    so they carry no lock.
    """

    __slots__ = (
        "_tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "events",
        "sampled",
        "start_wall",
        "_start_perf",
        "duration",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        parent_id: Optional[str],
        name: str,
        attrs: Dict[str, object],
        sampled: bool,
    ):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.events: List[Dict[str, object]] = []
        self.sampled = sampled
        self.start_wall = time.time()
        self._start_perf = time.perf_counter()
        self.duration: Optional[float] = None

    def set(self, **attrs: object) -> None:
        """Attach (or overwrite) span attributes."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs: object) -> None:
        """Record a point-in-time event inside this span."""
        if self.sampled:
            self.events.append(
                {
                    "name": name,
                    "dt": time.perf_counter() - self._start_perf,
                    **({"attrs": attrs} if attrs else {}),
                }
            )

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._start_perf
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)
        return False

    def record(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "name": self.name,
            "ts": self.start_wall,
            "dur": self.duration,
        }
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        if self.attrs:
            out["attrs"] = self.attrs
        if self.events:
            out["events"] = self.events
        return out


class _Activation:
    """A foreign trace context re-entered on this thread (no span of its own)."""

    __slots__ = ("_tracer", "trace_id", "parent_id", "sampled")

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        parent_id: Optional[str],
        sampled: bool,
    ):
        self._tracer = tracer
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.sampled = sampled

    # Frame protocol shared with Span: what a child span inherits.
    @property
    def span_id(self) -> Optional[str]:
        return self.parent_id

    def __enter__(self) -> "_Activation":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._pop(self)
        return False


class _NullSpan:
    """The disabled tracer's span: every method a no-op, one shared instance."""

    __slots__ = ()
    trace_id = None
    span_id = None
    sampled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        pass

    def event(self, name: str, **attrs: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: a true no-op object for the hot path.

    Shares :class:`Tracer`'s surface; ``span()``/``activate()`` return one
    preallocated null context manager and nothing is ever recorded.  Use
    the module singleton :data:`NULL_TRACER`.
    """

    __slots__ = ()
    enabled = False

    def new_trace_id(self) -> Optional[str]:
        return None

    def current_trace_id(self) -> Optional[str]:
        return None

    def activate(
        self, trace_id: Optional[str] = None, parent_id: Optional[str] = None
    ) -> _NullSpan:
        return _NULL_SPAN

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: object) -> None:
        pass

    def record_span(
        self,
        name: str,
        seconds: float,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attrs: object,
    ) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class InMemorySink:
    """Collects span records in a list — the test/debug sink."""

    def __init__(self):
        self._lock = threading.Lock()
        self.records: List[Dict[str, object]] = []

    def write(self, record: Dict[str, object]) -> None:
        with self._lock:
            self.records.append(record)

    def spans(self, name: Optional[str] = None) -> List[Dict[str, object]]:
        with self._lock:
            records = list(self.records)
        if name is None:
            return records
        return [r for r in records if r.get("name") == name]

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class JsonlTraceWriter:
    """Appends span records as JSON lines to a file (one record per line).

    ``target`` may be a directory — the writer then creates
    ``trace-<pid>.jsonl`` inside it, so several processes sharing one
    trace directory never interleave partial lines.  Records a json encoder
    cannot serialize degrade via ``repr`` rather than failing the traced
    request (tracing must never break serving).
    """

    def __init__(self, target: Union[str, Path]):
        target = Path(target)
        if target.suffix != ".jsonl":
            target.mkdir(parents=True, exist_ok=True)
            target = target / f"trace-{os.getpid()}.jsonl"
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
        self.path = target
        self._lock = threading.Lock()
        self._handle = open(target, "a", encoding="utf-8")

    def write(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, separators=(",", ":"), default=repr)
        with self._lock:
            self._handle.write(line + "\n")

    def flush(self) -> None:
        with self._lock:
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()


class Tracer:
    """The enabled tracer: thread-local span stacks over one sink.

    Args:
        sink: where finished span records go; anything with
            ``write(dict)`` / ``flush()`` / ``close()`` (an
            :class:`InMemorySink` is created when omitted).
        sample: probability a *new trace* is recorded, decided once at the
            trace root and inherited by every span and event in it —
            context (trace IDs) still propagates for unsampled traces, so
            sampling changes observability volume, never behaviour.
    """

    enabled = True

    def __init__(self, sink=None, *, sample: float = 1.0):
        if not 0.0 <= sample <= 1.0:
            raise ValueError("sample must be in [0, 1]")
        self.sink = sink if sink is not None else InMemorySink()
        self.sample = sample
        self._local = threading.local()

    # ----------------------------------------------------------------- stack

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, frame) -> None:
        self._stack().append(frame)

    def _pop(self, frame) -> None:
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # pragma: no cover - misuse guard (exit out of order)
            try:
                stack.remove(frame)
            # Frame already popped by an earlier out-of-order exit; nothing left to unwind
            except ValueError:
                pass
        if isinstance(frame, Span) and frame.sampled:
            self.sink.write(frame.record())

    def _current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def _decide_sampled(self) -> bool:
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        return random() < self.sample

    # ------------------------------------------------------------------- API

    def new_trace_id(self) -> str:
        """Mint the ID a request will be traced under."""
        return _new_id()

    def current_trace_id(self) -> Optional[str]:
        current = self._current()
        return current.trace_id if current is not None else None

    def activate(
        self, trace_id: Optional[str] = None, parent_id: Optional[str] = None
    ) -> _Activation:
        """Re-enter a trace context minted elsewhere (e.g. on another thread).

        Context manager; spans opened inside it belong to ``trace_id``.
        The sampling decision for an activated trace is made here (the
        minting side only allocated an ID).
        """
        return _Activation(
            self,
            trace_id if trace_id is not None else self.new_trace_id(),
            parent_id,
            self._decide_sampled(),
        )

    def span(self, name: str, **attrs: object) -> Span:
        """Open a span under the current thread's trace (context manager).

        Without an enclosing trace a fresh root trace is started (and
        sampled per the tracer's rate) — components never need to know
        whether a caller established context.
        """
        current = self._current()
        if current is None:
            return Span(self, self.new_trace_id(), None, name, attrs, self._decide_sampled())
        return Span(self, current.trace_id, current.span_id, name, attrs, current.sampled)

    def event(self, name: str, **attrs: object) -> None:
        """A point-in-time event: attached to the open span, else standalone."""
        current = self._current()
        if isinstance(current, Span):
            current.event(name, **attrs)
            return
        sampled = current.sampled if current is not None else self._decide_sampled()
        if not sampled:
            return
        record: Dict[str, object] = {
            "kind": "event",
            "trace": current.trace_id if current is not None else self.new_trace_id(),
            "name": name,
            "ts": time.time(),
        }
        if attrs:
            record["attrs"] = attrs
        self.sink.write(record)

    def record_span(
        self,
        name: str,
        seconds: float,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attrs: object,
    ) -> None:
        """Emit an already-finished span (duration measured by the caller).

        The executor's ``observer`` hook reports per-plan-node timings after
        the fact; this writes them as proper spans of the current trace
        without having wrapped the execution in a context manager.  Explicit
        ``trace_id``/``parent_id`` override the thread context (used to file
        one physical execution under several submitters' traces).
        """
        current = self._current()
        if trace_id is None:
            if current is not None:
                trace_id = current.trace_id
                parent_id = current.span_id if parent_id is None else parent_id
                if not current.sampled:
                    return
            else:
                trace_id = self.new_trace_id()
                if not self._decide_sampled():
                    return
        record: Dict[str, object] = {
            "kind": "span",
            "trace": trace_id,
            "span": _new_id(),
            "name": name,
            "ts": time.time() - seconds,
            "dur": seconds,
        }
        if parent_id is not None:
            record["parent"] = parent_id
        if attrs:
            record["attrs"] = attrs
        self.sink.write(record)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()
