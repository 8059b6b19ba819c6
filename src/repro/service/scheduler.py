"""Micro-batching front end for an :class:`~repro.service.session.OptimizerSession`.

The :class:`BatchScheduler` is the request-facing piece of the serving
skeleton: callers :meth:`~BatchScheduler.submit` individual queries and get
a future back; a collector thread groups submissions that arrive close
together (same strategy) into micro-batches of up to ``max_batch_size``
queries, and a worker pool optimizes each micro-batch through the shared
session — so concurrent traffic automatically benefits from multi-query
optimization and from the session's warm caches.

    with BatchScheduler(session) as scheduler:
        futures = [scheduler.submit(q) for q in queries]
        outcomes = [f.result() for f in futures]
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait as wait_futures
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from ..algebra.logical import Query, QueryBatch
from ..core.mqo import MQOResult
from ..execution.data import Row
from .session import BatchExecution, OptimizerSession

__all__ = ["BatchScheduler", "QueryOutcome"]


@dataclass(frozen=True)
class QueryOutcome:
    """What a submitter gets back for one query.

    Attributes:
        query_name: the name the query was optimized under (de-duplicated
            with a ``#n`` suffix when the micro-batch had name clashes).
        strategy: the strategy the micro-batch ran.
        cost: the query's share of the consolidated plan (its plan cost).
        batch_result: the full result of the micro-batch the query rode in.
        rows: the query's result rows when the submission asked for
            execution (``submit(..., execute=True)``); ``None`` otherwise.
    """

    query_name: str
    strategy: str
    cost: float
    batch_result: MQOResult
    rows: "Optional[List[Row]]" = None


@dataclass
class _Submission:
    query: Query
    strategy: str
    future: "Future[QueryOutcome]"
    execute: bool = False
    #: Trace ID minted at submit time (None when tracing is disabled); the
    #: worker re-enters it so the whole micro-batch files under the trace
    #: of the submission that opened it.
    trace_id: Optional[str] = None
    #: When the submission entered the queue (collector wait accounting).
    submitted_at: float = 0.0


class BatchScheduler:
    """Collects submitted queries into micro-batches served by a session.

    Args:
        session: the shared :class:`OptimizerSession`.
        max_batch_size: upper bound on queries per micro-batch.
        max_delay: how long (seconds) the collector waits for companions
            after the first query of a micro-batch arrives.
        workers: size of the worker pool optimizing micro-batches.
        strategy: default strategy for submissions that don't name one.
    """

    def __init__(
        self,
        session: OptimizerSession,
        *,
        max_batch_size: int = 8,
        max_delay: float = 0.01,
        workers: int = 2,
        strategy: str = "marginal-greedy",
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        self.session = session
        # The session's observability handle: the scheduler reports
        # queue-wait latency into the same registry and propagates trace
        # IDs through the same tracer the session emits spans to.
        self._obs = session.obs
        self._tracer = self._obs.tracer
        self.max_batch_size = max_batch_size
        self.max_delay = max_delay
        self.default_strategy = strategy
        # Thread-safe by construction, not by this class's locks: the intake
        # queue and the worker pool do their own internal locking, and the
        # tracer keeps all mutable span state in thread-locals.
        self._queue: "queue.Queue[Optional[_Submission]]" = queue.Queue()
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="mqo")
        self._pending_lock = threading.Lock()
        self._pending: "set[Future]" = set()
        self._batch_seq = itertools.count(1)
        # Guards the closed flag together with queue puts so that no
        # submission can land behind the shutdown sentinel.
        self._state_lock = threading.Lock()
        self._closed = False
        self._collector = threading.Thread(
            target=self._collect, name="mqo-collector", daemon=True
        )
        self._collector.start()

    # ---------------------------------------------------------------- submit

    def submit(
        self,
        query: Query,
        *,
        strategy: Optional[str] = None,
        execute: bool = False,
    ) -> "Future[QueryOutcome]":
        """Enqueue one query; the future resolves to its :class:`QueryOutcome`.

        With ``execute=True`` the outcome additionally carries the query's
        result rows: the micro-batch the query rides in is run through the
        session's executor and materialization cache after optimization (the
        session must have a database attached).
        """
        future: "Future[QueryOutcome]" = Future()
        # Mint the trace ID at the system boundary: every span this query
        # causes — on whatever worker thread — files under it.
        trace_id = self._tracer.new_trace_id()
        with self._state_lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self._track(future)
            self._queue.put(
                _Submission(
                    query,
                    strategy or self.default_strategy,
                    future,
                    execute,
                    trace_id,
                    _now(),
                )
            )
        return future

    def submit_batch(
        self,
        batch: Union[QueryBatch, Sequence[Query]],
        *,
        strategy: Optional[str] = None,
        execute: bool = False,
    ) -> "Future[MQOResult | BatchExecution]":
        """Optimize a whole pre-formed batch (bypasses micro-batching).

        With ``execute=True`` the future resolves to a
        :class:`~repro.service.session.BatchExecution` (rows included)
        instead of a bare :class:`~repro.core.mqo.MQOResult`.
        """
        with self._state_lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            runner = self.session.execute_batch if execute else self.session.optimize
            if self._tracer.enabled:
                runner = self._traced_runner(runner, self._tracer.new_trace_id())
            future = self._pool.submit(runner, batch, strategy or self.default_strategy)
            self._track(future)
        return future

    def _traced_runner(self, runner, trace_id: Optional[str]):
        """Wrap a session call so the worker re-enters the submit-time trace."""

        def run(batch, strategy):
            with self._tracer.activate(trace_id):
                return runner(batch, strategy=strategy)

        return run

    def _track(self, future: Future) -> None:
        """Track a future until it resolves (so flush() can wait on it)."""
        with self._pending_lock:
            self._pending.add(future)
        future.add_done_callback(self._untrack)

    def _untrack(self, future: Future) -> None:
        with self._pending_lock:
            self._pending.discard(future)

    # ----------------------------------------------------------------- drain

    #: How long flush() sleeps per check while the queue drains but no
    #: future is pending (e.g. every queued submission was cancelled).
    _FLUSH_IDLE_WAIT = 0.01

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every submission made so far has been resolved."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._pending_lock:
                waiting = list(self._pending)
            if not waiting and self._queue.empty():
                return
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("scheduler did not drain in time")
            if waiting:
                wait_futures(waiting, timeout=0.05)
            else:
                # Nothing to wait on but the queue is not drained yet:
                # wait_futures([]) returns immediately, so sleeping here is
                # what keeps this loop from busy-spinning a core until the
                # collector catches up.
                time.sleep(self._FLUSH_IDLE_WAIT)

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting submissions, drain the queue and shut the pool down.

        A session with a durable cache tier (constructed with
        ``spill_dir=``) gets a best-effort ``snapshot()``
        after the drain: a *planned* shutdown persists the hot entries and
        the feedback store, so the next process starts warm.  Snapshot
        failures never turn a clean shutdown into a crash.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            # With the state lock held no submit() can slip in behind the
            # sentinel, so everything before it is drained by the collector.
            self._queue.put(None)
        if wait:
            self._collector.join()
        self._pool.shutdown(wait=wait)
        if wait:
            try:
                self.session.snapshot()
            # A failed best-effort shutdown snapshot must not turn a clean close into a crash
            except Exception:  # pragma: no cover - defensive best-effort
                pass

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- collector

    def _collect(self) -> None:
        """Collector loop: group queued submissions into micro-batches.

        Submissions deferred because their strategy differs from the batch
        being assembled go to a local ``backlog`` (never back onto the
        queue), so the shutdown sentinel can never overtake them: on
        shutdown the queue is drained into the backlog and every remaining
        submission is dispatched before the collector exits.
        """
        backlog: deque = deque()
        closing = False
        while True:
            if backlog:
                head = backlog.popleft()
            else:
                if closing:
                    return
                head = self._queue.get()
                if head is None:
                    return
            group = [head]
            # Wait briefly for companions of the same strategy; when
            # closing, take only what is already waiting.
            deadline = _now() + (0.0 if closing else self.max_delay)
            scan = len(backlog)
            while len(group) < self.max_batch_size and scan > 0:
                candidate = backlog.popleft()
                scan -= 1
                if candidate.strategy == head.strategy:
                    group.append(candidate)
                else:
                    backlog.append(candidate)
            while len(group) < self.max_batch_size and not closing:
                remaining = deadline - _now()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is None:
                    closing = True
                    break
                if item.strategy == head.strategy:
                    group.append(item)
                else:
                    backlog.append(item)
            if closing:
                # Drain whatever else was enqueued before the sentinel.
                while True:
                    try:
                        extra = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if extra is not None:
                        backlog.append(extra)
            self._dispatch(group)

    def _dispatch(self, group: List[_Submission]) -> None:
        self._pool.submit(self._run_batch, group)

    def _run_batch(self, group: List[_Submission]) -> None:
        # Transition every future to RUNNING first: a future a client managed
        # to cancel while queued is dropped here, and the transition blocks
        # further cancel() calls so the set_result below cannot raise and
        # strand the rest of the micro-batch.
        active = [s for s in group if s.future.set_running_or_notify_cancel()]
        if not active:
            return
        now = _now()
        for submission in active:
            self._obs.observe_latency(
                "scheduler_queue_wait_seconds", now - submission.submitted_at
            )
        strategy = active[0].strategy
        queries = _deduplicate_names([s.query for s in active])
        batch = QueryBatch(f"micro-{next(self._batch_seq)}", tuple(queries))
        tracer = self._tracer
        if not tracer.enabled:
            self._serve_micro_batch(active, queries, batch, strategy)
            return
        # The micro-batch runs once but serves several submitters: it files
        # under the head submission's trace (activated here, on the worker
        # thread), with the companions' trace IDs recorded on the span; each
        # companion trace additionally gets a link span so a per-query trace
        # is never empty.
        head = active[0]
        started = time.perf_counter()
        with tracer.activate(head.trace_id):
            with tracer.span(
                "scheduler.micro_batch",
                batch=batch.name,
                strategy=strategy,
                queries=len(active),
                member_traces=[s.trace_id for s in active[1:]],
            ):
                self._serve_micro_batch(active, queries, batch, strategy)
        elapsed = time.perf_counter() - started
        for submission in active[1:]:
            tracer.record_span(
                "scheduler.query",
                elapsed,
                trace_id=submission.trace_id,
                batch=batch.name,
                rode_with=head.trace_id,
            )

    def _serve_micro_batch(
        self,
        active: List[_Submission],
        queries: Tuple[Query, ...],
        batch: QueryBatch,
        strategy: str,
    ) -> None:
        session = self.session
        try:
            result = session.optimize(batch, strategy=strategy)
        except Exception as exc:  # propagate to every submitter
            for submission in active:
                submission.future.set_exception(exc)
            return
        # One execution serves every row-requesting query of the micro-batch
        # (shared materializations run once); optimize-only companions get
        # their outcome even if execution fails — their work already
        # succeeded.
        execution = None
        execution_error: Optional[Exception] = None
        wanted = [q.name for s, q in zip(active, queries) if s.execute]
        if wanted:
            try:
                execution = session.execute_plans(result, queries=wanted)
            except Exception as exc:
                execution_error = exc
        for submission, query in zip(active, queries):
            if submission.execute and execution_error is not None:
                submission.future.set_exception(execution_error)
                continue
            rows = None
            if submission.execute and execution is not None:
                rows = execution.rows[query.name]
            submission.future.set_result(
                QueryOutcome(
                    query_name=query.name,
                    strategy=result.strategy,
                    cost=result.query_costs[query.name],
                    batch_result=result,
                    rows=rows,
                )
            )


def _deduplicate_names(queries: Sequence[Query]) -> Tuple[Query, ...]:
    """Rename clashing query names (``q`` → ``q#2``) within one micro-batch.

    The suffix probes for a name not used by *any* query of the micro-batch
    — a plain per-name counter would rename the second ``q`` to ``q#2`` and
    silently collide with a query literally named ``q#2``, leaving two
    futures reading the same result slot.
    """
    taken = {query.name for query in queries}
    seen = set()
    out = []
    for query in queries:
        if query.name in seen:
            count = 2
            while f"{query.name}#{count}" in taken or f"{query.name}#{count}" in seen:
                count += 1
            query = replace(query, name=f"{query.name}#{count}")
        seen.add(query.name)
        out.append(query)
    return tuple(out)


def _now() -> float:
    return time.monotonic()
