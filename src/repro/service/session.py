"""The persistent serving layer: :class:`OptimizerSession`.

A session keeps everything that is expensive to build alive across batches:

* the **catalog** and **cost model**,
* one **fingerprint-interned memo** shared by every batch it has served —
  re-submitted (or overlapping) queries unify with the groups already in the
  memo instead of rebuilding the DAG from scratch,
* per-batch :class:`~repro.optimizer.best_cost.BestCostEngine` instances
  whose plan-DP caches stay warm (their ``(group, order)`` keys survive memo
  growth because group ids are append-only and each batch's active scope is
  frozen once built),
* an LRU cache of finished :class:`~repro.core.mqo.MQOResult` objects keyed
  by ``(batch, strategy, knobs)``, and
* — once a :class:`~repro.execution.data.Database` is attached — a
  :class:`~repro.service.matcache.MaterializationCache` of executed
  materialized-node row sets keyed by semantic fingerprint, so a warm
  session skips both re-optimization *and* re-computation of shared
  subexpressions when it answers queries with real rows.

Optimizing a previously seen batch is therefore a cache hit; optimizing a
batch that overlaps prior traffic only pays for its genuinely new queries.
The subsumption provenance machinery of :mod:`repro.dag` guarantees that
every batch is optimized exactly as if its DAG had been built fresh, so the
session returns bit-identical costs and materialization choices to a
one-shot :func:`~repro.dag.sharing.build_batch_dag` +
:func:`~repro.core.mqo.run_strategy` — and, through the executor's
determinism, :meth:`OptimizerSession.execute_batch` returns bit-identical
rows warm and cold.

All public methods are thread-safe (one coarse lock around optimizer state;
row execution runs outside it, synchronized only through the cache's own
lock, so the :class:`~repro.service.scheduler.BatchScheduler` can execute
micro-batches from several workers concurrently).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..adaptive import (
    AdaptiveCardinalityEstimator,
    AdaptiveConfig,
    BenefitAwarePolicy,
    DriftDetector,
    DriftEvent,
    FeedbackStatsStore,
)
from ..algebra.logical import Query, QueryBatch
from ..catalog.catalog import Catalog
from ..cost.model import CostModel
from ..dag.build import DagBuilder, DagConfig
from ..dag.fingerprint import canonical_key
from ..dag.sharing import BatchDag
from ..execution.backends import DEFAULT_BACKEND, resolve_backend
from ..execution.columnar.batch import ColumnBatch
from ..execution.data import Database, Row
from ..execution.executor import Executor
from ..obs import Observability, StatisticsView, metric_field
from ..optimizer.best_cost import BestCostEngine
from ..optimizer.plan import PhysicalOp
from ..core.mqo import MQOResult, run_strategy
from .matcache import (
    CacheKey,
    MaterializationCache,
    cache_key,
    estimate_batch_bytes,
    estimate_rows_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (storage builds on us)
    from ..storage.spill import SpillConfig

__all__ = ["BatchExecution", "OptimizerSession", "SessionStatistics"]

#: Filename of the feedback snapshot inside a spill directory.
FEEDBACK_SNAPSHOT = "feedback.json"


#: Identity of a prepared batch inside one session: the named query roots
#: plus the (multiset of) block roots — everything batch-level structure
#: depends on.
BatchKey = Tuple[Tuple[Tuple[str, int], ...], Tuple[int, ...]]


class SessionStatistics(StatisticsView):
    """Counters describing how a session served its traffic.

    A live view over a :class:`~repro.obs.MetricsRegistry` (series
    ``session_batches_served``, ``session_rows_returned``, ...): every
    field keeps the exact name and semantics of the former dataclass.
    """

    _prefix = "session_"

    batches_served = metric_field()
    batches_prepared = metric_field()
    batch_cache_hits = metric_field()
    queries_interned = metric_field()
    queries_reused = metric_field()
    result_cache_hits = metric_field()
    subsumption_runs = metric_field()
    subsumption_pairs = metric_field()
    strategies_run = metric_field()
    batches_executed = metric_field()
    queries_executed = metric_field()
    rows_returned = metric_field()
    materializations_computed = metric_field()
    materialization_cache_hits = metric_field()
    data_invalidations = metric_field()
    observations_recorded = metric_field()
    drift_events = metric_field()
    results_invalidated = metric_field()
    reoptimizations = metric_field()


@dataclass
class PreparedBatch:
    """A batch folded into the session memo, with its scoped DAG and engine."""

    key: BatchKey
    dag: BatchDag
    engine: BestCostEngine
    new_queries: int = 0
    reused_queries: int = 0


@dataclass
class BatchExecution:
    """Rows for every query of one executed batch, plus how they were produced.

    Attributes:
        batch_name / strategy: which batch ran, under which strategy.
        rows: result rows per query name.
        result: the :class:`~repro.core.mqo.MQOResult` whose plans ran.
        cache_hits: materialized nodes served from the
            :class:`~repro.service.matcache.MaterializationCache`.
        materializations: materialized nodes actually (re)computed by this
            call — zero on a fully warm execution.
        execution_time: wall seconds spent executing (optimization excluded).
    """

    batch_name: str
    strategy: str
    rows: Dict[str, List[Row]]
    result: MQOResult
    cache_hits: int = 0
    materializations: int = 0
    execution_time: float = 0.0

    @property
    def row_count(self) -> int:
        return sum(len(rows) for rows in self.rows.values())


class OptimizerSession:
    """A long-lived optimizer serving many (possibly overlapping) batches.

    Args:
        catalog: the database catalog every batch is optimized against.
        cost_model: the cost model (defaults to the paper's parameters).
        dag_config: knobs for DAG expansion (shared by all batches).
        incremental: enable the engines' incremental ``bestCost`` DP reuse.
        max_cached_batches: how many prepared batches (DAG + engine with its
            warm caches) to keep alive, LRU.
        max_cached_results: how many finished ``MQOResult`` objects to keep.
        database: optionally attach an execution database up front (same as
            calling :meth:`attach_database`).
        matcache: the cross-batch materialization cache to use; a default
            one is created when a database is attached without one.
        adaptive: enable the runtime-feedback loop (off by default).  Pass
            ``True`` for the default :class:`~repro.adaptive.AdaptiveConfig`
            or a config instance for tuned thresholds.  With adaptation on,
            every executed batch records observed cardinalities, byte sizes
            and timings into :attr:`feedback`; drifted plan nodes get their
            memo estimates corrected and the affected cached results are
            re-optimized on the next request.  Warm traffic whose estimates
            never drift is served bit-identically either way.
        spill_dir: enable the durable cache tier rooted at this directory:
            the materialization cache becomes a two-level
            :class:`~repro.storage.spill.SpillingMaterializationCache`
            (evictions spill to ``spill_dir/matcache``, gets fault back in),
            and — with adaptation on — the feedback store is re-seeded from
            ``spill_dir/feedback.json`` when a previous process left one.
            Call :meth:`snapshot` before a planned shutdown to persist
            everything still hot.
        spill_config: sizing of the two-level cache (RAM and disk budgets);
            ignored without ``spill_dir`` or with an explicit ``matcache``.
        executor: execution backend name — ``"columnar"`` (the vectorized
            backend of :mod:`repro.execution.columnar`, the default),
            ``"row"`` (the tuple-at-a-time interpreter, kept as the
            differential oracle), or the SQL oracles ``"sqlite"``/
            ``"duckdb"`` (:mod:`repro.execution.sql`: plans rendered to SQL
            and executed on a real engine; ``"duckdb"`` needs the optional
            duckdb package).  All return row-identical results and drive
            the cache/observer hooks identically; the choice only changes
            execution speed (and, for the oracles, engine independence).
        obs: the :class:`~repro.obs.Observability` handle (metrics registry
            + tracer + identity labels) every statistics view, cache and
            span of this session reports through.  A private handle with
            tracing disabled is created when omitted — passing one with a
            :class:`~repro.obs.Tracer` is how tracing is turned on.
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_model: Optional[CostModel] = None,
        dag_config: Optional[DagConfig] = None,
        *,
        incremental: bool = True,
        max_cached_batches: int = 16,
        max_cached_results: int = 128,
        database: Optional[Database] = None,
        matcache: Optional[MaterializationCache] = None,
        adaptive: Union[None, bool, AdaptiveConfig] = None,
        spill_dir: Union[None, str, Path] = None,
        spill_config: "Optional[SpillConfig]" = None,
        executor: str = DEFAULT_BACKEND,
        obs: Optional[Observability] = None,
    ):
        self.catalog = catalog
        # Resolve the backend name now so a typo fails at construction, not
        # at the first execution; the class is instantiated per database in
        # attach_database().
        self._executor_cls = resolve_backend(executor)
        self.executor_backend = executor
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.dag_config = dag_config if dag_config is not None else DagConfig()
        self.incremental = incremental
        self.max_cached_batches = max_cached_batches
        self.max_cached_results = max_cached_results
        self.obs = obs if obs is not None else Observability()
        self.statistics = SessionStatistics(self.obs.registry, labels=self.obs.labels)
        self._lock = threading.RLock()
        self._builder = DagBuilder(catalog, self.dag_config)
        self._batches: "OrderedDict[BatchKey, PreparedBatch]" = OrderedDict()
        self._results: "OrderedDict[Tuple, MQOResult]" = OrderedDict()
        #: Materialization-cache key per (memo uid, group, stored order).  A
        #: group's signature never changes, so it is canonicalized once, not
        #: on every warm execution; reset() drops the old memo's keys.
        self._cache_keys: Dict[Tuple[int, int, object], CacheKey] = {}

        # Not `adaptive or None`: a falsy AdaptiveConfig would be dropped.
        config = AdaptiveConfig() if adaptive is True else (
            None if adaptive is False else adaptive
        )
        if config is not None and not config.enabled:
            config = None
        self.adaptive_config: Optional[AdaptiveConfig] = config
        self.spill_dir: Optional[Path] = Path(spill_dir) if spill_dir is not None else None
        self.feedback: Optional[FeedbackStatsStore] = None
        self._estimator: Optional[AdaptiveCardinalityEstimator] = None
        self._drift: Optional[DriftDetector] = None
        #: Result-cache keys dropped by drift invalidation; recomputing one
        #: counts as a re-optimization in the statistics.  Insertion-ordered
        #: and bounded like the result cache itself (a key never requested
        #: again must not accumulate forever in a long-lived session).
        self._drift_pending: "OrderedDict[Tuple, bool]" = OrderedDict()
        if config is not None:
            self.feedback = FeedbackStatsStore(
                ewma_alpha=config.ewma_alpha,
                epoch_decay=config.epoch_decay,
                registry=self.obs.registry,
                labels=self.obs.labels,
            )
            if self.spill_dir is not None:
                self._restore_feedback()
            self._estimator = AdaptiveCardinalityEstimator(
                self.feedback, min_confidence=config.min_confidence
            )
            self._drift = DriftDetector(
                threshold=config.drift_threshold,
                min_observations=config.min_observations,
                min_confidence=config.min_confidence,
            )
        policy = BenefitAwarePolicy(self.feedback) if config is not None else None
        if matcache is None and self.spill_dir is not None:
            # Imported here, not at module level: repro.storage builds on
            # this package, so the reverse import must stay lazy.
            from ..storage.spill import SpillingMaterializationCache

            matcache = SpillingMaterializationCache.from_config(
                self.spill_dir / "matcache", spill_config, policy=policy, obs=self.obs
            )
        elif matcache is None and policy is not None:
            matcache = MaterializationCache(policy=policy, obs=self.obs)
        # Not `matcache or ...`: an empty cache has len() == 0 and is falsy.
        self.matcache = (
            matcache if matcache is not None else MaterializationCache(obs=self.obs)
        )
        self._database: Optional[Database] = None
        self._executor: Optional[Executor] = None
        if database is not None:
            self.attach_database(database)

    # ------------------------------------------------------------------ state

    @property
    def memo(self):
        """The session-wide fingerprint-interned memo (shared by all batches)."""
        with self._lock:  # reset() swaps the builder out from under readers
            return self._builder.memo

    def statistics_snapshot(self) -> Dict[str, int]:
        """A consistent copy of the session counters, taken under the lock.

        Reading :attr:`statistics` field-by-field mid-operation can observe
        a torn multi-counter state.
        """
        with self._lock:
            return self.statistics.as_dict()

    def reset(self) -> None:
        """Drop the memo and every cache (statistics are kept).

        Feedback observations survive a reset: they are keyed by semantic
        fingerprint, not by memo group id, so the rebuilt memo benefits from
        everything already learned.
        """
        with self._lock:
            self._builder = DagBuilder(self.catalog, self.dag_config)
            self._batches.clear()
            self._results.clear()
            self._cache_keys.clear()
            self._drift_pending.clear()
            self.matcache.invalidate()

    # ------------------------------------------------------------- execution

    @property
    def database(self) -> Optional[Database]:
        """The attached execution database, if any."""
        with self._lock:  # attach_database() swaps it concurrently
            return self._database

    def attach_database(self, database: Database) -> None:
        """Attach (or swap) the database the session executes plans against.

        Invalidation is purely token-driven: swapping to a database with
        *different* content changes the content fingerprint and
        ``ensure_token`` flushes the caches; swapping to a different object
        holding **identical** content keeps every cached row valid — the
        rows are derived from the data, not from the object identity (this
        is the same property that lets the durable tier trust a previous
        process's spill files).
        """
        with self._lock:
            self._database = database
            self._executor = self._executor_cls(database)
            # Backends that do their own deferred work (the SQL oracles
            # reload tables lazily) emit spans through the session's tracer;
            # the columnar one counts its key-index use in its registry.
            self._executor.bind_observability(self.obs)
            self.matcache.ensure_token(self._data_token())
            if self.feedback is not None:
                self.feedback.ensure_token(self._data_token())

    def _data_token(self) -> str:
        """The cache-invalidation token: the database's **content** fingerprint.

        Content-derived (not ``id()``- or version-based) so the token is
        stable across processes: a restarted session that loads the same
        data computes the same token, which is what lets the durable tier
        (:mod:`repro.storage`) trust spill files and feedback snapshots a
        previous process wrote — while any actual data change still yields
        a different token and invalidates exactly as before.
        """
        with self._lock:  # re-entrant: callers usually already hold it
            assert self._database is not None
            return self._database.fingerprint()

    # ------------------------------------------------------------- durability

    def snapshot_feedback(self, path: Union[None, str, Path] = None) -> Optional[Path]:
        """Persist the feedback store; returns the path written, or None.

        ``path`` defaults to ``spill_dir/feedback.json``; nothing happens
        (and None is returned) when the session has no feedback store or no
        spill directory to default into.
        """
        if self.feedback is None:
            return None
        if path is None:
            if self.spill_dir is None:
                return None
            path = self.spill_dir / FEEDBACK_SNAPSHOT
        path = Path(path)
        self.feedback.snapshot(path)
        return path

    def _restore_feedback(self) -> None:
        """Best-effort re-seed of the feedback store from ``spill_dir``.

        A missing snapshot is the normal cold start; a corrupt one degrades
        to an empty store (recovery must never make a session unusable).
        """
        assert self.feedback is not None and self.spill_dir is not None
        path = self.spill_dir / FEEDBACK_SNAPSHOT
        # Startup is the safe moment to sweep temp files a crash
        # mid-snapshot left behind (no snapshot of this process can be in
        # flight yet).
        try:
            for leftover in path.parent.glob(".feedback-tmp-*"):
                leftover.unlink()
        # A failed sweep only postpones cleanup to the next start; startup must not crash over it
        except OSError:
            pass
        if not path.exists():
            return
        from ..adaptive.stats import SnapshotError

        try:
            self.feedback.restore(path)
        # A missing/corrupt snapshot is the documented cold start; the store stays empty
        except (OSError, SnapshotError):
            pass

    def snapshot(self) -> None:
        """Persist everything still hot before a planned shutdown.

        Spills every in-memory materialization the cache can checkpoint
        (eviction alone only persists what *fell out* of RAM) and writes
        the feedback snapshot.  A session without a durable tier is a
        no-op; crashes without a snapshot lose only what was never
        spilled — never correctness.
        """
        checkpoint = getattr(self.matcache, "checkpoint", None)
        if callable(checkpoint):
            checkpoint()
        self.snapshot_feedback()

    # ---------------------------------------------------------------- prepare

    def prepare(self, batch: Union[QueryBatch, Sequence[Query]]) -> PreparedBatch:
        """Fold a batch into the session memo and return its DAG and engine.

        Queries already known to the memo (from this or any earlier batch)
        are recognized through their semantic fingerprints and add nothing;
        only genuinely new queries expand the memo.  A batch prepared before
        is returned straight from the LRU cache with all engine caches warm;
        any other batch — new queries or a new combination of known ones —
        gets its scoped DAG, one subsumption pass over that DAG's own
        structural groups and a fresh engine.
        """
        batch = _as_batch(batch)
        with self._lock:
            return self._prepare_locked(batch)

    def _prepare_locked(self, batch: QueryBatch) -> PreparedBatch:
        tracer = self.obs.tracer
        with tracer.span("optimize.intern", batch=batch.name) as span:
            interned = self._builder.intern_batch(batch)
            new = len(batch) - interned.reused
            span.set(new=new, reused=interned.reused)
        self.statistics.queries_interned += new
        self.statistics.queries_reused += interned.reused

        key: BatchKey = (
            tuple(sorted(interned.query_roots.items())),
            tuple(sorted(interned.block_roots)),
        )
        prepared = self._batches.get(key)
        if prepared is not None:
            self.statistics.batch_cache_hits += 1
            self._batches.move_to_end(key)
            return prepared

        dag = BatchDag(
            memo=self._builder.memo,
            catalog=self.catalog,
            query_roots=interned.query_roots,
            block_roots=interned.block_roots,
            config=self.dag_config,
        )
        # Every batch not prepared before runs the pass over its own groups:
        # a new combination of known queries holds pairs no pass has seen.
        with tracer.span("optimize.subsume") as span:
            outcome = self._builder.finalize(dag.structural_groups())
            span.set(**outcome._asdict())
        self.statistics.subsumption_runs += 1
        self.statistics.subsumption_pairs += outcome.pairs
        engine = BestCostEngine(dag, self.cost_model, incremental=self.incremental)
        prepared = PreparedBatch(
            key=key, dag=dag, engine=engine, new_queries=new, reused_queries=interned.reused
        )
        self._batches[key] = prepared
        self.statistics.batches_prepared += 1
        while len(self._batches) > self.max_cached_batches:
            self._batches.popitem(last=False)
        return prepared

    # --------------------------------------------------------------- optimize

    def optimize(
        self,
        batch: Union[QueryBatch, Sequence[Query]],
        strategy: str = "marginal-greedy",
        *,
        lazy: bool = True,
        cardinality: Optional[int] = None,
        decomposition: str = "use-cost",
    ) -> MQOResult:
        """Optimize one batch with one strategy, reusing all prior session work."""
        batch = _as_batch(batch)
        tracer = self.obs.tracer
        start = time.perf_counter()
        try:
            with tracer.span(
                "session.optimize", batch=batch.name, strategy=strategy
            ), self._lock:
                self.statistics.batches_served += 1
                prepared = self._prepare_locked(batch)
                result_key = (prepared.key, strategy, lazy, cardinality, decomposition)
                cached = self._results.get(result_key)
                if cached is not None:
                    self.statistics.result_cache_hits += 1
                    tracer.event("session.result_cache_hit")
                    self._results.move_to_end(result_key)
                    return replace(
                        cached,
                        batch_name=batch.name,
                        optimization_time=time.perf_counter() - start,
                    )
                if self._drift_pending.pop(result_key, False):
                    # This exact request was served before and its cached result
                    # was invalidated by drift: the recomputation below runs the
                    # strategy against the corrected statistics.
                    self.statistics.reoptimizations += 1
                    tracer.event("adaptive.reoptimize")
                with tracer.span("optimize.best_cost", strategy=strategy) as span:
                    extracted = prepared.engine.statistics.plans_extracted
                    result = self._run_strategy_locked(
                        prepared.dag,
                        prepared.engine,
                        batch_name=batch.name,
                        strategy=strategy,
                        lazy=lazy,
                        cardinality=cardinality,
                        decomposition=decomposition,
                    )
                    span.set(extracted=prepared.engine.statistics.plans_extracted - extracted)
                self._results[result_key] = result
                while len(self._results) > self.max_cached_results:
                    self._results.popitem(last=False)
                return result
        finally:
            self.obs.observe_latency(
                "session_optimize_seconds",
                time.perf_counter() - start,
                strategy=strategy,
            )

    def compare(
        self,
        batch: Union[QueryBatch, Sequence[Query]],
        strategies: Sequence[str] = ("volcano", "greedy", "marginal-greedy"),
        *,
        lazy: bool = True,
        cardinality: Optional[int] = None,
        decomposition: str = "use-cost",
    ) -> Dict[str, MQOResult]:
        """Run several strategies on the same batch with *independent* engines.

        ``compare`` exists to measure strategies against each other, so every
        strategy gets a fresh ``bestCost`` engine over the shared DAG — a
        shared (or pre-warmed) engine would let whichever strategy runs first
        absorb the cold-cache cost and distort the reported optimization
        times and oracle-call counts.  Costs and materializations are
        unaffected by engine caching; use :meth:`optimize` when serving.
        """
        batch = _as_batch(batch)
        results: Dict[str, MQOResult] = {}
        with self._lock:
            self.statistics.batches_served += 1
            prepared = self._prepare_locked(batch)
            for strategy in strategies:
                engine = BestCostEngine(
                    prepared.dag, self.cost_model, incremental=self.incremental
                )
                result = self._run_strategy_locked(
                    prepared.dag,
                    engine,
                    batch_name=batch.name,
                    strategy=strategy,
                    lazy=lazy,
                    cardinality=cardinality,
                    decomposition=decomposition,
                )
                results[result.strategy] = result
        return results

    def _run_strategy_locked(self, dag: BatchDag, engine: BestCostEngine, **knobs) -> MQOResult:
        """Run one strategy and publish what it cost the ``bestCost`` oracle.

        The engine's counters stay per engine; what this run added to them
        goes into the registry as ``optimizer_*`` series, so oracle calls and
        DP entries recomputed/reused are exported with everything else.
        """
        before = engine.statistics.as_dict()
        result = run_strategy(dag, engine, **knobs)
        for name, value in engine.statistics.as_dict().items():
            self.obs.counter("optimizer_" + name).inc(value - before[name])
        self.statistics.strategies_run += 1
        return result

    # ---------------------------------------------------------------- execute

    def execute_batch(
        self,
        batch: Union[QueryBatch, Sequence[Query]],
        strategy: str = "marginal-greedy",
        *,
        lazy: bool = True,
        cardinality: Optional[int] = None,
        decomposition: str = "use-cost",
    ) -> BatchExecution:
        """Optimize *and run* one batch, returning real rows for every query.

        The optimization half goes through :meth:`optimize` (and all of its
        caches); the execution half runs the chosen consolidated plan against
        the attached database, reading shared subexpressions from the
        cross-batch materialization cache and publishing any it had to
        compute.  Re-executing a previously executed batch on unchanged data
        therefore performs **zero** re-materializations and returns
        bit-identical rows.

        Example (runnable as-is)::

            from repro.catalog.tpcd import tpcd_catalog
            from repro.execution import tiny_tpcd_database
            from repro.service import OptimizerSession
            from repro.workloads.batches import composite_batch

            session = OptimizerSession(tpcd_catalog(1.0), database=tiny_tpcd_database())
            cold = session.execute_batch(composite_batch(1))
            warm = session.execute_batch(composite_batch(1))
            assert warm.rows == cold.rows and warm.materializations == 0

        Raises:
            RuntimeError: when no database is attached.
        """
        batch = _as_batch(batch)
        # One root span ties the optimize and execute halves into one trace
        # for direct callers; scheduler traffic already activated a trace.
        with self.obs.tracer.span(
            "session.execute_batch", batch=batch.name, strategy=strategy
        ):
            result = self.optimize(
                batch,
                strategy=strategy,
                lazy=lazy,
                cardinality=cardinality,
                decomposition=decomposition,
            )
            return self.execute_plans(result)

    def execute(
        self,
        query: Query,
        strategy: str = "marginal-greedy",
        **knobs,
    ) -> List[Row]:
        """Optimize and run a single query, returning its rows.

        A convenience wrapper over :meth:`execute_batch` for one-query
        batches; queries submitted together (or through the
        :class:`~repro.service.scheduler.BatchScheduler`) additionally share
        materialized subexpressions within their batch.
        """
        execution = self.execute_batch(
            QueryBatch(query.name, (query,)), strategy=strategy, **knobs
        )
        return execution.rows[query.name]

    def execute_plans(
        self, result: MQOResult, *, queries: Optional[Sequence[str]] = None
    ) -> BatchExecution:
        """Run an already-optimized :class:`~repro.core.mqo.MQOResult`.

        Materialized nodes are looked up in the cache by semantic
        fingerprint + stored sort order; misses are computed by the executor
        (in dependency order) and published back, stamped with the data
        version observed *before* execution started so a concurrent data
        change can never reinstate stale rows.  Row execution runs outside
        the session lock — concurrent workers only synchronize on the
        cache's own lock.

        ``queries`` restricts row production to a subset of the batch's
        query names (the scheduler uses this to skip rows nobody asked
        for); the batch's materializations always run, so the cache warms
        identically either way.
        """
        tracer = self.obs.tracer
        with tracer.span(
            "session.execute",
            batch=result.batch_name,
            strategy=result.strategy,
            backend=self.executor_backend,
        ) as execute_span:
            return self._execute_plans_traced(result, queries, execute_span)

    def _execute_plans_traced(
        self, result: MQOResult, queries: Optional[Sequence[str]], execute_span
    ) -> BatchExecution:
        tracer = self.obs.tracer
        with self._lock:
            if self._executor is None or self._database is None:
                raise RuntimeError(
                    "no database attached — call attach_database() before executing"
                )
            executor = self._executor
            memo = self._builder.memo
            if result.memo_uid != memo.uid:
                # Group ids are memo-local: resolving a foreign result's ids
                # against this memo would read unrelated groups and poison
                # the fingerprint-keyed cache with wrong rows.
                raise ValueError(
                    "result was optimized against a different memo "
                    f"(uid {result.memo_uid}, session memo uid {memo.uid}); "
                    "execute results on the session that produced them"
                )
            token = self._data_token()
            if self.matcache.ensure_token(token):
                self.statistics.data_invalidations += 1
            plan = result.plan
            keys = {}
            for gid, mat_plan in plan.materialization_plans.items():
                memo_key = (memo.uid, gid, mat_plan.order)
                key = self._cache_keys.get(memo_key)
                if key is None:
                    key = cache_key(memo.signature_of(gid), mat_plan.order)
                    self._cache_keys[memo_key] = key
                keys[gid] = key

        started = time.perf_counter()
        # Every backend exchanges ColumnBatch values with the cache in both
        # directions, so neither a warm read nor a fill copies rows.
        hits: Dict[int, ColumnBatch] = {}
        for gid, key in keys.items():
            cached = self.matcache.get_batch(key)
            if cached is not None:
                hits[gid] = cached

        fills = [0]

        def publish(gid: int, mat_plan, batch: ColumnBatch) -> None:
            fills[0] += 1
            self.matcache.put_batch(keys[gid], batch, cost=mat_plan.cost, token=token)

        # Runtime feedback: buffer observations outside the stats store and
        # absorb them only after the whole batch executed — an operator error
        # mid-batch discards the buffer, so a failing query can never leave
        # partial measurements behind (record-on-success only).
        observations: List[Tuple[int, int, int, Optional[float]]] = []
        observer = None
        feedback_on = self.feedback is not None
        trace_on = tracer.enabled
        if feedback_on or trace_on:

            def observer(node_plan, node_rows, node_elapsed: float) -> None:
                # `node_rows` is a ColumnBatch for a materialization, a row
                # list for a query plan.
                if feedback_on:
                    # A plan whose root merely re-reads a cached materialization
                    # measured a cache read, not the cost of producing the node:
                    # keep its (valid) cardinality but withhold the timing, or a
                    # few warm reads would erode the measured recomputation time
                    # the benefit-aware cache policy scores entries with.
                    measured: Optional[float] = (
                        None
                        if node_plan.op is PhysicalOp.READ_MATERIALIZED
                        else node_elapsed
                    )
                    sized = (
                        estimate_rows_bytes if isinstance(node_rows, list) else estimate_batch_bytes
                    )
                    observations.append(
                        (node_plan.group, len(node_rows), sized(node_rows), measured)
                    )
                if trace_on:
                    # The executor times each plan node; file it as a proper
                    # span of the current trace after the fact.
                    tracer.record_span(
                        "execute.plan_node",
                        node_elapsed,
                        op=node_plan.op.name,
                        group=node_plan.group,
                        rows=len(node_rows),
                    )

        rows = executor.execute_result(
            plan,
            materialized=hits,
            fill_listener=publish,
            queries=queries,
            observer=observer,
        )
        elapsed = time.perf_counter() - started
        self.obs.observe_latency(
            "session_execute_seconds", elapsed, strategy=result.strategy
        )
        execute_span.set(
            cache_hits=len(hits),
            materializations=fills[0],
            rows=sum(len(r) for r in rows.values()),
        )

        with self._lock:
            self.statistics.batches_executed += 1
            self.statistics.queries_executed += len(rows)
            self.statistics.rows_returned += sum(len(r) for r in rows.values())
            self.statistics.materializations_computed += fills[0]
            self.statistics.materialization_cache_hits += len(hits)
            if observations and token == self._data_token():
                # Same stale-token rejection as the materialization cache's
                # fills: if the data (or the attached database) changed while
                # this batch was executing, its measurements describe rows
                # that no longer exist — absorbing them would rebind the
                # store to the old token and let obsolete cardinalities
                # masquerade as the freshest epoch.
                with tracer.span("adaptive.absorb", observations=len(observations)):
                    self._absorb_observations_locked(observations, token)
        return BatchExecution(
            batch_name=result.batch_name,
            strategy=result.strategy,
            rows=rows,
            result=result,
            cache_hits=len(hits),
            materializations=fills[0],
            execution_time=elapsed,
        )

    # ---------------------------------------------------------------- feedback

    def _absorb_observations_locked(
        self,
        observations: List[Tuple[int, int, int, Optional[float]]],
        token: str,
    ) -> None:
        """Fold one successful execution's measurements into the feedback loop.

        Each observation is recorded under the node's semantic fingerprint,
        then checked for drift against the memo group's current cardinality
        estimate; drifted groups have their estimates corrected and every
        cached result (and prepared engine) that can reach them is
        invalidated, to be re-optimized with the corrected statistics on the
        next request.  Called with the session lock held.
        """
        assert self.feedback is not None and self._drift is not None
        memo = self._builder.memo
        self.feedback.ensure_token(token)
        drifted: Dict[int, DriftEvent] = {}
        for gid, observed_rows, observed_bytes, observed_elapsed in observations:
            key = canonical_key(memo.signature_of(gid))
            stats = self.feedback.record(
                key, rows=observed_rows, bytes=observed_bytes, elapsed=observed_elapsed
            )
            self.statistics.observations_recorded += 1
            event = self._drift.check(
                memo.get(gid).rows, stats, confidence=self.feedback.confidence(key)
            )
            if event is not None:
                drifted[gid] = event
        if drifted:
            self._apply_drift_locked(drifted)

    def _apply_drift_locked(self, drifted: Dict[int, DriftEvent]) -> None:
        """Correct drifted estimates and invalidate everything derived from them."""
        assert self._estimator is not None
        tracer = self.obs.tracer
        memo = self._builder.memo
        for gid, event in drifted.items():
            group = memo.get(gid)
            group.rows = max(self._estimator.estimate_rows(event.key, group.rows), 1.0)
            width = self._estimator.observed_width(event.key)
            if width is not None:
                group.row_width = max(width, 1.0)
            self.statistics.drift_events += 1
            if tracer.enabled:
                tracer.event("adaptive.drift", group=gid, key=event.key[:16])

        # One upward traversal computes every group that can reach a drifted
        # node (the drifted groups plus all their memo ancestors); a cached
        # artifact is affected exactly when one of its roots/blocks is in
        # this set.  Full-memo parent edges make this a conservative superset
        # of each batch's active scope: at worst an unaffected batch
        # re-optimizes once — it can never keep serving a plan built from
        # statistics known to be wrong.
        parents = memo.parents()
        affected = set(drifted)
        stack = list(drifted)
        while stack:
            for parent in parents.get(stack.pop(), ()):
                if parent not in affected:
                    affected.add(parent)
                    stack.append(parent)

        def is_affected(batch_key: BatchKey) -> bool:
            roots, blocks = batch_key
            return any(gid in affected for _, gid in roots) or any(
                gid in affected for gid in blocks
            )

        # Prepared batches keep engines whose DP tables were costed with the
        # old estimates; affected ones are dropped (the rebuild on next
        # prepare is cheap — the memo is unchanged).
        for batch_key in list(self._batches):
            if is_affected(batch_key):
                del self._batches[batch_key]
        for result_key in list(self._results):
            if is_affected(result_key[0]):
                del self._results[result_key]
                self._drift_pending[result_key] = True
                self._drift_pending.move_to_end(result_key)
                self.statistics.results_invalidated += 1
        while len(self._drift_pending) > self.max_cached_results:
            self._drift_pending.popitem(last=False)


def _as_batch(batch: Union[QueryBatch, Sequence[Query]]) -> QueryBatch:
    if isinstance(batch, QueryBatch):
        return batch
    return QueryBatch("batch", tuple(batch))

