"""The run controller: drive one serving configuration with simulated traffic.

:func:`run_setting` is the harness's measurement unit.  It builds a world
(:mod:`.scale`), generates traffic (:mod:`.traffic`), stands up the exact
serving stack the repository ships — one
:class:`~repro.service.session.OptimizerSession` behind a
:class:`~repro.service.scheduler.BatchScheduler` — and submits every
request at its open-loop arrival time, injecting drift at the configured
fractions of the run.  While it drives, it measures:

* **throughput** (completed requests per driving second, drift pauses
  excluded) and **latency** — each request's completion is recorded into a
  ``harness_request_seconds`` histogram in the session's own
  :class:`~repro.obs.MetricsRegistry`, and the report reads p50/p95/p99
  from there alongside the serving layer's optimize/execute/queue-wait
  histograms, so the harness and the production exposition agree by
  construction;
* **counters** — the session, materialization-cache (spill tier
  included) and feedback-store statistics; and
* **correctness** — every oracle-sampled request's rows are replayed
  against the independent reference backends (:mod:`.oracle`) after each
  segment drains, so a run that returned wrong rows *fails*, it does not
  just report fast numbers.

Between drift steps the scheduler is drained; oracle replays therefore
always compare against the data version that produced the serving rows.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ...obs import HistogramSnapshot, Observability
from ...service.scheduler import BatchScheduler
from ...service.session import OptimizerSession
from ...storage.spill import SpillStatistics
from ...adaptive.stats import FeedbackStatistics
from ...execution.data import Row
from .oracle import CorrectnessOracle
from .scale import ScaleSpec, build_world
from .traffic import (
    Request,
    TrafficSpec,
    generate_traffic,
    parse_arrival,
    templates_for,
)

__all__ = [
    "HarnessConfig",
    "SettingReport",
    "DriveResult",
    "drive_requests",
    "run_setting",
]

#: The latency series every report carries (merged across labels).
LATENCY_SERIES: Tuple[Tuple[str, str], ...] = (
    ("request", "harness_request_seconds"),
    ("optimize", "session_optimize_seconds"),
    ("execute", "session_execute_seconds"),
    ("queue_wait", "scheduler_queue_wait_seconds"),
)


@dataclass(frozen=True)
class HarnessConfig:
    """Everything one harness setting depends on — all of it seedable.

    ``scale``/``workload``/``seed`` size the data, the ``TrafficSpec``
    fields shape the traffic, and the remaining knobs pick the serving
    configuration under test.  :meth:`label` names the setting in reports.
    """

    # Data
    scale: float = 1.0
    workload: str = "star"
    n_dimensions: int = 4
    key_fanout: int = 4
    value_skew: float = 0.0
    # Traffic
    requests: int = 200
    tenants: int = 8
    zipf: float = 1.1
    template_zipf: float = 1.0
    templates: int = 8
    arrival: str = "closed"
    drift_at: Tuple[float, ...] = ()
    # Serving stack
    executor: str = "row"
    strategy: str = "marginal-greedy"
    workers: int = 4
    # Multi-query optimization cost grows superlinearly in batch size
    # (covering-subsumption search); 4 keeps sharing live without the
    # optimizer dominating every latency percentile.
    max_batch_size: int = 4
    adaptive: bool = False
    spill_dir: Optional[str] = None
    # Correctness
    oracle: Tuple[str, ...] = ("row",)
    oracle_sample: float = 0.1
    # Seeds: one for the data, one for the traffic, so traffic can be
    # varied over fixed data (and vice versa).
    seed: int = 0
    traffic_seed: Optional[int] = None

    def __post_init__(self):
        for fraction in self.drift_at:
            if not 0.0 < fraction < 1.0:
                raise ValueError("drift fractions must be strictly within (0, 1)")
        parse_arrival(self.arrival)  # fail at config build, not mid-run

    def label(self) -> str:
        return (
            f"{self.workload}-x{self.scale:g}-{self.executor}"
            f"-{self.arrival.replace(':', '_')}"
        )

    def scale_spec(self) -> ScaleSpec:
        return ScaleSpec(
            scale=self.scale,
            n_dimensions=self.n_dimensions,
            key_fanout=self.key_fanout,
            value_skew=self.value_skew,
        )

    def traffic_spec(self) -> TrafficSpec:
        return TrafficSpec(
            requests=self.requests,
            tenants=self.tenants,
            zipf=self.zipf,
            template_zipf=self.template_zipf,
            arrival=self.arrival,
            oracle_sample=self.oracle_sample,
            seed=self.seed if self.traffic_seed is None else self.traffic_seed,
        )

    def with_overrides(self, **overrides) -> "HarnessConfig":
        return replace(self, **overrides)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass
class DriveResult:
    """What one driven segment (or run) produced."""

    completed: int = 0
    wall_seconds: float = 0.0
    started_at: float = 0.0
    last_done_at: float = 0.0
    #: Rows of every oracle-sampled request, keyed by request index.
    sampled_rows: Dict[int, Optional[List[Row]]] = field(default_factory=dict)


@dataclass
class SettingReport:
    """The measured outcome of one setting — everything the CSV/JSON carry."""

    label: str
    config: Dict[str, object]
    requests: int
    completed: int
    wall_seconds: float
    throughput_rps: float
    latency: Dict[str, Dict[str, object]]
    counters: Dict[str, Dict[str, int]]
    oracle: Dict[str, object]
    drift_steps_applied: int
    sampled_rows_digest: str
    #: In-memory only (benchmarks compare rows across settings); never
    #: serialized — a report must stay cheap to write and diff.
    sampled_rows: Dict[int, Optional[List[Row]]] = field(default_factory=dict, repr=False)

    @property
    def oracle_mismatches(self) -> int:
        return int(self.oracle.get("mismatches", 0))

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "config": self.config,
            "requests": self.requests,
            "completed": self.completed,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency,
            "counters": self.counters,
            "oracle": self.oracle,
            "drift_steps_applied": self.drift_steps_applied,
            "sampled_rows_digest": self.sampled_rows_digest,
        }


def drive_requests(
    scheduler: BatchScheduler,
    requests: Sequence[Request],
    *,
    obs: Observability,
    strategy: str = "marginal-greedy",
    open_loop: bool = True,
    run_started: Optional[float] = None,
) -> DriveResult:
    """Submit requests (open-loop: each at its arrival offset) and wait.

    Latency is measured from the request's *scheduled* arrival when
    open-loop (so queueing caused by a saturated system is charged to the
    system, not hidden — no coordinated omission), from the actual submit
    otherwise, and recorded into the ``harness_request_seconds`` histogram
    of ``obs``.  Returns once every submitted future resolved.
    """
    started = time.monotonic() if run_started is None else run_started
    lock = threading.Lock()
    last_done = [started]
    pending = []
    for request in requests:
        if open_loop:
            delay = started + request.arrival - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        # Open-loop latency runs from the *scheduled* arrival, so queueing
        # inside a saturated serving stack is charged to the stack (no
        # coordinated omission) — but never from before the submit loop
        # itself reached the request (a drift pause between segments delays
        # submission, and the stack cannot owe time for work it was never
        # handed).
        reference = (
            max(started + request.arrival, time.monotonic())
            if open_loop
            else time.monotonic()
        )
        future = scheduler.submit(request.query, strategy=strategy, execute=True)

        def on_done(f, reference=reference):
            now = time.monotonic()
            with lock:
                if now > last_done[0]:
                    last_done[0] = now
            if f.cancelled() or f.exception() is not None:
                return
            obs.observe_latency("harness_request_seconds", now - reference)

        future.add_done_callback(on_done)
        pending.append((request, future))

    result = DriveResult(started_at=started)
    for request, future in pending:
        outcome = future.result(timeout=600)
        result.completed += 1
        if request.oracle:
            result.sampled_rows[request.index] = outcome.rows
    result.last_done_at = last_done[0]
    result.wall_seconds = max(last_done[0] - started, 1e-9)
    return result


def _segments(
    requests: Sequence[Request], drift_at: Sequence[float]
) -> List[Sequence[Request]]:
    """Split the request list at the drift fractions (of request count)."""
    cuts = sorted({max(1, min(len(requests) - 1, int(round(f * len(requests))))) for f in drift_at})
    out: List[Sequence[Request]] = []
    previous = 0
    for cut in cuts:
        if cut > previous:
            out.append(requests[previous:cut])
            previous = cut
    out.append(requests[previous:])
    return out


def _merged_percentiles(obs: Observability, name: str) -> Optional[Dict[str, object]]:
    snapshots = list(obs.registry.histogram_snapshots(name).values())
    if not snapshots:
        return None
    merged = HistogramSnapshot.merge(snapshots)
    return {
        "count": merged.count,
        "mean": merged.mean,
        "p50": merged.p50,
        "p95": merged.p95,
        "p99": merged.p99,
    }


def _counter_groups(session: OptimizerSession) -> Dict[str, Dict[str, int]]:
    """Session + cache (+ spill) + feedback counters, schema-stable.

    Every field of every group is always present — a non-spilling,
    non-adaptive run reports zeros, not missing columns — so CSVs from
    different settings stay union-compatible.
    """
    cache = {name: 0 for name in SpillStatistics.field_names()}
    cache.update(session.matcache.statistics_snapshot())
    feedback = {name: 0 for name in FeedbackStatistics.field_names()}
    if session.feedback is not None:
        feedback.update(session.feedback.statistics_snapshot())
    return {
        "session": session.statistics_snapshot(),
        "cache": cache,
        "feedback": feedback,
    }


def _rows_digest(sampled: Dict[int, Optional[List[Row]]]) -> str:
    """A stable digest of the sampled rows, for cross-setting bit-identity.

    Two settings that served the same traffic must produce equal digests —
    the cheap way for a matrix to assert "a backend swap within the
    exact-order family never changed the answers" without
    holding every row set in the report.
    """
    digest = hashlib.sha256()
    for index in sorted(sampled):
        rows = sampled[index]
        digest.update(b"%d:" % index)
        payload = "<missing>" if rows is None else repr(rows)
        digest.update(payload.encode("utf-8"))
        digest.update(b";")
    return digest.hexdigest()


def run_setting(
    config: HarnessConfig,
    *,
    traffic: Optional[Sequence[Request]] = None,
    obs: Optional[Observability] = None,
) -> SettingReport:
    """Build the world, drive the traffic, measure, verify, report.

    ``traffic`` may be injected to replay the *identical* request list
    across settings (the benchmark matrix does); by default it is generated
    from the config's seeds.  A fresh :class:`~repro.obs.Observability`
    registry is created per setting unless one is passed, so settings never
    bleed histograms into each other.
    """
    if traffic is None:
        templates = templates_for(
            config.workload,
            count=config.templates,
            n_dimensions=config.n_dimensions,
            seed=config.seed,
        )
        traffic = generate_traffic(templates, config.traffic_spec())
    segments = _segments(traffic, config.drift_at)
    world = build_world(
        config.scale_spec(),
        config.workload,
        seed=config.seed,
        max_drift_steps=len(segments) - 1,
    )
    obs = obs if obs is not None else Observability()
    session = OptimizerSession(
        world.catalog,
        database=world.database,
        executor=config.executor,
        adaptive=config.adaptive or None,
        spill_dir=config.spill_dir,
        obs=obs,
    )
    oracle = (
        CorrectnessOracle(
            world.catalog,
            world.database,
            serving_backend=config.executor,
            backends=tuple(config.oracle),
            strategy=config.strategy,
        )
        if config.oracle
        else None
    )
    open_loop = not config.arrival.startswith("closed")
    total = DriveResult()
    with BatchScheduler(
        session,
        workers=config.workers,
        max_batch_size=config.max_batch_size,
        strategy=config.strategy,
    ) as scheduler:
        clock = time.monotonic()
        for index, segment in enumerate(segments):
            outcome = drive_requests(
                scheduler,
                segment,
                obs=obs,
                strategy=config.strategy,
                open_loop=open_loop,
                run_started=clock if open_loop else None,
            )
            # Drain before verifying or drifting: the oracle must replay
            # against the data version that produced these rows.
            scheduler.flush(timeout=600)
            if oracle is not None:
                for request in segment:
                    if request.oracle:
                        oracle.verify(request, outcome.sampled_rows.get(request.index))
            total.completed += outcome.completed
            total.sampled_rows.update(outcome.sampled_rows)
            if open_loop:
                # Segments share one absolute clock; total wall is the
                # span from run start to the latest completion so far.
                total.wall_seconds = max(
                    total.wall_seconds, outcome.last_done_at - clock, 1e-9
                )
            else:
                # Closed-loop segments each measure their own span, so
                # summing them excludes the drift pauses in between.
                total.wall_seconds += outcome.wall_seconds
            if index < len(segments) - 1:
                world.inject_drift()
                # Open-loop arrivals keep their absolute schedule; the
                # drift step's wall time eats into the next segment's
                # slack rather than shifting every deadline.
    latency = {}
    for key, series in LATENCY_SERIES:
        percentiles = _merged_percentiles(obs, series)
        if percentiles is not None:
            latency[key] = percentiles
    return SettingReport(
        label=config.label(),
        config=config.as_dict(),
        requests=len(traffic),
        completed=total.completed,
        wall_seconds=total.wall_seconds,
        throughput_rps=total.completed / total.wall_seconds,
        latency=latency,
        counters=_counter_groups(session),
        oracle=oracle.report() if oracle is not None else {"backends": [], "checked": 0, "mismatches": 0, "mismatch_details": []},
        drift_steps_applied=world.drift_steps_applied,
        sampled_rows_digest=_rows_digest(total.sampled_rows),
        sampled_rows=total.sampled_rows,
    )
