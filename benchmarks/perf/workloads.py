"""The four benchmark workloads.

Each workload is a sequence of identical *rounds*: ``setup()`` builds the
program state from the seed, ``run_round()`` serves one fixed unit of work
from the same starting state every time, and ``verify()`` checks the rows
the rounds returned against an independent oracle, outside every timed
region.  Because rounds are identical, counts are exact per round however
many rounds fit into ``--seconds``.

``--seed`` feeds **data generation only** (table rows).  Query shapes and
the traffic trace are fixed constants below: the optimizer's work depends on
catalog statistics and query shapes, not on row values, so plan costs and
every count are the same for every seed, and timings differ between seeds by
measurement noise only — which is what lets ``plan_cost_ratio`` carry a
1e-9 bound and keeps the seed-to-seed spread inside the latency bounds.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.tpcd import tpcd_catalog
from repro.execution.data import tiny_tpcd_database
from repro.service.scheduler import BatchScheduler
from repro.service.session import OptimizerSession
from repro.workloads.batches import composite_batch
from repro.workloads.harness.oracle import CorrectnessOracle, canonical_rows
from repro.workloads.harness.scale import ScaleSpec, build_world
from repro.workloads.harness.traffic import TrafficSpec, generate_traffic, star_templates
from repro.workloads.synthetic import (
    random_star_batch,
    star_schema_catalog,
    star_schema_database,
)

from .calibration import calibration_sample
from .tracing import SpanRecorder

__all__ = ["Round", "WORKLOADS", "counters", "rows_digest"]

_now = time.perf_counter


@dataclass
class Round:
    """What one round did: timings, the rows to verify, and the state to count."""

    wall: float
    latencies: List[float]
    #: Rows returned, in the shape the workload's ``verify`` expects.
    outputs: list
    #: ``MQOResult`` of every strategy run *inside* this round.
    results: list
    #: The sessions that served the round, and their counters before it.
    sessions: List[OptimizerSession]
    before: Dict[str, float] = field(default_factory=dict)
    errors: int = 0
    #: Calibration samples taken inside the round (their time is not in ``wall``).
    calibrations: List[float] = field(default_factory=list)
    #: Set by the runner: whether the round ran under the span recorder, and
    #: calibrated seconds per measured second while it ran.
    traced: bool = False
    scale: float = 1.0


def counters(sessions: Sequence[OptimizerSession]) -> Dict[str, float]:
    """Cumulative layer counters (and ``gauge.*`` levels) summed over sessions."""
    out: Dict[str, float] = defaultdict(float)
    for session in sessions:
        for name, value in session.statistics_snapshot().items():
            out["session." + name] += value
        for name, value in session.matcache.statistics_snapshot().items():
            out["matcache." + name] += value
        memo = session.memo.stats()
        out["gauge.memo_groups"] += memo["groups"]
        out["gauge.memo_mexprs"] += memo["mexprs"]
        out["gauge.matcache_bytes"] += session.matcache.current_bytes
        out["gauge.disk_bytes"] += getattr(session.matcache, "disk_bytes", 0)
    return out


def rows_digest(row_sets: Sequence[Optional[list]]) -> str:
    """SHA-256 over row sets in order (the harness' sampled-rows idiom)."""
    digest = hashlib.sha256()
    for index, rows in enumerate(row_sets):
        digest.update(b"%d:" % index)
        digest.update(("<missing>" if rows is None else repr(rows)).encode("utf-8"))
        digest.update(b";")
    return digest.hexdigest()


def _op(recorder: Optional[SpanRecorder]):
    return recorder.op() if recorder is not None else nullcontext()


class Workload:
    """What the runner needs from a workload.

    ``setup`` may be called several times (``setup_s`` is the median); each
    call rebuilds everything from the seed.  ``run_round`` serves one round,
    under ``recorder`` when it is a traced one.  ``verify`` returns the number
    of failed operations and the digest of the verified rows.
    """

    name: str
    #: The executor backend the sessions run (whose class the tracer wraps).
    backend = "row"
    #: Bytes the materialization cache holds when nothing is evicted.
    working_set = 0

    def __init__(self, seed: int, tiny: bool, workroot: Path):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, recorder: Optional[SpanRecorder]) -> Round:
        raise NotImplementedError

    def verify(self, rounds: List[Round]) -> Tuple[int, str]:
        raise NotImplementedError

    def plans(self, rounds: List[Round]) -> list:
        """The ``MQOResult`` objects ``plan_cost_ratio`` sums over."""
        return rounds[0].results

    def close(self) -> None:
        """Remove whatever the workload wrote to disk."""


class TpcdCold(Workload):
    """The paper's Experiment 1: cold multi-query optimization of BQ2.

    One op = one round = a fresh session and ``execute_batch`` of the
    composite batch with the session defaults (marginal-greedy, lazy, row).
    BQ2 alone (≈ 4.5 s) rather than BQ2 then BQ3 (≈ 13 s): a run then holds
    five passes instead of one, and the median of five shrugs off a burst
    that a single sample reports as a regression.
    """

    name = "tpcd_cold"

    def __init__(self, seed: int, tiny: bool, workroot: Path):
        super().__init__(seed, tiny, workroot)
        self.batch_indexes = (1,) if tiny else (2,)

    def setup(self) -> None:
        self.catalog = tpcd_catalog(1.0)
        self.database = tiny_tpcd_database(seed=self.seed)
        self.batches = [composite_batch(i) for i in self.batch_indexes]
        # Discarded warm-up: first-use imports and strategy registration.
        OptimizerSession(self.catalog, database=self.database).execute_batch(
            composite_batch(1)
        )

    def run_round(self, recorder: Optional[SpanRecorder]) -> Round:
        sessions, executions = [], []
        errors = 0
        start = _now()
        with _op(recorder):
            try:
                for batch in self.batches:
                    session = OptimizerSession(self.catalog, database=self.database)
                    sessions.append(session)
                    executions.append(session.execute_batch(batch))
            except Exception:
                errors = 1
        wall = _now() - start
        return Round(
            wall=wall,
            latencies=[wall],
            outputs=executions,
            results=[execution.result for execution in executions],
            sessions=sessions,
            errors=errors,
        )

    def verify(self, rounds: List[Round]) -> Tuple[int, str]:
        """Rows of the last pass's shared plans on a larger database equal a
        SQLite session running the no-sharing plan; earlier passes must have
        chosen the very same plans."""
        big = tiny_tpcd_database(seed=self.seed, orders=4000)
        reference = OptimizerSession(self.catalog, database=big, executor="sqlite")
        last = rounds[-1]
        served: List[list] = []
        ok = len(last.outputs) == len(self.batches)
        for batch, session, execution in zip(self.batches, last.sessions, last.outputs):
            session.attach_database(big)
            rows = session.execute_plans(execution.result).rows
            expected = reference.execute_batch(batch, strategy="volcano").rows
            for query in batch:
                served.append(rows[query.name])
                ok = ok and canonical_rows(rows[query.name]) == canonical_rows(
                    expected[query.name]
                )
        ok = ok and any(served)  # an all-empty comparison proves nothing
        chosen = [(r.materialized, r.total_cost) for r in last.results]
        failed = 0
        for round_ in rounds:
            same = [(r.materialized, r.total_cost) for r in round_.results] == chosen
            if round_.errors or not (ok and same):
                failed += 1
        return failed, rows_digest([canonical_rows(rows) for rows in served])


class StarServing(Workload):
    """Closed-loop dashboard traffic through the scheduler into one session.

    One client submits the next 4 requests and waits for all 4; one op = one
    request.  Every round replays the same trace into a fresh session, whose
    shared memo grows past 1k groups.
    """

    name = "star_serving"
    GROUP = 4
    #: The trace is a constant of the workload (see the module docstring).
    TRAFFIC_SEED = 5

    def __init__(self, seed: int, tiny: bool, workroot: Path):
        super().__init__(seed, tiny, workroot)
        self.requests_per_round = self.GROUP if tiny else 180
        self.oracle_every = 2 if tiny else 20  # a 5 % sample at full size

    def setup(self) -> None:
        self.world = build_world(ScaleSpec(scale=1.0), "star", seed=self.seed)
        self.requests = generate_traffic(
            star_templates(6),
            TrafficSpec(
                requests=self.requests_per_round,
                tenants=8,
                zipf=1.2,
                seed=self.TRAFFIC_SEED,
            ),
        )
        self._serve(self.requests[: self.GROUP], None)  # discarded warm-up

    def _serve(self, requests, recorder: Optional[SpanRecorder]) -> Round:
        session = OptimizerSession(self.world.catalog, database=self.world.database)
        latencies: List[float] = []
        outputs: List[Optional[list]] = []
        results: Dict[int, object] = {}
        calibrations: List[float] = []
        errors = 0
        # max_delay only bounds the wait for companions; a group of GROUP
        # dispatches the moment it is complete, so a generous delay costs
        # nothing and keeps every micro-batch at exactly GROUP queries.
        scheduler = BatchScheduler(
            session, workers=2, max_batch_size=self.GROUP, max_delay=0.5
        )
        try:
            start = _now()
            paused, calibrated = 0.0, start
            for at in range(0, len(requests), self.GROUP):
                # Between groups nothing is in flight: a round of several
                # seconds samples the host's speed about once a second.
                if _now() - calibrated >= 1.0:
                    pause = _now()
                    calibrations.append(calibration_sample())
                    calibrated = _now()
                    paused += calibrated - pause
                with _op(recorder):
                    submitted = []
                    for request in requests[at : at + self.GROUP]:
                        submitted.append(
                            (_now(), scheduler.submit(request.query, execute=True))
                        )
                    for sent, future in submitted:
                        try:
                            outcome = future.result(timeout=120)
                        except Exception:
                            errors += 1
                            outputs.append(None)
                        else:
                            outputs.append(outcome.rows)
                            results[id(outcome.batch_result)] = outcome.batch_result
                        latencies.append(_now() - sent)
            wall = _now() - start - paused
        finally:
            scheduler.close()
        return Round(
            wall=wall,
            latencies=latencies,
            outputs=outputs,
            results=list(results.values()),
            sessions=[session],
            errors=errors,
            calibrations=calibrations,
        )

    def run_round(self, recorder: Optional[SpanRecorder]) -> Round:
        return self._serve(self.requests, recorder)

    def verify(self, rounds: List[Round]) -> Tuple[int, str]:
        oracle = CorrectnessOracle(
            self.world.catalog, self.world.database, serving_backend="row"
        )
        sample = self.requests[:: self.oracle_every]
        failed = 0
        for round_ in rounds:
            failed += round_.errors
            for request in sample:
                rows = round_.outputs[request.index]
                if rows is not None:  # a raised op is already counted
                    oracle.verify(request, rows)
        failed += oracle.mismatch_count
        return failed, rows_digest([rounds[-1].outputs[r.index] for r in sample])


class ExecRam(Workload):
    """Executing pre-optimized plans through the materialization cache.

    Set-up optimizes the batches; a round is a data refresh
    (``matcache.invalidate()``) followed by ``PASSES`` passes over the
    batches, so a quarter of the ops fill the cache (p95) and the rest hit
    it (p50).  One op = one ``execute_batch``; no strategy runs in a round.
    """

    name = "exec_ram"
    backend = "columnar"
    PASSES = 4
    #: ``random_star_batch(3, seed=s, n_dimensions=4)`` for these seeds:
    #: cheap to optimize (set-up is repeated) and materializing three
    #: ``fact ⋈ dim`` nodes (~0.9 MB each) next to two small two-dimension
    #: joins.  ``TINY_BATCH_SEEDS`` alone hold the three large nodes.
    BATCH_SEEDS = (1, 3, 4, 7, 12, 16, 21, 23)
    TINY_BATCH_SEEDS = (1, 4, 7)

    def __init__(self, seed: int, tiny: bool, workroot: Path):
        super().__init__(seed, tiny, workroot)
        self.fact_rows = 2_000 if tiny else 60_000
        self.batch_seeds = self.TINY_BATCH_SEEDS if tiny else self.BATCH_SEEDS

    def _session_options(self) -> dict:
        return {}

    def setup(self) -> None:
        self.catalog = star_schema_catalog(n_dimensions=4, key_fanout=16)
        self.database = star_schema_database(
            fact_rows=self.fact_rows, seed=self.seed, n_dimensions=4, key_fanout=16
        )
        self.batches = [
            random_star_batch(3, seed=s, n_dimensions=4) for s in self.batch_seeds
        ]
        self.session = OptimizerSession(
            self.catalog,
            database=self.database,
            executor=self.backend,
            **self._session_options(),
        )
        self.optimized = [self.session.optimize(batch) for batch in self.batches]
        # Unconstrained warm-up pass: lazy set-up, and the working-set size.
        for batch in self.batches:
            self.session.execute_batch(batch)
        self.working_set = self.session.matcache.current_bytes

    def run_round(self, recorder: Optional[SpanRecorder]) -> Round:
        session = self.session
        before = counters([session]) if recorder is not None else {}
        latencies: List[float] = []
        outputs: List[Optional[dict]] = []
        errors = 0
        start = _now()
        session.matcache.invalidate()  # the data refresh
        for _ in range(self.PASSES):
            for batch in self.batches:
                sent = _now()
                with _op(recorder):
                    try:
                        outputs.append(session.execute_batch(batch).rows)
                    except Exception:
                        errors += 1
                        outputs.append(None)
                latencies.append(_now() - sent)
        wall = _now() - start
        return Round(
            wall=wall,
            latencies=latencies,
            outputs=outputs,
            results=[],
            sessions=[session],
            before=before,
            errors=errors,
        )

    def plans(self, rounds: List[Round]) -> list:
        return self.optimized

    def verify(self, rounds: List[Round]) -> Tuple[int, str]:
        reference = reference_rows(self.catalog, self.database, self.batches)
        failed = 0
        for round_ in rounds:
            for index, rows in enumerate(round_.outputs):
                if rows != reference[index % len(self.batches)]:
                    failed += 1
        last_pass = rounds[-1].outputs[-len(self.batches) :]
        return failed, rows_digest(
            [rows[query.name] if rows is not None else None
             for batch, rows in zip(self.batches, last_pass)
             for query in batch]
        )


def reference_rows(catalog, database, batches) -> List[dict]:
    """Row-executor reference rows per batch (the exec workloads' oracle)."""
    session = OptimizerSession(catalog, database=database, executor="row")
    return [session.execute_batch(batch).rows for batch in batches]


class ExecSpill(ExecRam):
    """``exec_ram`` with the cache's RAM tier capped at half the working set,
    so evictions spill to disk and later reads fault back in."""

    name = "exec_spill"

    def __init__(self, seed: int, tiny: bool, workroot: Path):
        super().__init__(seed, tiny, workroot)
        # Spill files stay inside the checkout (the benchmark writes nowhere else).
        workroot.mkdir(exist_ok=True)
        self.workroot = workroot
        self.workdir = tempfile.mkdtemp(prefix="exec_spill-", dir=workroot)

    def _session_options(self) -> dict:
        return {"spill_dir": tempfile.mkdtemp(prefix="setup-", dir=self.workdir)}

    def setup(self) -> None:
        super().setup()
        self.session.matcache.max_bytes = max(self.working_set // 2, 1)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workroot.rmdir()
        # repro-lint: disable=bare-except-swallow -- not empty: another run's directory is still in there
        except OSError:
            pass


WORKLOADS = {cls.name: cls for cls in (TpcdCold, StarServing, ExecRam, ExecSpill)}
