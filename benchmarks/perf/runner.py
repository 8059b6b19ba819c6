"""Measure one workload: set-up, timed rounds, verification, metrics.

An untraced run (``trace=False``) reports the end-to-end metrics; a traced
run alternates untraced and traced rounds and reports the per-layer metrics
from the traced ones (the untraced ones give ``trace.overhead_ratio``).
Every timing is a median over rounds, in calibrated seconds (``calibration.py``).
Metric names, units and bounds live in ``BENCHMARK.json`` at the repository
root; this module only computes values and refuses to run if its names and
the file's have drifted apart.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.metrics import HistogramSnapshot

from . import ROOT
from .calibration import calibration_sample, scale
from .tracing import SpanRecorder, layer_times
from .workloads import WORKLOADS, Round, counters

__all__ = ["measure", "metric_units", "percentile", "print_result", "spec"]


#: Set-up is repeated and its median reported, so one slow start does not
#: move ``setup_s``.
SETUP_REPEATS = 3

_now = time.perf_counter


@functools.lru_cache(maxsize=None)
def spec() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(kind: str) -> Dict[str, str]:
    """name → unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in spec()[kind]}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(workload, round_: Round, recorder: SpanRecorder) -> Dict[str, float]:
    """The per-layer metrics of one traced round."""
    total, own, calls = layer_times(recorder.spans)
    after = counters(round_.sessions)
    delta: Dict[str, float] = defaultdict(float)
    for name, value in after.items():
        if not name.startswith("gauge."):
            delta[name] = value - round_.before.get(name, 0.0)
    engine = {
        field: sum(getattr(stats, field) for stats in recorder.engine_statistics.values())
        for field in (
            "evaluations",
            "result_cache_hits",
            "incremental_evaluations",
            "full_evaluations",
            "invalidated_entries",
        )
    }
    queue_wait = HistogramSnapshot.merge(
        [
            snapshot
            for session in round_.sessions
            for snapshot in session.obs.registry.histogram_snapshots(
                "scheduler_queue_wait_seconds"
            ).values()
        ]
    )
    queued = queue_wait.count
    layered = sum(value for name, value in own.items() if name != "op")
    metrics = {
        "optimizer.best_cost_s": total["optimizer.best_cost"],
        "optimizer.best_cost_calls": calls["optimizer.best_cost"],
        "optimizer.engine_self_s": own["optimizer.evaluate"],
        "optimizer.evaluations": engine["evaluations"],
        "optimizer.result_hit_ratio": _ratio(
            engine["result_cache_hits"], engine["evaluations"]
        ),
        "optimizer.incremental_ratio": _ratio(
            engine["incremental_evaluations"],
            engine["incremental_evaluations"] + engine["full_evaluations"],
        ),
        "optimizer.invalidated_entries": engine["invalidated_entries"],
        "core.select_self_s": own["core.select"],
        "core.oracle_calls": sum(r.oracle_calls for r in round_.results),
        "core.materialized_nodes": sum(len(r.materialized) for r in round_.results),
        "core.strategies_run": delta["session.strategies_run"],
        "dag.intern_s": total["dag.intern"],
        "dag.intern_calls": calls["dag.intern"],
        "dag.subsume_s": total["dag.subsume"],
        "dag.subsume_runs": calls["dag.subsume"],
        "dag.memo_groups": after["gauge.memo_groups"],
        "dag.memo_mexprs": after["gauge.memo_mexprs"],
        "dag.reuse_ratio": _ratio(
            delta["session.queries_reused"],
            delta["session.queries_reused"] + delta["session.queries_interned"],
        ),
        "scheduler.queue_wait_p50_s": queue_wait.p50 if queued else 0.0,
        "scheduler.queue_wait_p95_s": queue_wait.p95 if queued else 0.0,
        "scheduler.micro_batches": delta["session.batches_served"] if queued else 0,
        "scheduler.mean_batch_size": (
            _ratio(queued, delta["session.batches_served"]) if queued else 0.0
        ),
        "session.optimize_s": total["session.optimize"],
        "session.execute_s": total["session.execute"],
        "session.self_s": own["session.optimize"] + own["session.execute"],
        "session.result_cache_hit_ratio": _ratio(
            delta["session.result_cache_hits"], delta["session.batches_served"]
        ),
        "matcache.get_s": own["matcache.get"],
        "matcache.put_s": total["matcache.put"],
        "matcache.hit_ratio": _ratio(
            delta["matcache.hits"], delta["matcache.hits"] + delta["matcache.misses"]
        ),
        "matcache.fills": delta["matcache.fills"],
        "matcache.evictions": delta["matcache.evictions"],
        "matcache.bytes": after["gauge.matcache_bytes"],
        "storage.spills": delta["matcache.spills"],
        "storage.faults": delta["matcache.faults"],
        "storage.spill_bytes_written": delta["matcache.spill_bytes_written"],
        "storage.disk_bytes": after["gauge.disk_bytes"],
        "storage.write_amplification": _ratio(
            delta["matcache.spill_bytes_written"], workload.working_set
        ),
        "execution.execute_self_s": own["execution.execute"],
        "execution.calls": calls["execution.execute"],
        "execution.materializations_computed": delta["session.materializations_computed"],
        "execution.rows_returned": delta["session.rows_returned"],
        "trace.coverage": _ratio(layered, total["op"]),
    }
    return {
        key: value * round_.scale if key.endswith("_s") else value
        for key, value in metrics.items()
    }


def measure(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    trace_out: Optional[Path] = None,
) -> Dict[str, object]:
    """Run one workload; returns ``correct``/``attempted``/``failed``/``metrics``
    plus a ``detail`` dict (sample counts, digest) that is not a metric."""
    workload = WORKLOADS[name](seed, tiny, ROOT / ".bench_work")
    try:
        setups: List[float] = []
        calibrations = [calibration_sample()]
        for _ in range(1 if tiny else SETUP_REPEATS):
            start = _now()
            workload.setup()
            took = _now() - start
            calibrations.append(calibration_sample())
            setups.append(took * scale(calibrations[-2:]))
        gc.collect()

        rounds: List[Round] = []
        layers: List[Dict[str, float]] = []
        recorder = None
        calibrations.append(calibration_sample())
        started = _now()
        while True:
            for traced in (False, True) if trace else (False,):
                if traced:
                    recorder = SpanRecorder()
                    with recorder.installed(workload.backend):
                        round_ = workload.run_round(recorder)
                else:
                    round_ = workload.run_round(None)
                calibrations.append(calibration_sample())
                round_.scale = scale([*calibrations[-2:], *round_.calibrations])
                round_.traced = traced
                if traced:
                    layers.append(_layer_metrics(workload, round_, recorder))
                rounds.append(round_)
            for earlier in rounds[:-1]:
                earlier.sessions = []  # only the last round's state is verified
            if _now() - started >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed, digest = workload.verify(rounds)
        plans = workload.plans(rounds)
    finally:
        workload.close()

    untraced = [round_ for round_ in rounds if not round_.traced]
    samples = sum(len(round_.latencies) for round_ in untraced)
    attempted = sum(len(round_.latencies) for round_ in rounds)
    if trace:
        metrics = {
            key: statistics.median(layer[key] for layer in layers) for key in layers[0]
        }
        metrics["trace.overhead_ratio"] = statistics.median(
            round_.wall * round_.scale for round_ in rounds if round_.traced
        ) / statistics.median(round_.wall * round_.scale for round_ in untraced)
        if trace_out is not None:
            trace_out.write_text(json.dumps(recorder.as_records()), encoding="utf-8")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": statistics.median(
                len(round_.latencies) / (round_.wall * round_.scale) for round_ in untraced
            ),
            "latency_p50_s": statistics.median(
                statistics.median(round_.latencies) * round_.scale for round_ in untraced
            ),
            "latency_p95_s": statistics.median(
                percentile(round_.latencies, 0.95) * round_.scale for round_ in untraced
            ),
            "plan_cost_ratio": sum(plan.total_cost for plan in plans)
            / sum(plan.volcano_cost for plan in plans),
            "peak_rss_mb": peak_rss_mb,
        }
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(
            "metric names differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}"
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
        },
        "detail": {
            "workload": name,
            "seed": seed,
            "rounds": len(rounds),
            "latency_samples": samples,
            # Measured seconds = calibrated seconds ÷ this (median over the run).
            "calibration_scale": statistics.median(
                scale(pair) for pair in zip(calibrations, calibrations[1:])
            ),
            "rows_digest": digest,
        },
    }


def print_result(result: Dict[str, object]) -> None:
    """Every metric by name with its unit, then the one-line JSON result."""
    detail = result["detail"]
    print(
        f"# {detail['workload']} seed={detail['seed']} rounds={detail['rounds']} "
        f"latency_samples={detail['latency_samples']} "
        f"failed={result['failed']}/{result['attempted']}",
    )
    for key, metric in result["metrics"].items():
        print(f"{key:<40} {metric['value']:>16.6f} {metric['unit']}")
    print("DETAIL " + json.dumps(detail))
    print(
        json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}),
    )
