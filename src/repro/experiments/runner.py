"""Command-line experiment runner.

``python -m repro.experiments`` regenerates every figure of the paper and
prints the result tables; ``--quick`` runs a reduced configuration (fewer
batches, one scale factor) that finishes in a couple of minutes on a
laptop, and ``--output`` additionally writes the tables as markdown.
``--serve`` additionally exercises the serving layer: it replays the
composite batches through one persistent :class:`OptimizerSession` behind a
:class:`BatchScheduler` and reports the session's reuse statistics.

The experiments themselves run on the serving API as well (one
:class:`~repro.service.session.OptimizerSession` per strategy), so the
overlapping composite batches BQ1 ⊂ BQ2 ⊂ … are interned into one shared
memo instead of being rebuilt from scratch for every measurement.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from ..execution.backends import DEFAULT_BACKEND, available_backends
from .example1 import run_example1
from .experiment1 import run_experiment1
from .experiment2 import run_experiment2
from .reporting import ResultTable, session_counters_table
from .theory import run_theory_experiment

__all__ = ["run_all", "run_serving_demo", "main"]


def run_serving_demo(
    *,
    max_batches: int = 3,
    strategy: str = "greedy",
    execute: bool = True,
    adaptive: bool = False,
    spill_dir: Optional[Path] = None,
    executor: str = DEFAULT_BACKEND,
    trace_dir: Optional[Path] = None,
    trace_sample: float = 1.0,
    verbose: bool = True,
) -> ResultTable:
    """Replay the composite batches through the serving layer, twice.

    The second pass re-submits traffic the session has already seen, so it
    is served from the warm caches; the returned table shows the session's
    reuse counters (interned vs reused queries, result-cache hits).  With
    ``execute=True`` (the default) the session additionally *runs* every
    batch against a tiny in-memory TPC-D database, so the table also records
    cold vs. warm end-to-end execute latency and the materialization cache's
    hit/fill counters.  ``adaptive=True`` turns on the runtime-feedback loop
    (:mod:`repro.adaptive`), whose observation/drift counters then appear in
    the table alongside the classic statistics.  ``spill_dir``
    enables the durable cache tier (:mod:`repro.storage`): evicted
    materializations spill to disk, the scheduler's shutdown checkpoints
    the rest, and re-running the demo against the same directory starts
    with the caches already warm from the previous process.  ``executor``
    picks the execution backend (``"row"``, ``"columnar"``, or the SQL
    oracles ``"sqlite"``/``"duckdb"``); all return row-identical results,
    so only the latency columns change.  ``trace_dir`` enables span tracing
    (:mod:`repro.obs`): every query gets a trace ID at submit time and the
    sampled spans are appended to ``trace_dir/trace-<pid>.jsonl``;
    ``trace_sample`` keeps only that fraction of traces.
    """
    from ..catalog.tpcd import tpcd_catalog
    from ..execution import tiny_tpcd_database
    from ..obs import JsonlTraceWriter, Observability, Tracer
    from ..service import BatchScheduler, OptimizerSession
    from ..workloads.batches import composite_batch

    tracer = None
    if trace_dir is not None:
        tracer = Tracer(JsonlTraceWriter(trace_dir), sample=trace_sample)
    session = OptimizerSession(
        tpcd_catalog(1.0),
        adaptive=adaptive,
        spill_dir=spill_dir,
        executor=executor,
        obs=Observability(tracer=tracer),
    )
    if execute:
        session.attach_database(tiny_tpcd_database(seed=3, orders=400))
    pass_times = []
    started = time.perf_counter()
    with BatchScheduler(session, strategy=strategy) as scheduler:
        for _ in range(2):  # second pass hits the warm session
            pass_started = time.perf_counter()
            futures = [
                scheduler.submit_batch(composite_batch(index), execute=execute)
                for index in range(1, max_batches + 1)
            ]
            for future in futures:
                future.result(timeout=600)
            pass_times.append(time.perf_counter() - pass_started)
    elapsed = time.perf_counter() - started

    table = session_counters_table(
        session,
        f"Serving demo — BQ1..BQ{max_batches} twice through one OptimizerSession",
    )
    if spill_dir is not None:
        table.add_row("spill dir", str(spill_dir))
    if tracer is not None:
        tracer.close()
        table.add_row("trace file", str(tracer.sink.path))
    if execute:
        table.add_row("cold pass (s)", round(pass_times[0], 3))
        table.add_row("warm pass (s)", round(pass_times[1], 3))
    table.add_row("wall time (s)", round(elapsed, 3))
    table.notes = (
        f"strategy={strategy}; the second pass is served from the warm "
        "result, plan and materialization caches."
    )
    if verbose:
        mode = "optimized+executed" if execute else "optimized"
        print(
            f"[serving] {mode} {2 * max_batches} batches in {elapsed:.2f}s "
            f"(cold pass {pass_times[0]:.2f}s, warm pass {pass_times[1]:.2f}s)"
        )
    return table


def run_all(
    *,
    quick: bool = False,
    scale_factors: Optional[Sequence[float]] = None,
    verbose: bool = True,
) -> List[ResultTable]:
    """Run every experiment and return the resulting tables."""
    scales = tuple(scale_factors) if scale_factors else ((1.0,) if quick else (1.0, 100.0))
    max_batches = 3 if quick else 6
    tables: List[ResultTable] = []

    outcome = run_example1()
    tables.append(outcome.table())

    exp1 = run_experiment1(scale_factors=scales, max_batches=max_batches, verbose=verbose)
    tables.extend(exp1.tables())

    exp2 = run_experiment2(scale_factors=scales, verbose=verbose)
    tables.extend(exp2.tables())

    theory = run_theory_experiment()
    tables.append(theory.table())
    return tables


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the figures of 'Efficient and Provable Multi-Query Optimization'",
    )
    parser.add_argument("--quick", action="store_true", help="reduced configuration (BQ1–BQ3, scale 1 only)")
    parser.add_argument(
        "--scale",
        type=float,
        action="append",
        help="database scale factor(s) to use (default: 1 and 100)",
    )
    parser.add_argument("--output", type=Path, help="write the tables as markdown to this file")
    parser.add_argument("--quiet", action="store_true", help="do not print per-measurement progress")
    parser.add_argument(
        "--serve",
        action="store_true",
        help="additionally replay the batches through the serving layer and report reuse statistics",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="run the serving demo with the runtime-feedback loop enabled (implies observation/drift counters in the report)",
    )
    parser.add_argument(
        "--spill-dir",
        type=Path,
        metavar="DIR",
        help="enable the durable cache tier for the serving demo: spill evicted "
        "materializations to DIR, checkpoint on shutdown, and restore on the next "
        "run against the same DIR (requires --serve)",
    )
    parser.add_argument(
        "--executor",
        choices=available_backends(),
        default=DEFAULT_BACKEND,
        help="execution backend for the serving demo: the tuple-at-a-time row "
        "interpreter (default), the vectorized columnar backend, or the SQL "
        "oracle on stdlib sqlite3 / optional DuckDB "
        "(requires --serve; all return identical rows)",
    )
    parser.add_argument(
        "--trace-dir",
        type=Path,
        metavar="DIR",
        help="enable span tracing for the serving demo: append sampled JSONL "
        "trace records to DIR/trace-<pid>.jsonl (requires --serve)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="P",
        help="fraction of traces to record, in [0, 1] (default 1.0; "
        "requires --trace-dir)",
    )
    args = parser.parse_args(argv)
    if args.spill_dir is not None and not args.serve:
        parser.error("--spill-dir requires --serve")
    if args.executor != DEFAULT_BACKEND and not args.serve:
        parser.error("--executor requires --serve")
    if args.trace_dir is not None and not args.serve:
        parser.error("--trace-dir requires --serve")
    if not 0.0 <= args.trace_sample <= 1.0:
        parser.error("--trace-sample must be in [0, 1]")
    if args.trace_sample != 1.0 and args.trace_dir is None:
        parser.error("--trace-sample requires --trace-dir")

    started = time.perf_counter()
    tables = run_all(quick=args.quick, scale_factors=args.scale, verbose=not args.quiet)
    if args.serve:
        tables.append(
            run_serving_demo(
                adaptive=args.adaptive,
                spill_dir=args.spill_dir,
                executor=args.executor,
                trace_dir=args.trace_dir,
                trace_sample=args.trace_sample,
                verbose=not args.quiet,
            )
        )
    elapsed = time.perf_counter() - started

    for table in tables:
        print()
        print(table.to_text())
    print(f"\nAll experiments finished in {elapsed:.1f}s")

    if args.output:
        content = "\n\n".join(table.to_markdown() for table in tables)
        args.output.write_text(content + "\n", encoding="utf-8")
        print(f"Markdown written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
