"""``python -m repro.workloads.harness`` — the harness command line.

One invocation sweeps the cross-product of the comma-separated ``--scale``
and ``--executor`` values over identical traffic (same seeds),
writes the matrix to one JSON + one CSV report, prints a one-line summary
per setting, and exits non-zero if any correctness oracle disagreed — a CI
job can gate on the harness exactly like on a test suite.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .controller import HarnessConfig, SettingReport, run_setting
from .report import validate_report, write_csv, write_json
from .scale import WORKLOADS

__all__ = ["build_parser", "configs_from_args", "main"]


def _floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _strs(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.harness",
        description=(
            "Drive the serving stack with simulated multi-tenant traffic and "
            "report throughput, latency percentiles, counters and the "
            "correctness-oracle verdict per setting."
        ),
    )
    data = parser.add_argument_group("data")
    data.add_argument(
        "--workload", choices=WORKLOADS, default="star", help="table/query family"
    )
    data.add_argument(
        "--scale",
        type=_floats,
        default=[1.0],
        metavar="X[,Y...]",
        help="scale factor(s); comma-separate to sweep (default: 1)",
    )
    data.add_argument("--dimensions", type=int, default=4, help="star dimensions")
    data.add_argument("--key-fanout", type=int, default=4, help="star key fanout")
    data.add_argument(
        "--value-skew",
        type=float,
        default=0.0,
        help="Zipf exponent for star fact key skew (0 = uniform)",
    )
    traffic = parser.add_argument_group("traffic")
    traffic.add_argument("--requests", type=int, default=200, help="requests per run")
    traffic.add_argument("--tenants", type=int, default=8, help="tenant count")
    traffic.add_argument(
        "--zipf", type=float, default=1.1, help="tenant popularity Zipf exponent"
    )
    traffic.add_argument(
        "--template-zipf",
        type=float,
        default=1.0,
        help="per-tenant template popularity Zipf exponent",
    )
    traffic.add_argument(
        "--templates", type=int, default=8, help="query templates (star workloads)"
    )
    traffic.add_argument(
        "--arrival",
        default="closed",
        help="closed | poisson:RATE | bursty:LOW:HIGH:PERIOD (default: closed)",
    )
    traffic.add_argument(
        "--drift-at",
        type=_floats,
        default=[],
        metavar="F[,G...]",
        help="inject data drift at these run fractions, e.g. 0.5 or 0.33,0.66",
    )
    serving = parser.add_argument_group("serving")
    serving.add_argument(
        "--executor",
        type=_strs,
        default=["row"],
        metavar="B[,C...]",
        help="executor backend(s): row, columnar, ... (default: row)",
    )
    serving.add_argument(
        "--strategy", default="marginal-greedy", help="optimizer sharing strategy"
    )
    serving.add_argument("--workers", type=int, default=4, help="scheduler workers")
    serving.add_argument(
        "--max-batch-size", type=int, default=4, help="scheduler micro-batch cap"
    )
    serving.add_argument(
        "--adaptive", action="store_true", help="enable adaptive re-optimization"
    )
    serving.add_argument(
        "--spill-dir", default=None, help="spill materializations to this directory"
    )
    correctness = parser.add_argument_group("correctness")
    correctness.add_argument(
        "--oracle",
        type=_strs,
        default=["row"],
        metavar="B[,C...]",
        help="reference backend(s) to replay sampled queries on; "
        "'none' disables the oracle (default: row)",
    )
    correctness.add_argument(
        "--oracle-sample",
        type=float,
        default=0.1,
        help="fraction of requests replayed against the oracle (default: 0.1)",
    )
    output = parser.add_argument_group("output")
    output.add_argument("--seed", type=int, default=0, help="data seed")
    output.add_argument(
        "--traffic-seed",
        type=int,
        default=None,
        help="traffic seed (defaults to --seed)",
    )
    output.add_argument(
        "--json", default="harness_report.json", help="JSON report path"
    )
    output.add_argument("--csv", default="harness_report.csv", help="CSV report path")
    output.add_argument(
        "--quiet", action="store_true", help="suppress per-setting summary lines"
    )
    return parser


def configs_from_args(args: argparse.Namespace) -> List[HarnessConfig]:
    """The cross-product of the swept axes, identical traffic seeds each."""
    oracle = tuple(b for b in args.oracle if b != "none")
    configs: List[HarnessConfig] = []
    for scale in args.scale:
        for executor in args.executor:
            configs.append(
                HarnessConfig(
                    scale=scale,
                    workload=args.workload,
                    n_dimensions=args.dimensions,
                    key_fanout=args.key_fanout,
                    value_skew=args.value_skew,
                    requests=args.requests,
                    tenants=args.tenants,
                    zipf=args.zipf,
                    template_zipf=args.template_zipf,
                    templates=args.templates,
                    arrival=args.arrival,
                    drift_at=tuple(args.drift_at),
                    executor=executor,
                    strategy=args.strategy,
                    workers=args.workers,
                    max_batch_size=args.max_batch_size,
                    adaptive=args.adaptive,
                    spill_dir=args.spill_dir,
                    oracle=oracle,
                    oracle_sample=args.oracle_sample,
                    seed=args.seed,
                    traffic_seed=args.traffic_seed,
                )
            )
    return configs


def _summary(report: SettingReport) -> str:
    request_latency = report.latency.get("request", {})
    p50 = request_latency.get("p50")
    p99 = request_latency.get("p99")
    fmt = lambda v: f"{v * 1e3:.1f}ms" if isinstance(v, (int, float)) else "-"
    oracle = report.oracle
    verdict = (
        f"oracle {oracle['checked']} checked / {oracle['mismatches']} mismatched"
        if oracle.get("backends")
        else "oracle off"
    )
    return (
        f"{report.label}: {report.completed}/{report.requests} ok, "
        f"{report.throughput_rps:.1f} req/s, p50 {fmt(p50)}, p99 {fmt(p99)}, "
        f"{verdict}, drift x{report.drift_steps_applied}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configs = configs_from_args(args)
        reports = []
        for config in configs:
            report = run_setting(config)
            reports.append(report)
            if not args.quiet:
                print(_summary(report))
    except (ValueError, RuntimeError) as error:
        print(f"harness: {error}", file=sys.stderr)
        return 2
    validate_report(write_json(reports, args.json))
    write_csv(reports, args.csv)
    if not args.quiet:
        print(f"wrote {args.json} and {args.csv} ({len(reports)} settings)")
    mismatches = sum(r.oracle_mismatches for r in reports)
    if mismatches:
        print(
            f"harness: {mismatches} oracle mismatch(es) — run FAILED",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
