"""Command line: ``run`` one workload or the whole suite, ``compare`` two results.

``run --workload NAME --seed N --seconds S --trace 0|1`` measures in this
process and ends with the one-line JSON result the benchmark driver reads.
``run`` without ``--workload`` is the suite: every workload, untraced then
traced, each in its own subprocess (fresh caches, its own ``ru_maxrss``),
once per seed, collected into ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import ROOT
from .compare import compare_files
from .calibration import calibration_sample
from .runner import measure, print_result, spec
from .workloads import WORKLOADS

__all__ = ["main"]


def _seeds(text: str) -> List[int]:
    return [int(part) for part in text.split(",")]


def calibration_s() -> float:
    """How fast this box runs the calibration loop (median of nine)."""
    return statistics.median(calibration_sample() for _ in range(9))


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def _run_suite(args: argparse.Namespace) -> int:
    meta = {
        "commit": _commit(),
        "seeds": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_s": calibration_s(),
        "claim": None,
    }
    print("# meta " + json.dumps(meta), flush=True)
    runs: List[Dict[str, object]] = []
    status = 0
    for seed in args.seed:
        digests: Dict[str, str] = {}
        for name in WORKLOADS:
            for trace in (0, 1):
                command = [
                    sys.executable, "-m", "benchmarks.perf", "run",
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ]  # fmt: skip
                if args.tiny:
                    command.append("--tiny")
                done = subprocess.run(
                    command,
                    cwd=ROOT,
                    env={**os.environ, "PYTHONHASHSEED": "0"},
                    stdout=subprocess.PIPE,
                    text=True,
                )
                sys.stdout.write(done.stdout)
                sys.stdout.flush()
                lines = done.stdout.strip().splitlines()
                if not lines or not lines[-1].startswith("{"):
                    print(f"# {name} trace={trace}: no result (exit {done.returncode})")
                    status = 1
                    continue
                result = json.loads(lines[-1])
                detail = json.loads(lines[-2][len("DETAIL "):])
                if done.returncode != 0 or not result["correct"]:
                    status = 1
                digests[name] = detail["rows_digest"]
                runs.append(
                    {
                        "workload": name,
                        "seed": seed,
                        "trace": trace,
                        "correct": result["correct"],
                        "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": {
                            key: metric["value"] for key, metric in result["metrics"].items()
                        },
                        "detail": detail,
                    }
                )
        if digests.get("exec_ram") != digests.get("exec_spill"):
            print(f"# seed {seed}: exec_ram and exec_spill returned different rows")
            status = 1
    if args.out is not None:
        args.out.write_text(
            json.dumps({"meta": meta, "runs": runs}, indent=1) + "\n", encoding="utf-8"
        )
    print(f"# suite {'FAILED' if status else 'ok'}: {len(runs)} runs")
    return status


def _run(args: argparse.Namespace) -> int:
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.workload is None:
        return _run_suite(args)
    if len(args.seed) != 1:
        raise SystemExit("--workload takes one --seed; the suite takes a list")
    result = measure(
        args.workload,
        seed=args.seed[0],
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        trace_out=args.trace_out,
    )
    print_result(result)
    return 0 if result["correct"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure one workload, or the whole suite")
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=_seeds, default=[0], help="N, or N,N,... for the suite")
    run.add_argument("--seconds", type=float, help="measure at least this long")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    run.add_argument("--out", type=Path, help="suite: write the result file here")
    run.add_argument("--trace-out", type=Path, help="traced run: write the spans here")
    run.set_defaults(handler=_run)

    compare = commands.add_parser("compare", help="gate NEW against BASE")
    compare.add_argument("base", type=Path)
    compare.add_argument("new", type=Path)
    compare.set_defaults(handler=lambda args: compare_files(args.base, args.new))

    args = parser.parse_args(argv)
    return args.handler(args)
