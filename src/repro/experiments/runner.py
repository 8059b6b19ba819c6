"""Command-line experiment runner.

``python -m repro.experiments`` regenerates every figure of the paper and
prints the result tables; ``--quick`` runs a reduced configuration (fewer
batches, one scale factor) that finishes in a couple of minutes on a
laptop, and ``--output`` additionally writes the tables as markdown.

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

from .example1 import run_example1
from .experiment1 import run_experiment1
from .experiment2 import run_experiment2
from .reporting import ResultTable
from .theory import run_theory_experiment

__all__ = ["run_all", "main"]


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
    args = parser.parse_args(argv)

    started = time.perf_counter()
    tables = run_all(quick=args.quick, scale_factors=args.scale, verbose=not args.quiet)
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
