#!/usr/bin/env python3
"""Experiment-1 style batched TPCD optimization (the paper's Figure 4 workload).

Optimizes the composite batch BQ2 (TPCD Q3 and Q5, each repeated twice with
different selection constants) over the 1GB TPC-D statistics, comparing
plain Volcano, the Greedy algorithm of Roy et al., and the paper's
MarginalGreedy.  Prints the estimated consolidated-plan costs, the chosen
materializations and the resulting shared plan of one query.

Run with::

    python examples/batched_tpcd.py [--batch N] [--scale SF]
"""

import argparse

from repro.catalog.tpcd import tpcd_catalog
from repro.core.mqo import run_strategy
from repro.dag.sharing import build_batch_dag
from repro.optimizer.best_cost import BestCostEngine
from repro.workloads.batches import composite_batch


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, default=2, help="composite batch index (1..6)")
    parser.add_argument("--scale", type=float, default=1.0, help="TPC-D scale factor")
    args = parser.parse_args()

    catalog = tpcd_catalog(args.scale)
    batch = composite_batch(args.batch)

    dag = build_batch_dag(batch, catalog)
    print(f"Combined DAG for {batch.name}: {dag.summary()}")
    print()

    results = {}
    for strategy in ("volcano", "greedy", "marginal-greedy"):
        # A fresh engine per strategy: no strategy inherits another's warm caches.
        results[strategy] = run_strategy(
            dag, BestCostEngine(dag), batch_name=batch.name, strategy=strategy
        )
        print(f"--- {strategy}")
        print(results[strategy].summary())
        print()

    # Show how the first query's plan changes once sharing is in place.
    first_query = batch.queries[0].name
    print(f"Plan of {first_query} under MarginalGreedy's materializations:")
    print(results["marginal-greedy"].plan.query_plans[first_query].pretty())


if __name__ == "__main__":
    main()
