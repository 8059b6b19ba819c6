#!/usr/bin/env python3
"""Intra-query sharing: the paper's Experiment-2 workloads (Q2-D, Q11, Q15).

Multi-query optimization also pays off for a *single* complex query whose
sub-blocks contain common subexpressions: Q15 uses its ``revenue`` view both
to join with suppliers and to compute the maximum revenue, Q11 aggregates
the same partsupp⋈supplier⋈nation join twice, and the decorrelated Q2-D
shares the minimum-supply-cost subquery's join with its outer query.

Run with::

    python examples/single_query_sharing.py [--scale SF]
"""

import argparse

from repro.catalog.tpcd import tpcd_catalog
from repro.core.mqo import run_strategy
from repro.dag.sharing import build_batch_dag
from repro.optimizer.best_cost import BestCostEngine
from repro.workloads.tpcd_queries import standalone_workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0, help="TPC-D scale factor")
    args = parser.parse_args()

    catalog = tpcd_catalog(args.scale)

    for name, workload in standalone_workloads().items():
        dag = build_batch_dag(workload, catalog)
        result = run_strategy(
            dag, BestCostEngine(dag), batch_name=name, strategy="marginal-greedy"
        )
        print(f"=== {name}")
        print(f"  no-sharing cost : {result.volcano_cost / 1000.0:10.1f} s")
        print(f"  with sharing    : {result.total_cost / 1000.0:10.1f} s "
              f"({result.improvement:.1%} better)")
        if result.materialized_labels:
            print("  materialized    :")
            for label in result.materialized_labels:
                print(f"    * {label}")
        else:
            print("  materialized    : (nothing beneficial found)")
        print()


if __name__ == "__main__":
    main()
