#!/usr/bin/env python3
"""Quickstart: multi-query optimization on the paper's introductory example.

Reproduces Example 1 / Figure 1 of "Efficient and Provable Multi-Query
Optimization": two queries ``A ⋈ B ⋈ C`` and ``B ⋈ C ⋈ D`` are optimized
(a) independently (plain Volcano, no sharing) and (b) jointly with the
Greedy and MarginalGreedy materialization-selection algorithms, which
discover that computing ``B ⋈ C`` once and reading it from both queries is
cheaper.  The consolidated plans are then run on a tiny in-memory database
to show that sharing does not change the query results.

Run with::

    python examples/quickstart.py
"""

from repro.execution import Executor, example1_database
from repro.service import OptimizerSession
from repro.workloads.synthetic import example1_batch, example1_catalog


def main() -> None:
    catalog = example1_catalog()
    batch = example1_batch()

    print("Queries in the batch:")
    print(batch.pretty())
    print()

    session = OptimizerSession(catalog)
    results = session.compare(batch, strategies=("volcano", "greedy", "marginal-greedy"))

    for strategy, result in results.items():
        print(f"--- {strategy}")
        print(result.summary())
        print()

    # Execute the volcano and the shared plans on a tiny database and check
    # that they return identical results.
    database = example1_database()
    executor = Executor(database)
    volcano_rows = executor.execute_result(results["volcano"].plan)
    shared_rows = executor.execute_result(results["greedy"].plan)
    for query_name in volcano_rows:
        unshared = volcano_rows[query_name]
        shared = shared_rows[query_name]
        same = sorted(map(sorted, (r.items() for r in unshared))) == sorted(
            map(sorted, (r.items() for r in shared))
        )
        print(f"{query_name}: {len(unshared)} rows; shared plan returns the same rows: {same}")


if __name__ == "__main__":
    main()
