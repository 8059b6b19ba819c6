"""``compare BASE.json NEW.json``: the regression gate over two suite results.

One row per (end-to-end metric, workload): the medians over each file's
seeds, the ratio new ÷ base, the bound from ``BENCHMARK.json`` and a verdict:

* ``regressed``  — the new median is worse than the base by more than the bound;
* ``unresolved`` — either side's own spread (quartile distance ÷ median) is
  wider than the bound, so "unchanged" cannot be claimed;
* ``ok``         — otherwise.

Counts that must repeat exactly (every per-layer metric that is not a time,
``plan_cost_ratio``, the row digests) are compared run by run for the seeds
both files share.  Exit status 1 on any ``regressed`` row or differing count.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from .runner import spec

__all__ = ["compare_files", "spread"]

Key = Tuple[str, int, int]  # workload, seed, trace


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(third - first) / abs(median) if median else 0.0


def _load(path: Path) -> Dict[Key, dict]:
    data = json.loads(path.read_text(encoding="utf-8"))
    return {(run["workload"], run["seed"], run["trace"]): run for run in data["runs"]}


def _values(runs: Dict[Key, dict], workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]
        for (name, _, trace), run in sorted(runs.items())
        if name == workload and trace == 0
    ]


def _exact_differences(base: Dict[Key, dict], new: Dict[Key, dict]) -> List[str]:
    exact = {
        metric["name"]
        for metric in spec()["per_layer"]
        if metric["unit"] != "s" and not metric["name"].startswith("trace.")
    }
    differences = []
    for key in sorted(set(base) & set(new)):
        workload, seed, trace = key
        where = f"{workload} seed={seed} trace={trace}"
        old, now = base[key], new[key]
        if old["detail"]["rows_digest"] != now["detail"]["rows_digest"]:
            differences.append(f"{where}: rows_digest differs")
        names = exact if trace else {"plan_cost_ratio"}
        for name in sorted(names):
            before, after = old["metrics"][name], now["metrics"][name]
            if abs(after - before) > 1e-9 * abs(before):
                differences.append(f"{where}: {name} {before!r} -> {after!r}")
    return differences


def compare_files(base_path: Path, new_path: Path) -> int:
    base, new = _load(base_path), _load(new_path)
    status = 0
    print(
        f"{'workload':<13} {'metric':<17} {'base':>12} {'new':>12} {'new/base':>9} "
        f"{'spread b/n':>15} {'bound':>7}  verdict"
    )
    for workload in (w["name"] for w in spec()["workloads"]):
        for metric in spec()["end_to_end"]:
            old = _values(base, workload, metric["name"])
            now = _values(new, workload, metric["name"])
            if not old or not now:
                continue
            before, after = statistics.median(old), statistics.median(now)
            worse = (after - before) / abs(before)
            if metric["better"] == "higher":
                worse = -worse
            spreads = spread(old), spread(now)
            if worse > metric["bound"]:
                verdict = "regressed"
                status = 1
            elif max(spreads) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{workload:<13} {metric['name']:<17} {before:>12.6g} {after:>12.6g} "
                f"{after / before:>9.4f} {spreads[0]:>7.4f}/{spreads[1]:<7.4f} "
                f"{metric['bound']:>7.2g}  {verdict}"
                f"  (base {before:.6g} {metric['unit']}, n={len(old)}/{len(now)})"
            )
    differences = _exact_differences(base, new)
    for line in differences:
        print("exact count differs: " + line)
    if differences:
        status = 1
    print("compare: " + ("FAILED" if status else "ok"))
    return status
