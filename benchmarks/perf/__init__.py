"""The repository's one benchmark: four workloads, end-to-end and per-layer.

``python -m benchmarks.perf run`` measures, ``python -m benchmarks.perf
compare`` gates; ``BENCHMARK.json`` at the repository root names every
workload and metric.  See ``README.md`` in this directory.
"""

import sys
from pathlib import Path

#: The checkout this benchmark measures (``benchmarks/perf/`` → two up).
ROOT = Path(__file__).resolve().parents[2]

# The program under test is imported from the checkout's own sources, so the
# command needs no PYTHONPATH.
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
