"""``python -m benchmarks.perf {run,compare} ...`` — see ``cli.py``."""

import os
import sys

if __name__ == "__main__":
    # EngineStatistics.invalidated_entries (and with it a little of the DP
    # work) depends on set iteration order, i.e. on string hashing: pin the
    # hash seed so counts repeat exactly from one process to the next.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "benchmarks.perf", *sys.argv[1:]])

    from . import ROOT

    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks.perf: {ROOT} holds no src/repro to measure")

    from .cli import main

    sys.exit(main())
