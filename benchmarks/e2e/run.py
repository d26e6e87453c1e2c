"""Entry script: ``python3 benchmarks/e2e/run.py --workload W --seed N
--seconds S --trace 0|1`` (the command in ``BENCHMARK.json``), and the
re-entry point for the per-pass child processes.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Run as a script, the checkout root is not on the path yet.
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    try:
        from benchmarks.e2e.cli import main
    except ModuleNotFoundError as exc:
        # No src/repro here: there is nothing to measure, and no
        # result may be printed.
        sys.exit(f"benchmarks.e2e: the program under test is missing: {exc}")
    sys.exit(main())
