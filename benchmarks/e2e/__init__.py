"""Spec-to-verdict benchmark: six workloads, end-to-end + per-layer metrics.

``python -m benchmarks.e2e`` (or ``python3 benchmarks/e2e/run.py``)
drives ``RunSpec -> repro.runtime.execute -> artifact`` and the same
path through ``repro serve`` from outside, every pass in a fresh child
process.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root; everything the benchmark reads or writes is below it.
ROOT = Path(__file__).resolve().parents[2]

# The program under test is the checkout's own ``src/repro`` — never an
# installed copy — so it goes first on the path.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
