"""``tools/opcodes.py`` counts a tree's executed opcodes for one run,
and the count is a property of the code, not of the call."""

import importlib.util
from pathlib import Path

from repro.runtime import RunSpec

_PATH = Path(__file__).resolve().parent.parent / "tools" / "opcodes.py"
_SPEC = importlib.util.spec_from_file_location("opcodes", _PATH)
opcodes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(opcodes)


def test_count_repeats_exactly():
    spec = RunSpec(protocol="msc", n=3, ops=4, seed=2)
    first = opcodes.count(spec)
    assert first > 10_000
    assert opcodes.count(spec) == first
