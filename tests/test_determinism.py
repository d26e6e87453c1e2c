"""Same seed, same bytes: no wall clock and no unseeded random state.

Only the serving clock and the checker-scaling timer may read the wall
clock; ``PINNED_HASHES`` and the corpus tools pin this on real runs.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
WALL_CLOCK_ALLOWED = {"serve/clock.py", "analysis/complexity.py"}
WALL_CLOCK_CALLS = {
    f"time.{name}{suffix}"
    for name in ("time", "monotonic", "perf_counter", "process_time")
    for suffix in ("", "_ns")
} | {"time.sleep", "datetime.datetime.now", "datetime.datetime.utcnow",
     "datetime.date.today"}
GLOBAL_RANDOM_CALLS = {
    f"random.{name}"
    for name in ("random", "randint", "randrange", "choice", "choices",
                 "shuffle", "sample", "uniform", "gauss", "expovariate",
                 "betavariate", "getrandbits", "seed")
}


def violations(text, rel):
    """``(line, name)`` of every nondeterministic call in one module."""
    tree = ast.parse(text)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({a.asname: a.name for a in node.names if a.asname})
        elif isinstance(node, ast.ImportFrom) and node.module:
            aliases.update({a.asname or a.name: f"{node.module}.{a.name}"
                            for a in node.names})
    found = []
    for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
        parts, func = [], call.func
        while isinstance(func, ast.Attribute):
            parts.insert(0, func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            continue
        name = ".".join([aliases.get(func.id, func.id), *parts])
        if (name in GLOBAL_RANDOM_CALLS
                or (name == "random.Random" and not (call.args or call.keywords))
                or (name in WALL_CLOCK_CALLS and rel not in WALL_CLOCK_ALLOWED)):
            found.append((call.lineno, name))
    return found


def test_the_package_is_deterministic():
    sources = {path.relative_to(PACKAGE).as_posix(): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert {rel: hits for rel, text in sources.items()
            if (hits := violations(text, rel))} == {}
    for rel in WALL_CLOCK_ALLOWED:  # every exemption is still needed
        assert violations(sources[rel], "x.py")


@pytest.mark.parametrize("source, rel, flagged", [
    ("from time import perf_counter as pc\npc()", "sim/kernel.py", True),
    ("import time as clock\nclock.monotonic()", "core/index.py", True),
    ("import datetime\ndatetime.datetime.now()", "core/index.py", True),
    ("import random\nrandom.shuffle(x)", "protocols/msc.py", True),
    ("import random\nrandom.Random()", "protocols/msc.py", True),
    ("from random import Random\nRandom()", "protocols/msc.py", True),
    ("import time\ntime.perf_counter()", "serve/daemon.py", True),
    ("import time\ntime.perf_counter()", "serve/clock.py", False),
    ("import random\nrandom.Random(42).randint(0, 9)", "sim/kernel.py", False),
    ("import time\nDEFAULT_CLOCK = time.perf_counter", "obs/trace.py", False),
], ids=["aliased-from-import", "aliased-module", "datetime-now", "global-random",
        "argless-random", "from-import-random", "outside-allow-list",
        "allow-listed", "seeded-random", "clock-reference"])
def test_rule(source, rel, flagged):
    assert len(violations(source, rel)) == flagged
