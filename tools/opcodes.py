#!/usr/bin/env python3
"""Executed Python opcodes of one ``benchmarks/e2e`` item.

    python tools/opcodes.py <tree> <workload> <item> [--seed N]

``<tree>`` is a checkout (``.`` for this one, or a ``git archive``
export of another revision), ``<workload>`` a ``sim`` workload of
``benchmarks/e2e`` and ``<item>`` an item's index or id (``0`` or
``msc-s0``).  In a child process whose ``sys.path`` starts with
``<tree>/src`` and ``<tree>``, the item's timed part —
``execute(spec).to_json()`` — runs once to warm up, then once more
under ``sys.settrace`` with opcode events on and the cyclic collector
off; the tool prints how many opcodes that second run executed.  The
count is a property of the tree, not of the host: ``PYTHONHASHSEED`` is
pinned, so two calls on one tree print the same number, and two trees
can be compared without alternating runs.
"""

from __future__ import annotations

import argparse
import gc
import os
import subprocess
import sys
from pathlib import Path
from typing import Any


def count(spec: Any) -> int:
    """Opcodes executed by ``execute(spec).to_json()`` after one warm
    run of it, in this process."""
    from repro.runtime import execute

    execute(spec).to_json()
    counted = 0

    def trace(frame, event, _arg):
        nonlocal counted
        frame.f_trace_opcodes = True
        if event == "opcode":
            counted += 1
        return trace

    # No cyclic collection mid-count: it would run the finalizers of
    # garbage made before the count began.
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(trace)
    try:
        execute(spec).to_json()
    finally:
        sys.settrace(None)
        if collecting:
            gc.enable()
    return counted


def _item_spec(workload_name: str, item: str, seed: int) -> Any:
    from benchmarks.e2e.workloads import get

    workload = get(workload_name)
    if workload.kind != "sim":
        raise SystemExit(f"{workload_name} is not a sim workload")
    items = workload.specs(seed, workload.count)
    for index, (name, spec) in enumerate(items):
        if item in (str(index), name):
            return spec
    raise SystemExit(
        f"no item {item!r} in {workload_name}: "
        f"{[name for name, _spec in items]}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("workload")
    parser.add_argument("item")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if args.child:
        print(count(_item_spec(args.workload, args.item, args.seed)))
        return 0
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join((str(tree / "src"), str(tree))),
    )
    return subprocess.run(
        [sys.executable, __file__, *map(str, (tree, args.workload, args.item)),
         "--seed", str(args.seed), "--child"],
        cwd=tree, env=env,
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
