#!/usr/bin/env python3
"""Are ``RunArtifact.to_json()`` bytes the same on two revisions?

    PYTHONPATH=<parent tree>/src python tools/artifact_corpus.py dump parent.jsonl
    PYTHONPATH=src               python tools/artifact_corpus.py dump change.jsonl
    python tools/artifact_corpus.py compare parent.jsonl change.jsonl

``dump`` executes a fixed corpus — every registered protocol on clean
specs (workloads, latencies, policies, options), crash-replay /
crash-snapshot / partition specs for the fault-tolerant protocols
(the 16 seed-1 ``partition-chaos`` items of ``benchmarks/e2e``
included) and the negative controls — and writes one artifact per
line.  ``compare`` demands byte equality for every ``ok`` run; for a
failing run it demands equal outcome, verdict records, history hash
and network statistics, and prints how the ``violations`` lists
differ so the reader can judge that difference.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

from repro.runtime import (
    FaultSpec,
    LatencySpec,
    RunSpec,
    VerifyPolicy,
    execute,
    protocol_names,
)

FT = ("msc", "mlin", "aggregate", "server")


def _faulty(protocol, seed, *, n=4, ops=6, fault_seed=None, **faults):
    fault_seed = seed if fault_seed is None else fault_seed
    return RunSpec(
        protocol=protocol, n=n, ops=ops, seed=seed,
        faults=FaultSpec(seed=fault_seed, **faults),
    )


def clean_specs() -> List[RunSpec]:
    specs = []
    for protocol in protocol_names():
        specs += [
            RunSpec(protocol=protocol, n=3 + seed % 3, ops=6, seed=seed)
            for seed in range(6)
        ]
        specs += [
            RunSpec(
                protocol=protocol, workload=workload, n=4, ops=8, seed=41
            )
            for workload in ("blind", "hotspot", "zipfian")
        ]
        specs.append(
            RunSpec(
                protocol=protocol, n=4, ops=6, seed=5, settle=3.0,
                latency=LatencySpec("exponential", (1.0, 0.1)),
            )
        )
        specs.append(
            RunSpec(
                protocol=protocol, n=3, ops=5, seed=8,
                verify=VerifyPolicy(certificate="off"),
            )
        )
    small = dict(n=4, ops=6, seed=2)
    specs += [
        RunSpec(protocol="msc", workload="scenario", seed=1),
        RunSpec(protocol="mlin", workload="scenario", seed=1),
        RunSpec(
            protocol="mlin", options={"reply_relevant_only": True}, **small
        ),
        RunSpec(
            protocol="mlin", verify=VerifyPolicy(condition="m-sc"), **small
        ),
        RunSpec(protocol="msc", verify=VerifyPolicy(enabled=False), **small),
        RunSpec(protocol="msc", metrics=True, **small),
        RunSpec(
            protocol="msc", n=4, ops=12, seed=2,
            verify=VerifyPolicy(window=16),
        ),
    ]
    return specs


def faulty_specs() -> List[RunSpec]:
    specs = []
    for protocol in FT:
        for seed in range(4):
            specs += [
                _faulty(protocol, seed),
                _faulty(
                    protocol, seed, fault_seed=seed + 7, recovery="snapshot"
                ),
                _faulty(
                    protocol, seed, n=4 + seed % 2, ops=8, partition=True
                ),
            ]
    specs.append(_faulty("writeall", 3, partition=True))
    specs.append(
        RunSpec(
            protocol="msc", n=3, ops=4, seed=0,
            verify=VerifyPolicy(window=64), faults=FaultSpec(seed=0),
        )
    )
    specs.append(
        RunSpec(
            protocol="msc", n=4, ops=6, seed=2, metrics=True,
            faults=FaultSpec(seed=2),
        )
    )
    specs.append(
        RunSpec(
            protocol="mlin", n=4, ops=6, seed=2,
            options={"reply_relevant_only": True},
            faults=FaultSpec(seed=5, partition=True),
        )
    )
    # benchmarks/e2e/workloads.py::_chaos_specs(seed=1, count=8).
    specs += [
        RunSpec(
            protocol=protocol, workload="zipfian", n=5,
            objects=tuple(f"x{i}" for i in range(8)), ops=30, seed=1,
            latency=LatencySpec("uniform", (0.5, 1.5)),
            faults=FaultSpec(seed=1 + f, partition=True),
        )
        for f in range(8)
        for protocol in ("msc", "mlin")
    ]
    return specs


def control_specs() -> List[RunSpec]:
    specs = [
        _faulty(protocol, seed, ops=5, recover=False)
        for protocol in FT
        for seed in range(3)
    ]
    specs += [
        _faulty("msc", seed, ops=10, partition=True, quorum_aware=False)
        for seed in range(16)
    ]
    specs += [
        _faulty("msc", seed, ops=10, partition=True, degraded="refuse")
        for seed in (0, 4)
    ]
    return specs


def dump(path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for kind, specs in (
            ("clean", clean_specs()),
            ("faulty", faulty_specs()),
            ("control", control_specs()),
        ):
            for number, spec in enumerate(specs):
                row = {"kind": kind, "i": number}
                try:
                    row["artifact"] = execute(spec).to_json()
                except Exception as exc:  # an outcome, compared like any
                    row["raised"] = f"{type(exc).__name__}: {exc}"
                out.write(json.dumps(row) + "\n")


#: Members a failing run must still agree on.
OUTCOME = (
    "ok", "failure", "completed", "expected", "verdicts", "history_hash",
    "net_stats", "duration",
)


def compare(parent_path: str, change_path: str) -> int:
    def rows(path):
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]

    parent, change = rows(parent_path), rows(change_path)
    if len(parent) != len(change):
        print(f"corpus sizes differ: {len(parent)} vs {len(change)}")
        return 1
    tally: Dict[str, Dict[str, int]] = {}
    problems = 0
    for p, c in zip(parent, change):
        t = tally.setdefault(
            p["kind"],
            {"specs": 0, "ok": 0, "ok_identical": 0, "failing": 0,
             "failing_same_outcome": 0, "raised": 0},
        )
        t["specs"] += 1
        label = f"{p['kind']}[{p['i']}]"
        if "raised" in p or "raised" in c:
            t["raised"] += 1
            if p.get("raised") != c.get("raised"):
                problems += 1
                print(f"{label}: raised {p.get('raised')!r} vs "
                      f"{c.get('raised')!r}")
            continue
        pa, ca = json.loads(p["artifact"]), json.loads(c["artifact"])
        if pa["ok"]:
            t["ok"] += 1
            if p["artifact"] == c["artifact"]:
                t["ok_identical"] += 1
            else:
                problems += 1
                print(f"{label}: bytes differ in "
                      f"{[k for k in pa if pa[k] != ca.get(k)]}")
            continue
        t["failing"] += 1
        if all(pa[k] == ca[k] for k in OUTCOME):
            t["failing_same_outcome"] += 1
        else:
            problems += 1
            print(f"{label}: outcome differs in "
                  f"{[k for k in OUTCOME if pa[k] != ca[k]]}")
        if pa["violations"] != ca["violations"]:
            gone = [v for v in pa["violations"] if v not in ca["violations"]]
            new = [v for v in ca["violations"] if v not in pa["violations"]]
            print(f"{label}: violations -{len(gone)} +{len(new)}")
            for text in gone:
                print(f"    - {text[:110]}")
            for text in new:
                print(f"    + {text[:110]}")
    for kind, t in tally.items():
        print(kind, json.dumps(t))
    print(f"problems: {problems}")
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
