"""Seed-matrix pin of per-seed history hashes across kernel changes.

The drain loop, timestamp interning, network fast paths and lazy
relay landing are pure *throughput* refactors: for every seed the produced history must
stay byte-identical (same canonical JSON, hence same digest).  These
constants were captured from the pre-batching kernel; any change to
the simulation hot path that shifts event order, RNG draw order or
store semantics shows up here as a hash mismatch.

The ``seed=11`` rows are the report's fig4 (msc) and fig6 (mlin)
configurations — see ``tests/runtime/test_report_parity.py``.

The fault path (reliable shim, fault injector, detector, failover) is
pinned the same way further down: for msc and mlin under a crash plan
(both recovery modes) and under a partition plan, two fault seeds
each, ``fault_run_pins.json`` holds the history hash, every network
counter, the chaos tallies (``duration`` is the virtual end time) and
the number of kernel events fired, captured at dfa094b before the
network's delivery path was rebuilt.
"""

import json
from pathlib import Path

import pytest

from repro.protocols.base import Cluster
from repro.runtime import FaultSpec, RunSpec, VerifyPolicy, execute

#: The report's shape: n=4 processes, 8 programs each, objects x/y/z.
N = 4
OPS = 8
OBJECTS = ("x", "y", "z")

#: (protocol, seed) -> sha256 of the canonical history JSON, captured
#: from the pre-refactor (per-entry drain loop) kernel.
PINNED_HASHES = {
    ("msc", 7): "d3326a70c6dde77d7731d0c8e62a43af14b02c07a5a694f522fdf540a12b0971",
    ("msc", 11): "7725b77c0f576fa67038c4028db092bc63103f2b8d04a04d4e9af8f866f90705",
    ("msc", 23): "589266eb26e27a2413bd14b5d22d6e58159382bac1e00846f63686b04d30beb6",
    ("mlin", 7): "294682a27f3bd6dca6a936b289a2a5380c749e581a926138ff79f8c4ca347c95",
    ("mlin", 11): "c319268c18ba5ea60c8af84278c804219719f3b81ccc0cef68ad26d3731f96df",
    ("mlin", 23): "0c7a1f68437a8bab1504be44b210f044c73d580e9f09f947bebab1d595b2ee3a",
    ("aggregate", 7): "abf968d01028f98cbfa45a4218244fa6246dc200bb791de228a1a741e54a8eaf",
    ("aggregate", 11): "bfef1cd2c6e099e8e7c53ec3b09ad75cc3da881ac86ec0447411cde04ba7648d",
    ("aggregate", 23): "ffd8c6bb5c2a924b75f69c5e587f6e59ebbf4ac16e61d746ebd11dbab92db732",
}


@pytest.mark.parametrize(
    ("protocol", "seed"), sorted(PINNED_HASHES), ids=lambda v: str(v)
)
def test_history_hash_matches_pre_refactor_kernel(protocol, seed):
    spec = RunSpec(
        protocol=protocol,
        n=N,
        objects=OBJECTS,
        ops=OPS,
        seed=seed,
        verify=VerifyPolicy(enabled=False),
    )
    artifact = execute(spec)
    assert artifact.history_hash == PINNED_HASHES[(protocol, seed)]


#: "protocol/fault mode/seed" -> pinned outcome of the faulty run.
PINNED_FAULT_RUNS = json.loads(
    (Path(__file__).parent / "fault_run_pins.json").read_text()
)

FAULT_MODES = {
    "crash-replay": {},
    "crash-snapshot": {"recovery": "snapshot"},
    "partition": {"partition": True},
}


@pytest.mark.parametrize("case", sorted(PINNED_FAULT_RUNS))
def test_faulty_run_matches_pinned_outcome(case, monkeypatch):
    protocol, mode, seed = case.split("/")
    seed = int(seed)
    # ``RunResult`` does not carry the simulator: read the event count
    # where the run ends, as ``benchmarks/e2e/spans.py`` does.
    events_fired = []
    run = Cluster.run

    def tapped_run(cluster, *args, **kwargs):
        try:
            return run(cluster, *args, **kwargs)
        finally:
            events_fired.append(cluster.sim.events_fired)

    monkeypatch.setattr(Cluster, "run", tapped_run)
    artifact = execute(
        RunSpec(
            protocol=protocol,
            n=N,
            objects=OBJECTS,
            ops=OPS,
            seed=seed,
            verify=VerifyPolicy(enabled=False),
            faults=FaultSpec(seed=seed, **FAULT_MODES[mode]),
        )
    )
    assert artifact.ok, artifact.summary()
    assert {
        "history_hash": artifact.history_hash,
        "events_fired": events_fired[0],
        "chaos": artifact.net_stats["chaos"],
        "counters": artifact.net_stats["counters"],
    } == PINNED_FAULT_RUNS[case]
