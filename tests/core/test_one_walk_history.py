"""A history built in one walk per m-operation says what the
definitions say.

Each m-operation's external reads and writes are derived once, by the
walk of its ops that validates internal reads (Section 2.2), and every
other view of the history is read off them.  Here each built history is
compared with the same facts re-derived from the definitions, one walk
per fact, as the properties computed them before: the m-operations,
``uids``, ``objects``, every ``H|P``, the completed reads-from map
(D 4.3) and the canonical JSON that ``history_hash`` is taken over.
The histories are the verdict corpus's whole record set and the
recorded ``offline-check`` seed-1 histories of the end-to-end
benchmark, whose hashes ``benchmarks/e2e/pins.json`` pins, each
built through ``History.from_mops``, ``history_from_dict`` and (for
the recorded ones) ``HistoryRecorder.build_history``.
"""

import json
from pathlib import Path

import pytest

from repro.core import History, OpKind
from repro.core.serialize import (
    canonical_history_json,
    canonical_json,
    history_from_dict,
    history_from_json,
    history_to_dict,
)
from repro.errors import ReadsFromError
from repro.runtime import RunSpec, VerifyPolicy, execute
from repro.runtime.execute import history_hash
from repro.runtime.spec import LatencySpec
from repro.workloads import corrupt_history
from tools.verdict_corpus import corpus_histories

PINS = Path(__file__).resolve().parents[2] / "benchmarks/e2e/pins.json"


def defined_reads(mop):
    """Externally visible reads, by definition (Section 2.2)."""
    written, reads = set(), {}
    for op in mop.ops:
        if op.kind is OpKind.WRITE:
            written.add(op.obj)
        elif op.obj not in written:
            reads.setdefault(op.obj, op.value)
    return reads


def defined_writes(mop):
    """The last write to each object (Section 2.2)."""
    return {op.obj: op.value for op in mop.ops if op.kind is OpKind.WRITE}


def defined_reads_from(history, explicit):
    """``explicit`` completed by unique-value matching."""
    result = dict(explicit)
    for mop in history.mops:
        for obj, value in defined_reads(mop).items():
            if (mop.uid, obj) not in result:
                (writer,) = [
                    w.uid for w in history.all_mops
                    if w.uid != mop.uid
                    and defined_writes(w).get(obj, object()) == value
                ]
                result[mop.uid, obj] = writer
    return result


def assert_as_defined(history, mops, init, explicit):
    assert history.mops == tuple(mops)
    assert history.init == init
    assert history.all_mops == (init, *mops)
    assert history.uids == tuple(m.uid for m in (init, *mops))
    for mop in history.all_mops:
        reads, writes = defined_reads(mop), defined_writes(mop)
        assert dict(mop.external_reads) == reads
        assert dict(mop.external_writes) == writes
        assert mop.objects == frozenset(op.obj for op in mop.ops)
        assert mop.wobjects == frozenset(writes)
        assert mop.robjects == frozenset(reads)
        assert mop.is_update == bool(writes) != mop.is_query
    assert history.objects == frozenset(
        op.obj for mop in history.all_mops for op in mop.ops
    )
    assert history.reads_from_map == defined_reads_from(history, explicit)
    for process in {m.process for m in mops}:
        own = [m for m in mops if m.process == process]
        if all(m.inv is not None for m in own):
            own.sort(key=lambda m: m.inv)
        assert history.subhistory(process) == tuple(own)
    text = canonical_json(history_to_dict(history))
    assert canonical_history_json(history) == text
    return history_hash(history)


def assert_every_builder_agrees(history):
    """Rebuild ``history`` through each entry point; one hash for all."""
    explicit = history.reads_from_map
    initial = dict(history.init.external_writes)
    digest = assert_as_defined(history, history.mops, history.init, explicit)
    rebuilt = History.from_mops(
        history.mops, initial_values=initial, reads_from=explicit
    )
    assert assert_as_defined(
        rebuilt, history.mops, history.init, explicit
    ) == digest
    document = history_to_dict(history)
    for loaded in (
        history_from_dict(document),
        history_from_json(json.dumps(document)),
    ):
        assert assert_as_defined(
            loaded, history.mops, history.init, explicit
        ) == digest
    return digest


def test_the_verdict_corpus_is_built_as_defined():
    """Every history of ``tools/verdict_corpus.py``'s record set (the
    recorded runs' histories come from ``HistoryRecorder``)."""
    built = 0
    for _label, history in corpus_histories():
        assert_every_builder_agrees(history)
        built += 1
    assert built > 250


def test_derived_reads_from_maps_are_completed_as_defined():
    derived = 0
    for label, history in corpus_histories(recorded=False):
        try:
            rebuilt = History.from_mops(
                history.mops,
                initial_values=dict(history.init.external_writes),
            )
        except ReadsFromError:
            continue  # a value written twice: only a map disambiguates
        assert rebuilt.reads_from_map == history.reads_from_map, label
        derived += 1
    assert derived > 200


@pytest.mark.parametrize("item", [0, 1])
def test_offline_check_histories_keep_their_pinned_hashes(item):
    """The benchmark's ``offline-check`` seed-1 recorded histories
    (msc zipfian n=8 x 32 objects x 300 ops) and corrupt twins of
    each: the recorder, the dictionary and the JSON builders agree
    with the definitions and with the pinned hash."""
    spec = RunSpec(
        protocol="msc", workload="zipfian", n=8,
        objects=tuple(f"x{i}" for i in range(32)), ops=300, seed=1 + item,
        latency=LatencySpec("uniform", (0.5, 1.5)),
        verify=VerifyPolicy(enabled=False),
    )
    history = execute(spec).result.history
    pinned = json.loads(PINS.read_text())["offline-check"]
    assert assert_every_builder_agrees(history) == (
        pinned[f"h{item}-valid"]["history_hash"]
    )
    twins = [corrupt_history(history, seed=seed) for seed in range(3)]
    for twin in twins:
        assert_every_builder_agrees(twin)
