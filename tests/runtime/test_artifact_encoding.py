"""A finished run is encoded once, and that text is its identity.

``execute()`` makes one canonical JSON text of the recorded history;
``history_hash`` is its SHA-256, ``RunArtifact.to_json()`` embeds it
verbatim, and the result is byte-equal to the reference encoding of
``to_dict()`` — so every pinned hash and stored byte count stays put.
"""

import hashlib
import importlib
import json

import pytest

from repro.core import serialize
from repro.core.serialize import canonical_json, history_from_dict
from repro.runtime import FaultSpec, RunSpec, execute, protocol_names


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reference(artifact) -> str:
    return json.dumps(
        artifact.to_dict(), sort_keys=True, separators=(",", ":")
    )


SPECS = [
    pytest.param(RunSpec(protocol=name, ops=3, seed=1), id=name)
    for name in protocol_names()
] + [
    pytest.param(
        RunSpec(
            protocol="msc", n=4, ops=4, seed=0,
            faults=FaultSpec(seed=1, partition=True),
        ),
        id="msc-partition",
    ),
    pytest.param(
        RunSpec(protocol="mlin", ops=3, seed=2, tracing=True, metrics=True),
        id="mlin-observed",
    ),
]


@pytest.mark.parametrize("spec", SPECS)
def test_artifact_text_is_the_reference_encoding(spec):
    artifact = execute(spec)
    text = artifact.to_json()
    assert text == _reference(artifact)
    assert text == canonical_json(json.loads(text))

    embedded = json.loads(text)["history"]
    assert _sha256(canonical_json(embedded)) == artifact.history_hash
    assert json.loads(text)["history_hash"] == artifact.history_hash

    replayed = history_from_dict(embedded)
    assert replayed.equivalent_to(artifact.history)
    assert replayed.mops == artifact.history.mops
    assert replayed.reads_from_map == artifact.history.reads_from_map


def test_artifact_without_a_history():
    spec = RunSpec(
        protocol="msc", n=4, ops=4, seed=0,
        faults=FaultSpec(seed=0, recover=False),
    )
    artifact = execute(spec)
    assert artifact.result is None and artifact.failure
    assert artifact.history_hash == ""
    text = artifact.to_json()
    assert text == _reference(artifact)
    assert json.loads(text)["history"] is None


def test_saved_file_is_the_canonical_text(tmp_path):
    artifact = execute(RunSpec(protocol="msc", ops=3, seed=1))
    path = tmp_path / "artifact.json"
    artifact.save(str(path))
    assert path.read_text(encoding="utf-8") == artifact.to_json() + "\n"


def test_history_is_walked_once_per_run(monkeypatch):
    """Count guard: hash and artifact text share one encoding pass."""
    # ``repro.runtime.execute`` the attribute is the function; the
    # module that imported the encoders by name is this one.
    execute_module = importlib.import_module("repro.runtime.execute")
    calls = []
    for name in ("canonical_history_json", "history_to_dict"):
        real = getattr(serialize, name)

        def counted(history, real=real):
            calls.append(history)
            return real(history)

        monkeypatch.setattr(execute_module, name, counted)
        monkeypatch.setattr(serialize, name, counted)
    artifact = execute(RunSpec(protocol="msc", ops=3, seed=1))
    artifact.to_json()
    artifact.to_json()
    assert len(calls) == 1
    # The dict view is the one place that walks the history again.
    artifact.to_dict()
    assert len(calls) == 2


def test_to_json_has_no_indent_knob():
    artifact = execute(RunSpec(protocol="msc", ops=2, seed=1))
    with pytest.raises(TypeError):
        artifact.to_json(indent=2)
