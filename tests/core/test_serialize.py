"""Unit tests for history (de)serialization."""

import json

import pytest

from repro.core.serialize import (
    canonical_json,
    history_from_dict,
    history_from_json,
    history_to_dict,
    history_to_json,
    load_history,
    save_history,
)
from repro.errors import (
    MalformedHistoryError,
    MalformedOperationError,
    ReadsFromError,
)
from repro.workloads import (
    HistoryShape,
    figure1,
    figure2_h1,
    random_serial_history,
)
from tests.conftest import simple_history


class TestRoundTrips:
    def test_timed_history(self):
        h = figure1()
        assert h.equivalent_to(history_from_json(history_to_json(h)))

    def test_untimed_history(self):
        h = simple_history([(1, 0, "w x 1"), (2, 1, "r x 1")])
        again = history_from_json(history_to_json(h))
        assert h.equivalent_to(again)
        assert not again.is_timed

    def test_initial_values_survive(self):
        h = simple_history([(1, 0, "r x 7")], initial_values={"x": 7})
        again = history_from_json(history_to_json(h))
        assert again.init.external_writes == {"x": 7}

    def test_explicit_reads_from_survives(self):
        specs = [(1, 0, "w x 5"), (2, 1, "w x 5"), (3, 2, "r x 5")]
        h = simple_history(specs, reads_from={(3, "x"): 2})
        again = history_from_json(history_to_json(h))
        assert again.writer_of(3, "x") == 2

    def test_file_round_trip(self, tmp_path):
        h, _ = figure2_h1()
        path = tmp_path / "h1.json"
        save_history(h, str(path))
        assert h.equivalent_to(load_history(str(path)))

    def test_file_is_canonical_json(self, tmp_path):
        h = random_serial_history(HistoryShape(3, 4, 20), seed=7)
        path = tmp_path / "h.json"
        save_history(h, str(path))
        text = path.read_text(encoding="utf-8")
        assert text == canonical_json(history_to_dict(h)) + "\n"
        again = load_history(str(path))
        assert h.equivalent_to(again)

    def test_verdicts_survive_round_trip(self):
        from repro.core import is_m_linearizable

        h = figure1()
        again = history_from_json(history_to_json(h))
        assert is_m_linearizable(h, method="exact") == is_m_linearizable(
            again, method="exact"
        )


class TestValidation:
    def test_invalid_json_rejected(self):
        with pytest.raises(MalformedHistoryError):
            history_from_json("{not json")

    def test_missing_mops_rejected(self):
        with pytest.raises(MalformedHistoryError):
            history_from_dict({"objects": {}})

    def test_bad_op_kind_rejected(self):
        with pytest.raises(MalformedHistoryError):
            history_from_dict(
                {"mops": [{"uid": 1, "process": 0, "ops": [["z", "x", 1]]}]}
            )

    def test_malformed_op_entry_rejected(self):
        with pytest.raises(MalformedHistoryError):
            history_from_dict(
                {"mops": [{"uid": 1, "process": 0, "ops": [["r", "x"]]}]}
            )

    def test_documented_format_accepted(self):
        h = history_from_dict(
            {
                "objects": {"x": 0, "y": 0},
                "mops": [
                    {
                        "uid": 1,
                        "process": 0,
                        "name": "alpha",
                        "inv": 0.0,
                        "resp": 1.0,
                        "ops": [["w", "x", 1], ["r", "y", 0]],
                    },
                    {
                        "uid": 2,
                        "process": 1,
                        "inv": 2.0,
                        "resp": 3.0,
                        "ops": [["r", "x", 1]],
                    },
                ],
            }
        )
        assert h.writer_of(2, "x") == 1


def _mop(uid, ops, process=0, **times):
    return {"uid": uid, "process": process, "ops": ops, **times}


_W1 = _mop(1, [["w", "x", 1]])
_TWO_FIVES = [
    _mop(1, [["w", "x", 5]]),
    _mop(2, [["w", "x", 5]], 1),
    _mop(3, [["r", "x", 5], ["r", "y", 0]], 2),
]
_MHE, _MOE, _RFE = (
    MalformedHistoryError,
    MalformedOperationError,
    ReadsFromError,
)

#: A malformed document and exactly what loading it raises.
MALFORMED = {
    "not-an-object": (
        [], _MHE, "history document must be an object with a 'mops' array"
    ),
    "no-mops": (
        {"objects": {}}, _MHE,
        "history document must be an object with a 'mops' array",
    ),
    "short-op": (
        {"mops": [_mop(1, [["r", "x"]])]}, _MHE,
        "malformed operation entry ['r', 'x']; expected [kind, object, value]",
    ),
    "scalar-op": (
        {"mops": [_mop(1, [5])]}, _MHE,
        "malformed operation entry 5; expected [kind, object, value]",
    ),
    "bad-kind": (
        {"mops": [_mop(1, [["x", "x", 1]])]}, _MHE,
        "operation kind must be 'r' or 'w', got 'x'",
    ),
    "negative-uid": (
        {"mops": [_mop(-1, [])]}, _MOE,
        "m-operation uid must be non-negative, got -1",
    ),
    "inv-without-resp": (
        {"mops": [_mop(1, [], inv=1.0)]}, _MOE,
        "m-operation m#1: inv and resp must both be set or both be None",
    ),
    "inv-after-resp": (
        {"mops": [_mop(1, [], inv=2.0, resp=1.0)]}, _MOE,
        "m-operation m#1: invocation time 2.0 must precede response time 1.0",
    ),
    "internal-read": (
        {"mops": [_mop(1, [["w", "x", 1], ["r", "x", 2]])]}, _MOE,
        "m-operation m#1: internal read r(x)2 does not match the last "
        "internal write w(x)1",
    ),
    "reads-disagree": (
        {"mops": [_mop(1, [["r", "x", 0], ["r", "x", 1]])]}, _MOE,
        "m-operation m#1: external reads of 'x' disagree (0 vs 1); no legal "
        "sequential history can satisfy both",
    ),
    "no-writer": (
        {"mops": [_mop(1, [["r", "x", 7]])]}, _RFE,
        "m#1 reads 'x'=7 but no m-operation writes that value",
    ),
    "duplicate-uid": (
        {"mops": [_W1, _mop(1, [["w", "y", 2]], 1)]}, _MHE,
        "duplicate m-operation uid 1",
    ),
    "reserved-uid": (
        {"mops": [_mop(0, [["w", "x", 1]])]}, _MHE,
        "duplicate m-operation uid 0",
    ),
    "missing-uid": ({"mops": [{"process": 0, "ops": []}]}, KeyError, "'uid'"),
    "text-uid": (
        {"mops": [_mop("a", [])]}, ValueError,
        "invalid literal for int() with base 10: 'a'",
    ),
    "unknown-rf": (
        {"mops": [_W1], "reads_from": [[9, "x", 1]]}, _MHE,
        "reads-from entry (9, 'x') -> 1 references unknown m-operations",
    ),
    "rf-no-read": (
        {"mops": [_W1, _mop(2, [["w", "y", 2]], 1)],
         "reads_from": [[2, "x", 1]]}, _MHE,
        "m#2 has no external read of 'x' but the reads-from map says it does",
    ),
    "rf-no-write": (
        {"mops": [_W1, _mop(2, [["r", "y", 0]], 1)],
         "reads_from": [[2, "y", 1]]}, _MHE,
        "m#1 has no external write of 'y' but m#2 claims to read 'y' from it",
    ),
    "rf-value": (
        {"mops": [_W1, _mop(2, [["w", "x", 2]], 1), _mop(3, [["r", "x", 1]], 2)],
         "reads_from": [[3, "x", 2]]}, _MHE,
        "m#3 reads 'x'=1 but its reads-from writer m#2 wrote 2",
    ),
    "not-sequential": (
        {"mops": [_mop(1, [], inv=0.0, resp=2.0), _mop(2, [], inv=1.0, resp=3.0)]},
        _MHE,
        "process P0 is not sequential: m#1 (resp=2.0) overlaps m#2 (inv=1.0)",
    ),
    # Values must be JSON scalars: the index of written values hashes
    # them, whether or not a read needs it.
    "unhashable-write": (
        {"mops": [_mop(1, [["w", "x", [1]]])], "reads_from": []}, TypeError,
        "unhashable type: 'list'",
    ),
    "unhashable-initial": (
        {"mops": [_mop(1, [["r", "x", {}]])], "objects": {"x": {}},
         "reads_from": [[1, "x", 0]]}, TypeError,
        "unhashable type: 'dict'",
    ),
    # Precedence, as tests/core/test_history.py::TestRaiseOrder pins it
    # for History.from_mops.
    "missing-writer-before-disagreement": (
        {"mops": [_mop(1, [["r", "x", 7]]),
                  _mop(2, [["r", "y", 1], ["r", "y", 2]], 1)]}, _RFE,
        "m#1 reads 'x'=7 but no m-operation writes that value",
    ),
    "disagreement-before-missing-writer": (
        {"mops": [_mop(1, [["r", "y", 1], ["r", "y", 2]]),
                  _mop(2, [["r", "x", 7]], 1)]}, _MOE,
        "m-operation m#1: external reads of 'y' disagree (1 vs 2); no legal "
        "sequential history can satisfy both",
    ),
    "completion-before-duplicate": (
        {"mops": [_W1, _mop(1, [["r", "x", 7]], 1)]}, _RFE,
        "m#1 reads 'x'=7 but no m-operation writes that value",
    ),
    "duplicate-before-rf-validation": (
        {"mops": [_W1, _mop(1, [["w", "x", 2]], 1)],
         "reads_from": [[9, "x", 1]]}, _MHE,
        "duplicate m-operation uid 1",
    ),
    "remedy-derived": (
        {"mops": _TWO_FIVES}, _RFE,
        "m#3 reads 'x'=5 which is written by 2 m-operations; pass an "
        "explicit reads_from map to disambiguate",
    ),
    "remedy-explicit": (
        {"mops": _TWO_FIVES, "reads_from": [[3, "y", 0]]}, _RFE,
        "m#3 reads 'x'=5 which is written by 2 m-operations; supply a "
        "complete reads_from map to disambiguate",
    ),
    "sequential-before-rf-validation": (
        {"mops": [_mop(1, [["w", "x", 1]], inv=0.0, resp=2.0),
                  _mop(2, [], inv=1.0, resp=3.0)],
         "reads_from": [[9, "x", 1]]}, _MHE,
        "process P0 is not sequential: m#1 (resp=2.0) overlaps m#2 (inv=1.0)",
    ),
    # Entries are built in order, each before the history: an
    # m-operation error in a later entry beats a history error in an
    # earlier one, and an earlier entry's error beats a later one's.
    "later-internal-read-before-earlier-missing-writer": (
        {"mops": [_mop(1, [["r", "x", 7]]),
                  _mop(2, [["w", "y", 1], ["r", "y", 2]], 1)]}, _MOE,
        "m-operation m#2: internal read r(y)2 does not match the last "
        "internal write w(y)1",
    ),
    "earlier-uid-before-later-kind": (
        {"mops": [_mop(-1, []), _mop(2, [["q", "x", 1]])]}, _MOE,
        "m-operation uid must be non-negative, got -1",
    ),
}


class TestMalformedDocuments:
    """Every rejection keeps its exception type, its message and its
    precedence, through the dictionary and the JSON entry points."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    @pytest.mark.parametrize("load", ["dict", "json"])
    def test_rejected_exactly(self, name, load):
        document, error, message = MALFORMED[name]
        with pytest.raises(error) as raised:
            if load == "dict":
                history_from_dict(document)
            else:
                history_from_json(json.dumps(document))
        assert type(raised.value) is error
        assert str(raised.value) == message
