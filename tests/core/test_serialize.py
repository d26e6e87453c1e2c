"""Unit tests for history (de)serialization."""

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
from repro.errors import MalformedHistoryError
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
