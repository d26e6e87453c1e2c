"""Refutations under m-normality, and their rendering."""

from repro.core import check_condition
from tests.conftest import simple_history


class TestMNormDiagnosis:
    def test_mnorm_clean(self):
        h = simple_history(
            [(1, 0, "w x 1", 0.0, 1.0), (2, 1, "r x 1", 2.0, 3.0)]
        )
        verdict = check_condition(h, "m-norm")
        assert verdict.holds and verdict.refutation is None

    def test_mnorm_stale_read_triple(self):
        h = simple_history(
            [
                (1, 0, "w x 5", 0.0, 1.0),
                (2, 1, "w x 7", 2.0, 3.0),
                (3, 2, "r x 5", 4.0, 5.0),
            ]
        )
        refutation = check_condition(h, "m-norm").refutation
        assert refutation.kind == "illegal"
        assert refutation.triple == (3, 1, 2)

    def test_mnorm_passes_where_mlin_fails(self):
        # The separating history from test_consistency: m-normal but
        # not m-linearizable; the refutation is a real-time cycle.
        h = simple_history(
            [
                (1, 0, "r y 3", 0.0, 1.0),
                (2, 1, "w x 2", 2.0, 2.5),
                (3, 2, "r x 2, w y 3", 0.5, 3.0),
            ]
        )
        assert check_condition(h, "m-norm").refutation is None
        refutation = check_condition(h, "m-lin").refutation
        assert refutation.kind == "cycle"
        assert {label for _uid, label in refutation.cycle} <= {"t", "rf"}


class TestExplanationRendering:
    def test_str_is_detail(self):
        h = simple_history(
            [(1, 0, "w x 5", 0.0, 1.0), (2, 1, "r x 5", 2.0, 3.0),
             (3, 0, "w x 7", 1.5, 1.8)]
        )
        refutation = check_condition(h, "m-lin").refutation
        assert str(refutation) == (
            "m-lin violated: illegal triple (D 4.6): m#2 reads 'x' from "
            "m#1, but m#3 overwrites it and is ordered strictly between "
            "them"
        )

    def test_untimed_history_msc_only(self):
        # m-sc refutations never need timestamps.
        h = simple_history(
            [
                (1, 0, "w x 1"),
                (2, 0, "w x 2"),
                (3, 1, "r x 2"),
                (4, 1, "r x 1"),
            ]
        )
        verdict = check_condition(h, "m-sc")
        assert not verdict.holds
        assert verdict.refutation.kind in ("cycle", "illegal", "search")
