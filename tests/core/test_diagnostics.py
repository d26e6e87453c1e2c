"""A violated verdict carries its refutation: cycle, triple, search."""

import pytest

from repro.analysis import exponential_gadget
from repro.core import check_condition
from tests.conftest import simple_history


class TestOk:
    def test_clean_history(self):
        h = simple_history([(1, 0, "w x 1"), (2, 1, "r x 1")])
        verdict = check_condition(h, "m-sc")
        assert verdict.holds and verdict.refutation is None

    def test_unknown_condition_rejected(self):
        h = simple_history([(1, 0, "w x 1")])
        with pytest.raises(ValueError):
            check_condition(h, "bogus")


class TestCycleDiagnosis:
    def test_future_read_cycle_named(self):
        # P1 reads a value written strictly later in real time.
        h = simple_history(
            [
                (1, 0, "r x 5", 0.0, 1.0),
                (2, 1, "w x 5", 2.0, 3.0),
            ]
        )
        refutation = check_condition(h, "m-lin").refutation
        assert refutation.kind == "cycle"
        assert refutation.cycle == ((1, "t"), (2, "rf"))
        assert "reads-from" in str(refutation)
        assert "real time" in str(refutation)

    def test_msc_cycle_via_process_order(self):
        # P0: reads y from P1's second op; P1: reads x from P0's
        # second op — a pure ~p/~rf cycle, no timestamps needed.
        h = simple_history(
            [
                (1, 0, "r y 7"),
                (2, 0, "w x 5"),
                (3, 1, "r x 5"),
                (4, 1, "w y 7"),
            ]
        )
        for method in ("auto", "exact"):
            refutation = check_condition(h, "m-sc", method=method).refutation
            assert refutation.cycle == (
                (1, "p"), (2, "rf"), (3, "p"), (4, "rf")
            )
            assert "process order" in str(refutation)


class TestTripleDiagnosis:
    def test_overwriter_between(self):
        # Timed so real-time order pins writer < overwriter < reader.
        h = simple_history(
            [
                (1, 0, "w x 5", 0.0, 1.0),
                (2, 1, "w x 7", 2.0, 3.0),
                (3, 2, "r x 5", 4.0, 5.0),
            ]
        )
        for method in ("auto", "exact"):
            refutation = check_condition(h, "m-lin", method=method).refutation
            assert refutation.kind == "illegal"
            assert refutation.triple == (3, 1, 2)
            assert refutation.obj == "x"
            assert "'x'" in str(refutation)
            assert "overwrites" in str(refutation)


class TestSearchDiagnosis:
    def test_global_conflict(self):
        # The contradiction core: passes legality and acyclicity,
        # only exhaustive search can refute it.
        verdict = check_condition(exponential_gadget(0), "m-sc")
        assert verdict.method_used == "exact"
        assert verdict.refutation.kind == "search"
        assert verdict.refutation.stats is verdict.stats
        assert "no legal sequential ordering" in str(verdict.refutation)

    def test_rw_propagation_cycle_before_any_search(self):
        # Store buffering: each process writes, then reads the initial
        # value the other overwrites.  Base order acyclic and legal;
        # the ~rw pairs close a cycle before the search expands a node.
        h = simple_history(
            [(1, 0, "w x 1"), (2, 0, "r y 0"), (3, 1, "w y 1"),
             (4, 1, "r x 0")]
        )
        verdict = check_condition(h, "m-sc")
        assert verdict.method_used == "exact"
        assert verdict.stats.nodes == 0 and verdict.stats.pruned_cyclic
        assert verdict.refutation.kind == "search"
        assert "D 4.11, closes a cycle" in str(verdict.refutation)
        assert "exhaustive" not in str(verdict.refutation)


class TestAgreementWithCheckers:
    @pytest.mark.parametrize("seed", range(8))
    def test_explain_agrees_with_checker(self, seed):
        from repro.workloads import (
            HistoryShape,
            corrupt_history,
            random_serial_history,
        )

        h = random_serial_history(
            HistoryShape(n_processes=3, n_objects=2, n_mops=8), seed=seed
        )
        h = corrupt_history(h, seed=seed) or h
        exact = check_condition(h, "m-sc", method="exact")
        auto = check_condition(h, "m-sc")
        assert auto.holds == exact.holds
        for verdict in (exact, auto):
            assert (verdict.refutation is None) == verdict.holds
