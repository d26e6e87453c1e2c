"""Unit tests for the exact admissibility checker (D 4.7)."""

import sys

import pytest

from repro.analysis import exponential_gadget
from repro.core import (
    HistoryIndex,
    Relation,
    SearchBudgetExceeded,
    base_order,
    check_admissible,
    check_condition,
    count_legal_linearizations,
    extended_relation,
    is_legal,
    is_legal_sequence,
    msc_order,
    rw_pairs,
)
from repro.workloads import HistoryShape, figure2_h1, random_serial_history
from tests.conftest import simple_history, view_history
from tests.core.test_index_crossval import CORPUS
from tools.verdict_corpus import recorded_corpus


class TestBasicVerdicts:
    def test_trivial_history_admissible(self):
        h = simple_history([(1, 0, "w x 1")])
        res = check_admissible(h, msc_order(h))
        assert res.admissible
        assert res.witness == [0, 1]

    def test_witness_is_legal(self):
        h, base = figure2_h1()
        res = check_admissible(h, base)
        assert res.admissible
        assert is_legal_sequence(h, res.witness)

    def test_cyclic_base_inadmissible(self):
        h = simple_history([(1, 0, "w x 1"), (2, 1, "w y 2")])
        base = base_order(h, extra_pairs=[(1, 2), (2, 1)])
        res = check_admissible(h, base)
        assert not res.admissible
        assert res.stats.pruned_cyclic

    def test_illegal_history_pruned(self):
        h = simple_history(
            [(1, 0, "w x 1"), (2, 1, "r x 1"), (3, 2, "w x 7")]
        )
        base = base_order(h, extra_pairs=[(1, 3), (3, 2)])
        res = check_admissible(h, base)
        assert not res.admissible
        assert res.stats.pruned_illegal

    def test_contradiction_core_inadmissible(self):
        # The exponential gadget with 0 toggles: passes legality but
        # requires both A < B and B < A.
        h = exponential_gadget(0)
        res = check_admissible(h, msc_order(h))
        assert not res.admissible
        assert not res.stats.pruned_illegal
        assert res.stats.nodes > 0

    def test_witness_respects_base_order(self):
        h = simple_history(
            [
                (1, 0, "w x 1", 0.0, 1.0),
                (2, 0, "w x 2", 2.0, 3.0),
                (3, 1, "r x 2", 4.0, 5.0),
            ]
        )
        base = msc_order(h)
        res = check_admissible(h, base)
        assert res.admissible
        witness = res.witness
        for a, b in base.pairs():
            assert witness.index(a) < witness.index(b)


class TestSearchBehaviour:
    def test_node_limit_enforced(self):
        h = exponential_gadget(6)
        with pytest.raises(SearchBudgetExceeded):
            check_admissible(h, msc_order(h), node_limit=100)

    def test_rw_propagation_reduces_nodes(self):
        h, base = figure2_h1()
        with_rw = check_admissible(h, base, propagate_rw=True)
        without = check_admissible(h, base, propagate_rw=False)
        assert with_rw.admissible and without.admissible
        assert with_rw.stats.nodes <= without.stats.nodes

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        """The search keeps its own stack: each scheduled m-operation
        is one node deeper, and 300 of them fit under a recursion
        limit 150 frames above this test's."""
        h = random_serial_history(
            HistoryShape(
                n_processes=5, n_objects=4, n_mops=300, query_fraction=0.4
            ),
            seed=3,
        )
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            verdict = check_condition(h, "m-sc")  # no ~ww: it searches
        finally:
            sys.setrecursionlimit(limit)
        assert verdict.holds and verdict.method_used == "exact"
        assert verdict.stats.nodes > 300

    def test_base_without_init_universe_is_rebuilt(self):
        h = simple_history([(1, 0, "w x 1"), (2, 1, "r x 1")])
        base = Relation([1, 2], [(1, 2)])  # no init node
        res = check_admissible(h, base)
        assert res.admissible
        assert res.witness[0] == 0  # init scheduled first anyway


class TestAgainstBruteForce:
    """Cross-validate the search with exhaustive enumeration."""

    def brute_force(self, h, base):
        closure = base.transitive_closure()
        if not closure.is_acyclic():
            return False
        return any(
            is_legal_sequence(h, order)
            for order in closure.linear_extensions()
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_small_histories(self, seed):
        from repro.workloads import HistoryShape, random_serial_history

        shape = HistoryShape(
            n_processes=3, n_objects=2, n_mops=6, query_fraction=0.5
        )
        h = random_serial_history(shape, seed=seed)
        base = msc_order(h)
        assert check_admissible(h, base).admissible == self.brute_force(
            h, base
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_corrupted_histories(self, seed):
        from repro.workloads import (
            HistoryShape,
            corrupt_history,
            random_serial_history,
        )

        shape = HistoryShape(
            n_processes=3, n_objects=2, n_mops=6, query_fraction=0.4
        )
        h = random_serial_history(shape, seed=seed)
        c = corrupt_history(h, seed=seed)
        if c is None:
            pytest.skip("no rewirable read in this instance")
        base = msc_order(c)
        assert check_admissible(c, base).admissible == self.brute_force(
            c, base
        )


class TestCountLinearizations:
    def test_count_on_independent_writers(self):
        # Two writers on different objects plus no readers: both
        # orders legal => 2 linearizations (init always first).
        h = simple_history([(1, 0, "w x 1"), (2, 1, "w y 2")])
        assert count_legal_linearizations(h, msc_order(h)) == 2

    def test_count_with_reader_constraint(self):
        h = simple_history(
            [(1, 0, "w x 1"), (2, 1, "r x 1"), (3, 2, "w x 7")]
        )
        # Legal orders: 1,2,3. Others: 1,3,2 illegal; 3,1,2 legal!
        # (3 writes first, then 1, then 2 reads from 1.)
        assert count_legal_linearizations(h, msc_order(h)) == 2

    def test_count_zero_for_cycle(self):
        h = simple_history([(1, 0, "w x 1"), (2, 1, "w y 2")])
        base = base_order(h, extra_pairs=[(1, 2), (2, 1)])
        assert count_legal_linearizations(h, base) == 0


# ----------------------------------------------------------------------
# Sparse generators against the dense route they replaced
# ----------------------------------------------------------------------

#: The cross-validation corpus plus recorded msc/mlin runs and their
#: corrupt twins, whose searches branch.
DIFFERENTIAL = [h for _label, h in CORPUS] + recorded_corpus()


def dense_extended_relation(history, base):
    """The iterated ``~rw`` fixpoint as it once ran: copy the last
    closure, add the new pairs and close the dense copy again."""
    closure = base.transitive_closure()
    while True:
        new = [p for p in rw_pairs(history, closure) if p not in closure]
        if not new:
            return closure
        extended = closure.copy()
        extended.add_all(new)
        closure = extended.transitive_closure()


class TestGeneratorsAgainstDenseRoute:
    def test_rw_fixpoint_matches_the_dense_reference(self):
        grown = 0
        for history in DIFFERENTIAL:
            index = HistoryIndex.of(history)
            for condition in ("m-sc", "m-lin", "m-norm"):
                base = index.base_relation(condition)
                extended = extended_relation(history, base, iterate=True)
                assert extended == dense_extended_relation(history, base)
                grown += extended != base.transitive_closure()
        assert grown > 300

    def test_views_searched_by_mask_match_the_view_histories(self):
        """Each m-causal view the exact check searches — the whole
        order is acyclic and legal, else it is refuted first — gives
        the same verdict, witness and stats by mask as searched as a
        history of its own under the whole closure restricted to it."""
        verdicts = []
        for history in DIFFERENTIAL:
            index = HistoryIndex.of(history)
            base = index.base_relation("m-causal")
            if not base.is_acyclic() or not is_legal(history, base):
                continue
            closure = base.transitive_closure()
            for proc in history.processes:
                view = view_history(history, proc)
                mask = sum(1 << index.positions[uid] for uid in view.uids)
                restricted = Relation(
                    view.uids,
                    (
                        (a, b)
                        for a, b in closure.pairs()
                        if a in view and b in view and a != b
                    ),
                )
                found = check_admissible(history, base, view=mask)
                assert found == check_admissible(view, restricted), proc
                verdicts.append(found.admissible)
        assert len(verdicts) > 300 and False in verdicts
