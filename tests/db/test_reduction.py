"""Unit tests for the Theorem-2 reduction (Section 3)."""

from collections import Counter

import pytest

from repro.core import check_m_linearizability
from repro.db import (
    history_overlap_matches_schedule,
    is_strict_view_serializable,
    random_schedule,
    random_serializable_schedule,
    reduction_decides,
    schedule_from_string,
    schedule_to_history,
)
from repro.errors import ReproError

#: ``random_schedule(4, 3, 4)`` seeds: 0-9, which all but seed 2 fail
#: to express, plus expressible ones of both verdicts.
LARGER_SEEDS = [*range(10), 21, 26, 40]

#: Each biconditional family: generator, shape, seeds, and how many of
#: its expressible schedules are (not) strict view serializable.
FAMILIES = {
    "random": (random_schedule, (3, 2, 3), range(40), {True: 4, False: 9}),
    "serializable": (
        random_serializable_schedule, (3, 2, 3), range(20), {True: 20}
    ),
    "larger": (random_schedule, (4, 3, 4), LARGER_SEEDS, {True: 2, False: 2}),
}


def expressible(schedule) -> bool:
    try:
        schedule_to_history(schedule)
    except ReproError:
        return False
    return True


class TestConstruction:
    def test_one_mop_per_transaction(self):
        s = schedule_from_string("r1(x) w2(x) w1(y)")
        h = schedule_to_history(s, include_final=False)
        assert set(h.uids) == {0, 1, 2}
        assert h[1].process == 1 and h[2].process == 2

    def test_operations_follow_transaction_order(self):
        s = schedule_from_string("r1(x) w2(x) w1(y) r1(y)")
        h = schedule_to_history(s, include_final=False)
        ops = [str(op) for op in h[1].ops]
        assert ops == ["r(x)0", "w(y)1", "r(y)1"]

    def test_invocation_response_from_first_last_actions(self):
        # "The first and last actions of a transaction define the
        # invocation and response events."
        s = schedule_from_string("r1(x) w2(x) w1(y)")
        h = schedule_to_history(s, include_final=False)
        assert h[1].inv == 0.0 and h[1].resp == 2.5
        assert h[2].inv == 1.0 and h[2].resp == 1.5

    def test_overlap_iff_schedule_overlap(self):
        # "two transactions are non-overlapping in the schedule S if
        # and only if the corresponding m-operations are
        # non-overlapping in H".  Random schedules are frequently
        # inexpressible as histories (the paper excludes those cases
        # by fiat); skip them but require enough expressible ones.
        checked = 0
        for seed in range(60):
            s = random_schedule(4, 2, 3, seed=seed)
            try:
                h = schedule_to_history(s, include_final=False)
            except ReproError:
                continue
            assert history_overlap_matches_schedule(s, h)
            checked += 1
        assert checked >= 5

    def test_reads_from_projection(self):
        s = schedule_from_string("w1(x) r2(x) r2(y)")
        h = schedule_to_history(s, include_final=False)
        assert h.writer_of(2, "x") == 1
        assert h.writer_of(2, "y") == 0  # initial m-operation

    def test_final_mop_reads_final_writers(self):
        s = schedule_from_string("w1(x) w2(x) w1(y)")
        h = schedule_to_history(s)
        final_uid = max(s.tids) + 1
        final = h[final_uid]
        assert final.is_query
        assert final.robjects == {"x", "y"}
        assert h.writer_of(final_uid, "x") == 2
        assert h.writer_of(final_uid, "y") == 1
        # Comes after everything in real time.
        for tid in s.tids:
            assert h[tid].resp < final.inv

    def test_inexpressible_schedule_raises(self):
        # T2 reads a write T1 overwrites within itself.
        s = schedule_from_string("w1(x) r2(x) w1(x)")
        with pytest.raises(ReproError):
            schedule_to_history(s)


class TestEquivalence:
    """The Theorem-2 biconditional, via two independent deciders."""

    @pytest.mark.parametrize("seed", range(40))
    def test_biconditional_random(self, seed):
        s = random_schedule(3, 2, 3, seed=seed)
        assert (
            is_strict_view_serializable(s).serializable
            == reduction_decides(s)
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_biconditional_serializable_family(self, seed):
        s = random_serializable_schedule(3, 2, 3, seed=seed)
        assert (
            is_strict_view_serializable(s).serializable
            == reduction_decides(s)
        )

    @pytest.mark.parametrize("seed", LARGER_SEEDS)
    def test_biconditional_larger(self, seed):
        s = random_schedule(4, 3, 4, seed=seed)
        assert (
            is_strict_view_serializable(s).serializable
            == reduction_decides(s)
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_biconditional_decides_expressible_schedules(self, family):
        """``reduction_decides`` answers False whenever
        ``schedule_to_history`` raises; each family must also decide
        schedules that reach the checker, of the verdicts it names."""
        generate, shape, seeds, expected = FAMILIES[family]
        decided = Counter()
        for seed in seeds:
            s = generate(*shape, seed=seed)
            if expressible(s):
                serializable = is_strict_view_serializable(s).serializable
                assert reduction_decides(s) == serializable, seed
                decided[serializable] += 1
        assert decided == expected

    def test_inexpressible_schedules_are_not_strict_view_serializable(self):
        """Theorem 2's hidden claim, on its own: a schedule whose
        observations no history can express (so the reduction answers
        False without checking) is never strict view serializable."""
        raised = Counter()
        for shape, seeds in (
            ((3, 2, 3), range(40)),
            ((4, 3, 4), LARGER_SEEDS),
            ((6, 4, 3), range(40)),
        ):
            for seed in seeds:
                s = random_schedule(*shape, seed=seed)
                if not expressible(s):
                    assert not is_strict_view_serializable(s).serializable
                    raised[shape] += 1
        assert raised == {(3, 2, 3): 27, (4, 3, 4): 9, (6, 4, 3): 29}

    def test_final_mop_needed_for_final_writes(self):
        """Dropping T_inf loses the final-writes condition.

        Find a schedule where the truncated history is m-linearizable
        but the full one is not; its existence is exactly why the
        paper augments the schedule (footnote 3).
        """
        found = False
        for seed in range(300):
            s = random_schedule(3, 2, 3, seed=seed)
            if is_strict_view_serializable(s).serializable:
                continue
            try:
                truncated = schedule_to_history(s, include_final=False)
            except ReproError:
                continue
            if check_m_linearizability(truncated, method="exact").holds:
                found = True
                break
        assert found, "T_inf never mattered in 300 seeds"
