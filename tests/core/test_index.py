"""Unit tests for the shared history-index layer.

:class:`HistoryIndex` (batch: cached covers, triples, base orders).
The streaming audit contract is :class:`~repro.core.monitor.LiveMonitor`'s,
in ``tests/core/test_monitor.py``.
"""

import pytest

from repro.core import (
    HistoryIndex,
    Relation,
    base_order,
    object_order,
    real_time_order,
)
from repro.core.index import CONDITIONS
from repro.core.operation import INIT_UID
from repro.core.plan import _cover_successors
from repro.errors import MissingTimestampsError
from repro.workloads import (
    HistoryShape,
    random_serial_history,
)
from tests.conftest import simple_history


def sample_history(n_mops=40, seed=7):
    shape = HistoryShape(
        n_processes=4, n_objects=3, n_mops=n_mops, query_fraction=0.4
    )
    return random_serial_history(shape, seed=seed)


class TestHistoryIndex:
    def test_of_returns_cached_instance(self):
        h = sample_history()
        assert HistoryIndex.of(h) is HistoryIndex.of(h)

    def test_base_relation_is_cached_per_condition_and_extra(self):
        index = HistoryIndex.of(sample_history())
        assert index.base_relation("m-sc") is index.base_relation("m-sc")
        augmented = index.base_relation("m-sc", ((1, 2),))
        assert augmented is index.base_relation("m-sc", ((1, 2),))
        assert augmented is not index.base_relation("m-sc")
        assert (1, 2) in augmented

    def test_rows_with_equal_orders_share_one_base(self):
        """m-causal's ``~H`` is m-SC's: one cached base and closure."""
        index = HistoryIndex.of(sample_history())
        assert CONDITIONS["m-causal"].orders == CONDITIONS["m-sc"].orders
        assert index.base_relation("m-causal") is index.base_relation("m-sc")
        assert index.base_relation(
            "m-causal", ((1, 2),)
        ) is index.base_relation("m-sc", ((1, 2),))
        assert index.base_relation("m-lin") is not index.base_relation("m-sc")

    def test_unknown_condition_names_the_table(self):
        with pytest.raises(ValueError, match="m-causal"):
            list(HistoryIndex.of(sample_history()).cover_edges("m-foo"))

    @pytest.mark.parametrize("condition", sorted(CONDITIONS))
    def test_cover_closure_equals_full_order_closure(self, condition):
        """The cover-edge bases close to exactly the paper's orders."""
        h = sample_history()
        real_time, objects = CONDITIONS[condition].orders
        naive = base_order(h, real_time=real_time, objects=objects)
        index_base = HistoryIndex.of(h).base_relation(condition)
        assert (
            index_base.transitive_closure() == naive.transitive_closure()
        )

    @pytest.mark.parametrize("condition", sorted(CONDITIONS))
    def test_cover_edges_feed_the_relation_and_the_scan(self, condition):
        """One generator says which edges make ``~H``: the bitmask
        base order and the scan's adjacency sets both hold exactly
        them (extra pairs included, duplicates folded)."""
        h = sample_history(n_mops=25, seed=11)
        index = HistoryIndex.of(h)
        extra = ((1, 2), (2, 3))
        edges = set(index.cover_edges(condition, extra))
        assert set(extra) <= edges
        assert set(index.base_relation(condition, extra).pairs()) == edges
        pos, succ = _cover_successors(h, condition, extra)
        assert {
            (a, h.uids[j]) for a in h.uids for j in succ[pos[a]]
        } == edges

    def test_real_time_cover_closure_matches_order(self):
        h = sample_history(n_mops=25, seed=11)
        cover = HistoryIndex.of(h).real_time_cover()
        closed = Relation(h.uids, cover).transitive_closure()
        full = real_time_order(h)
        # ~t is itself transitive; the cover's closure restores every
        # non-init pair (init fan-out lives in base_relation).
        expected = {(a, b) for a, b in full.pairs() if a != INIT_UID}
        assert set(closed.pairs()) == expected

    def test_object_cover_closure_matches_order(self):
        h = sample_history(n_mops=25, seed=11)
        cover = HistoryIndex.of(h).object_cover()
        closed = Relation(h.uids, cover).transitive_closure()
        full = object_order(h)
        expected = {(a, b) for a, b in full.pairs() if a != INIT_UID}
        # Per-object interval covers may close over pairs of ~x only
        # reachable through a third object — never miss one.
        assert expected <= set(closed.pairs())
        assert set(closed.pairs()) <= set(
            base_order(h, objects=True).transitive_closure().pairs()
        )

    def test_covers_require_timestamps(self):
        untimed = simple_history(
            [(1, 0, "w x 1"), (2, 1, "r x 1")],
            initial_values={"x": 0},
        )
        index = HistoryIndex.of(untimed)
        with pytest.raises(MissingTimestampsError):
            index.real_time_cover()
        with pytest.raises(MissingTimestampsError):
            index.object_cover()

    def test_interfering_triples_match_brute_force(self):
        h = sample_history(n_mops=20, seed=5)
        writers = {}
        for mop in h.all_mops:
            for obj in mop.external_writes:
                writers.setdefault(obj, set()).add(mop.uid)
        expected = {
            (reader, writer, other)
            for (reader, obj), writer in h.reads_from_map.items()
            if reader != writer
            for other in writers.get(obj, ())
            if other not in (reader, writer)
        }
        assert set(HistoryIndex.of(h).interfering_triples()) == expected

    def test_stats_counts(self):
        h = sample_history(n_mops=30, seed=9)
        stats = HistoryIndex.of(h).stats()
        assert stats.mops == 30
        assert stats.updates + stats.queries == 30
        assert stats.updates == sum(1 for m in h.mops if m.is_update)
        assert stats.reads_from_edges == len(h.reads_from_pairs())
        assert str(stats.mops) in stats.row()

    @pytest.mark.parametrize(
        "n_mops, seed", [(40, 7), (25, 11), (20, 5), (30, 9), (200, 3)]
    )
    def test_stats_count_triples_without_enumerating_them(self, n_mops, seed):
        index = HistoryIndex.of(sample_history(n_mops=n_mops, seed=seed))
        counted = index.stats().interfering_triples
        assert index._d.triples is None
        assert counted == len(index.interfering_triples()) > 0
