"""Unit tests for the relation algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Relation, relation_from_sequence
from repro.errors import RelationError


class TestBasics:
    def test_empty_relation(self):
        rel = Relation([1, 2, 3])
        assert len(rel) == 0
        assert (1, 2) not in rel
        assert list(rel.pairs()) == []

    def test_add_and_contains(self):
        rel = Relation([1, 2, 3], [(1, 2)])
        assert (1, 2) in rel and (2, 1) not in rel
        assert len(rel) == 1

    def test_self_loop_rejected(self):
        rel = Relation([1, 2])
        with pytest.raises(RelationError):
            rel.add(1, 1)

    def test_unknown_node_rejected(self):
        rel = Relation([1, 2])
        with pytest.raises(RelationError):
            rel.add(1, 99)

    def test_contains_with_unknown_node_is_false(self):
        rel = Relation([1, 2], [(1, 2)])
        assert (1, 99) not in rel

    def test_successors_predecessors(self):
        rel = Relation([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
        assert rel.successors(1) == {2, 3}
        assert rel.predecessors(3) == {1, 2}

    def test_discard(self):
        rel = Relation([1, 2], [(1, 2)])
        rel.discard(1, 2)
        assert (1, 2) not in rel
        rel.discard(1, 2)  # idempotent

    def test_duplicate_universe_nodes_deduplicated(self):
        rel = Relation([1, 2, 2, 3])
        assert rel.nodes == (1, 2, 3)


class TestAlgebra:
    def test_union(self):
        a = Relation([1, 2, 3], [(1, 2)])
        b = Relation([1, 2, 3], [(2, 3)])
        u = a | b
        assert (1, 2) in u and (2, 3) in u
        # Operands unchanged.
        assert (2, 3) not in a

    def test_union_different_universe_rejected(self):
        a = Relation([1, 2])
        b = Relation([1, 3])
        with pytest.raises(RelationError):
            a.union(b)

    def test_issubset(self):
        a = Relation([1, 2, 3], [(1, 2)])
        b = Relation([1, 2, 3], [(1, 2), (2, 3)])
        assert a.issubset(b)
        assert not b.issubset(a)

    def test_issubset_compares_generated_orders(self):
        """Fig 1: m-norm holds 2->4 where m-lin holds 2->5, 5->4, so the
        cover-edge sets differ while the orders nest."""
        from repro.core import mlin_order, mnorm_order, msc_order
        from repro.workloads import figure1

        h = figure1()
        msc, mnorm, mlin = msc_order(h), mnorm_order(h), mlin_order(h)
        assert msc.issubset(mnorm) and mnorm.issubset(mlin)
        assert not mlin.issubset(msc)

    def test_copy_is_independent(self):
        a = Relation([1, 2], [(1, 2)])
        b = a.copy()
        b.add(2, 1)
        assert (2, 1) not in a

    def test_equality(self):
        assert Relation([1, 2], [(1, 2)]) == Relation([1, 2], [(1, 2)])
        assert Relation([1, 2], [(1, 2)]) != Relation([1, 2])


class TestClosure:
    def test_transitive_closure_chain(self):
        rel = Relation([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
        closure = rel.transitive_closure()
        assert (1, 4) in closure and (1, 3) in closure and (2, 4) in closure
        assert (4, 1) not in closure

    def test_closure_idempotent(self):
        rel = Relation([1, 2, 3], [(1, 2), (2, 3)])
        once = rel.transitive_closure()
        twice = once.transitive_closure()
        assert once == twice

    def test_closure_preserves_original(self):
        rel = Relation([1, 2, 3], [(1, 2), (2, 3)])
        rel.transitive_closure()
        assert (1, 3) not in rel

    def test_acyclicity(self):
        acyclic = Relation([1, 2, 3], [(1, 2), (2, 3)])
        cyclic = Relation([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
        assert acyclic.is_acyclic()
        assert not cyclic.is_acyclic()

    def test_two_cycle(self):
        rel = Relation([1, 2], [(1, 2), (2, 1)])
        assert not rel.is_acyclic()

    def test_is_irreflexive_transitive(self):
        chain = Relation([1, 2, 3], [(1, 2), (2, 3)])
        assert not chain.is_irreflexive_transitive()  # missing (1,3)
        assert chain.transitive_closure().is_irreflexive_transitive()

    def test_is_total_order(self):
        total = relation_from_sequence([3, 1, 2])
        assert total.is_total_order()
        partial = Relation([1, 2, 3], [(1, 2)])
        assert not partial.is_total_order()
        cyclic = Relation([1, 2], [(1, 2), (2, 1)])
        assert not cyclic.is_total_order()


def warshall_fixpoint(n, pairs):
    """Reference closure rows: bit-parallel Warshall iterated to a
    fixpoint over positions ``0..n-1`` — the routine
    ``Relation`` used for cyclic relations before the component pass
    replaced it.  Cycle members end up with their own bit set."""
    succ = [0] * n
    for a, b in pairs:
        succ[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for k in range(n):
            bit = 1 << k
            mask_k = succ[k]
            if not mask_k:
                continue
            for i in range(n):
                if succ[i] & bit and succ[i] | mask_k != succ[i]:
                    succ[i] |= mask_k
                    changed = True
    return succ


@st.composite
def digraphs(draw):
    """``(n, pairs)``: a random DAG over ``0..n-1`` plus zero to
    several back edges, so acyclic graphs, one cycle, nested and
    disjoint cycles all turn up."""
    n = draw(st.integers(1, 12))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    forward = draw(st.lists(edge.filter(lambda p: p[0] < p[1]), max_size=24))
    back = draw(st.lists(edge.filter(lambda p: p[0] > p[1]), max_size=4))
    return n, forward + back


class TestClosureAgainstWarshall:
    @settings(max_examples=300, deadline=None)
    @given(digraphs(), st.randoms(use_true_random=False))
    def test_rows_cycles_and_topological_order(self, graph, rng):
        n, pairs = graph
        # Node ids differ from positions, and positions from DFS order.
        ids = [10 * i + 3 for i in range(n)]
        rng.shuffle(ids)
        rel = Relation(ids, [(ids[a], ids[b]) for a, b in pairs])
        expected = warshall_fixpoint(n, pairs)
        cyclic = any(row >> i & 1 for i, row in enumerate(expected))

        rows = rel.closure_rows()
        assert rows.succ == expected
        assert rows.pred == [
            sum(1 << i for i in range(n) if expected[i] >> j & 1)
            for j in range(n)
        ]
        closure = rel.transitive_closure()
        assert closure._succ == expected
        assert closure.closure_rows() is rows
        assert closure.is_acyclic() == (not cyclic)
        # is_acyclic() on a relation that was never closed takes the
        # Kahn route; both must agree with the rows.
        fresh = Relation(ids, rel.pairs())
        assert fresh.is_acyclic() == (not cyclic)
        assert (fresh.topological_order() is None) == cyclic

    def test_rows_follow_mutation(self):
        def rows(relation):
            found = relation.closure_rows()
            return found.succ, found.pred

        rel = Relation([1, 2, 3], [(1, 2), (2, 3)])
        closure = rel.transitive_closure()
        assert rows(rel) == ([0b110, 0b100, 0], [0, 0b001, 0b011])
        rel.add(3, 1)
        assert rows(rel) == ([0b111] * 3, [0b111] * 3)
        assert not rel.transitive_closure().is_acyclic()
        rel.discard(3, 1)
        assert rows(rel) == ([0b110, 0b100, 0], [0, 0b001, 0b011])
        # The closure taken before the mutations kept its own rows.
        assert rows(closure) == ([0b110, 0b100, 0], [0, 0b001, 0b011])

    def test_closing_a_cyclic_closure_again_keeps_it_cyclic(self):
        """A cyclic closure carries self-reachability bits in its own
        rows; re-closing a mutated copy must still see the cycle."""
        closure = Relation([1, 2, 3], [(1, 2), (2, 1)]).transitive_closure()
        again = closure.copy()
        again.add(2, 3)
        assert not again.transitive_closure().is_acyclic()
        assert (1, 3) in again.transitive_closure()


class TestLinearExtensions:
    def test_topological_order_respects_pairs(self):
        rel = Relation([3, 1, 2], [(1, 2), (2, 3)])
        order = rel.topological_order()
        assert order is not None
        assert order.index(1) < order.index(2) < order.index(3)

    def test_topological_order_of_cycle_is_none(self):
        rel = Relation([1, 2], [(1, 2), (2, 1)])
        assert rel.topological_order() is None

    def test_linear_extensions_count(self):
        # Three incomparable nodes: 3! = 6 extensions.
        rel = Relation([1, 2, 3])
        assert len(list(rel.linear_extensions())) == 6

    def test_linear_extensions_respect_order(self):
        rel = Relation([1, 2, 3], [(1, 2)])
        orders = list(rel.linear_extensions())
        assert len(orders) == 3
        for order in orders:
            assert order.index(1) < order.index(2)

    def test_linear_extensions_limit(self):
        rel = Relation(list(range(8)))
        assert len(list(rel.linear_extensions(limit=10))) == 10

    def test_relation_from_sequence(self):
        rel = relation_from_sequence([5, 2, 9])
        assert (5, 2) in rel and (2, 9) in rel and (5, 9) in rel
        assert (9, 5) not in rel
