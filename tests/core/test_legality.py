"""Unit tests for conflict, interference and legality (D 4.1-4.7)."""

import pytest

from repro.core import (
    INIT_UID,
    conflict,
    interfere,
    interfering_triples,
    is_legal,
    is_legal_sequence,
    make_mop,
    msc_order,
    read,
    write,
)
from repro.core.legality import first_illegal_read, illegal_triples
from tests.conftest import simple_history


class TestConflict:
    def test_write_write_same_object(self):
        a = make_mop(1, 0, [write("x", 1)])
        b = make_mop(2, 1, [write("x", 2)])
        assert conflict(a, b) and conflict(b, a)

    def test_read_write_same_object(self):
        a = make_mop(1, 0, [read("x", 0)])
        b = make_mop(2, 1, [write("x", 2)])
        assert conflict(a, b) and conflict(b, a)

    def test_read_read_no_conflict(self):
        a = make_mop(1, 0, [read("x", 0)])
        b = make_mop(2, 1, [read("x", 0)])
        assert not conflict(a, b)

    def test_disjoint_objects_no_conflict(self):
        a = make_mop(1, 0, [write("x", 1)])
        b = make_mop(2, 1, [write("y", 2)])
        assert not conflict(a, b)

    def test_self_no_conflict(self):
        a = make_mop(1, 0, [write("x", 1)])
        assert not conflict(a, a)

    def test_multi_object_overlap(self):
        a = make_mop(1, 0, [read("x", 0), write("y", 1)])
        b = make_mop(2, 1, [read("y", 1), write("z", 2)])
        assert conflict(a, b)  # a writes y, b reads y


class TestInterference:
    @pytest.fixture
    def h(self):
        # 1 writes x; 2 reads x from 1; 3 also writes x.
        return simple_history(
            [(1, 0, "w x 5"), (2, 1, "r x 5"), (3, 2, "w x 7")]
        )

    def test_interfere_positive(self, h):
        assert interfere(h, 2, 1, 3)

    def test_interfere_requires_distinct(self, h):
        assert not interfere(h, 2, 1, 1)
        assert not interfere(h, 2, 2, 3)

    def test_interfere_requires_write_of_read_object(self, h):
        assert not interfere(h, 2, 3, 1) is True or True  # c=1 writes x...
        # 2 reads nothing from 3, so (2, 3, 1) does not interfere.
        assert not interfere(h, 2, 3, 1)

    def test_interfering_triples_enumeration(self, h):
        triples = set(interfering_triples(h))
        assert (2, 1, 3) in triples
        # init also writes x, so (2, 1, 0) interferes as well.
        assert (2, 1, INIT_UID) in triples

    def test_triples_imply_pairwise_conflict(self, h):
        for a, b, c in interfering_triples(h):
            assert conflict(h[a], h[b])
            assert conflict(h[b], h[c])
            assert conflict(h[c], h[a])


class TestIsLegal:
    def test_legal_when_overwriter_outside(self):
        h = simple_history(
            [(1, 0, "w x 5"), (2, 1, "r x 5"), (3, 2, "w x 7")]
        )
        # Order: 1 < 2 < 3 — overwriter after the reader: legal.
        base = msc_order(h)
        base.add(1, 2)
        base.add(2, 3)
        assert is_legal(h, base.transitive_closure())

    def test_illegal_when_overwriter_between(self):
        h = simple_history(
            [(1, 0, "w x 5"), (2, 1, "r x 5"), (3, 2, "w x 7")]
        )
        base = msc_order(h)
        base.add(1, 3)
        base.add(3, 2)  # overwriter strictly between writer and reader
        closure = base.transitive_closure()
        assert not is_legal(h, closure)
        assert (2, 1, 3) in illegal_triples(h, closure)

    def test_unordered_overwriter_is_legal(self):
        # D 4.6 only forbids *ordered* interposition.
        h = simple_history(
            [(1, 0, "w x 5"), (2, 1, "r x 5"), (3, 2, "w x 7")]
        )
        assert is_legal(h, msc_order(h).transitive_closure())


class TestLegalSequence:
    @pytest.fixture
    def h(self):
        return simple_history(
            [(1, 0, "w x 5"), (2, 1, "r x 5"), (3, 2, "w x 7")]
        )

    def test_legal_order(self, h):
        assert is_legal_sequence(h, [1, 2, 3])

    def test_illegal_order(self, h):
        assert not is_legal_sequence(h, [1, 3, 2])

    def test_init_implicitly_first(self, h):
        assert is_legal_sequence(h, [INIT_UID, 1, 2, 3])
        assert not is_legal_sequence(h, [1, INIT_UID, 2, 3])

    def test_wrong_length_rejected(self, h):
        assert not is_legal_sequence(h, [1, 2])
        assert not is_legal_sequence(h, [1, 2, 3, 3])

    def test_read_of_initial_value(self):
        h = simple_history([(1, 0, "r x 0"), (2, 1, "w x 5")])
        assert is_legal_sequence(h, [1, 2])
        assert not is_legal_sequence(h, [2, 1])

    def test_first_illegal_read_diagnostics(self, h):
        assert first_illegal_read(h, [1, 2, 3]) is None
        diag = first_illegal_read(h, [1, 3, 2])
        assert diag is not None
        reader, obj, expected, actual = diag
        assert reader == 2 and obj == "x" and expected == 1 and actual == 3

    @pytest.mark.parametrize("order", [[], [1, 1, 3], [1, 3, 2, 2]])
    def test_non_permutation_is_no_sequence(self, order):
        # One replay loop: a non-permutation is illegal for
        # is_legal_sequence and an error for first_illegal_read, never
        # "no illegal read".
        h = simple_history([(1, 0, "w x 1"), (2, 1, "w x 2"), (3, 2, "r x 1")])
        assert not is_legal_sequence(h, order)
        with pytest.raises(ValueError):
            first_illegal_read(h, order)

    def test_multi_object_sequence(self):
        h = simple_history(
            [
                (1, 0, "w x 1, w y 2"),
                (2, 1, "r x 1, w y 3"),
                (3, 2, "r y 3, r x 1"),
            ]
        )
        assert is_legal_sequence(h, [1, 2, 3])
        assert not is_legal_sequence(h, [1, 3, 2])
