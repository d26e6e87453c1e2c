"""``estimate_size`` prices payloads exactly as its reference rules say.

``sim.network.bytes_est`` and ``protocols.mlin.query_resp_bytes_est``
are exact, pinned counts, so the tuned walk in :mod:`repro.sim.network`
must return the same number as the straightforward definition for
every payload — kept here, verbatim, as the reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import estimate_size
from repro.sim.network import (
    EMPTY_SIZE,
    MAX_SIZE_DEPTH,
    SizedDict,
    entry_size,
)


def reference_size(value, depth=0, seen=None):
    """The definition: isinstance rules, generator sums, path guard."""
    seen = set() if seen is None else seen
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value)
    if depth >= MAX_SIZE_DEPTH or id(value) in seen:
        return 8
    if isinstance(value, (list, tuple, set, frozenset)):
        seen.add(id(value))
        total = 2 + sum(reference_size(v, depth + 1, seen) for v in value)
        seen.discard(id(value))
        return total
    if isinstance(value, dict):
        seen.add(id(value))
        total = 2 + sum(
            reference_size(k, depth + 1, seen)
            + reference_size(v, depth + 1, seen)
            for k, v in value.items()
        )
        seen.discard(id(value))
        return total
    if hasattr(value, "__dict__"):
        seen.add(id(value))
        total = reference_size(vars(value), depth + 1, seen)
        seen.discard(id(value))
        return total
    return 8


class IntSub(int):
    pass


class StrSub(str):
    pass


class DictSub(dict):
    pass


class ListSub(list):
    pass


class Box:
    """An arbitrary object: priced through its ``__dict__``."""

    def __init__(self, **attrs):
        self.__dict__.update(attrs)


class Slotted:
    """No ``__dict__``, not a container: the flat fallback cost."""

    __slots__ = ()


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.integers(0, 9).map(IntSub),
    st.text(max_size=4).map(StrSub),
    st.just(Slotted()),
    st.just(b"bytes"),
)
hashable_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 50), st.text(max_size=4),
    st.integers(0, 9).map(IntSub),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3).map(ListSub),
        st.sets(hashable_leaves, max_size=4),
        st.frozensets(hashable_leaves, max_size=4),
        st.dictionaries(hashable_leaves, children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=3).map(
            DictSub
        ),
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]), children, max_size=3
        ).map(lambda attrs: Box(**attrs)),
        # The same child twice: shared, not cyclic — priced twice.
        children.map(lambda child: [child, child]),
    )


payloads = st.recursive(leaves, containers, max_leaves=25)


@given(payloads)
@settings(max_examples=300, deadline=None)
def test_matches_reference_on_nested_payloads(value):
    assert estimate_size(value) == reference_size(value)


@given(payloads, st.integers(0, MAX_SIZE_DEPTH + 6), st.sampled_from("ldb"))
@settings(max_examples=150, deadline=None)
def test_matches_reference_past_the_depth_cap(value, extra_depth, wrapper):
    for _ in range(extra_depth):
        if wrapper == "l":
            value = [value, 1]
        elif wrapper == "d":
            value = {"k": value}
        else:
            value = Box(inner=value)
    assert estimate_size(value) == reference_size(value)


@given(st.lists(payloads, min_size=1, max_size=4), payloads)
@settings(max_examples=100, deadline=None)
def test_matches_reference_on_cycles(items, tail):
    ring = list(items)
    ring.append(ring)
    table = {"ring": ring, "tail": tail}
    table["self"] = table
    box = Box(table=table)
    box.me = box
    ring.append(box)
    for value in (ring, table, box):
        assert estimate_size(value) == reference_size(value)


def test_bool_and_subclasses_price_as_their_base_rule():
    assert estimate_size(True) == 1 != estimate_size(1)
    assert estimate_size(IntSub(7)) == 8
    assert estimate_size(StrSub("abc")) == 3
    assert estimate_size(DictSub(a=1)) == estimate_size({"a": 1}) == 11
    assert estimate_size(ListSub([1, 2])) == estimate_size((1, 2)) == 18
    assert estimate_size(Box(a=1)) == 11
    assert estimate_size(Slotted()) == estimate_size(b"xy") == 8


# ----------------------------------------------------------------------
# Self-priced parts: a SizedDict answers with its owner's number, and
# that number is the walk's.
# ----------------------------------------------------------------------


def plain(value, _memo=None):
    """A deep copy with every ``SizedDict`` turned into a plain dict.

    Shared containers stay shared and cycles stay cycles, so the
    reference prices the copy exactly as the walk prices the original.
    """
    memo = {} if _memo is None else _memo
    if id(value) in memo:
        return memo[id(value)]
    if isinstance(value, dict):
        copy = memo[id(value)] = (
            {} if type(value) is SizedDict else type(value)()
        )
        for k, v in value.items():
            copy[plain(k, memo)] = plain(v, memo)
    elif isinstance(value, list):
        copy = memo[id(value)] = type(value)()
        copy.extend(plain(v, memo) for v in value)
    elif isinstance(value, (tuple, set, frozenset)):
        copy = memo[id(value)] = type(value)(plain(v, memo) for v in value)
    elif isinstance(value, Box):
        copy = memo[id(value)] = Box()
        for k, v in vars(value).items():
            setattr(copy, k, plain(v, memo))
    else:
        copy = value
    return copy


def nested(levels, leaf=7):
    """``leaf`` wrapped in ``levels`` lists."""
    for _ in range(levels):
        leaf = [leaf]
    return leaf


def sized(entries):
    """Build a ``SizedDict`` the way an owner must: from the rules."""
    part = SizedDict(entries)
    part.size = EMPTY_SIZE + sum(entry_size(k, v) for k, v in part.items())
    return part


# Cells as a store exports them, plus values that are themselves
# containers (deep enough to meet the depth cap inside the part).
cell_values = st.one_of(
    st.integers(-5, 2**70),
    st.text(max_size=5),
    st.none(),
    st.booleans(),
    st.lists(st.integers(0, 9), max_size=3),
    st.integers(0, MAX_SIZE_DEPTH + 2).map(nested),
)
parts = st.dictionaries(
    st.one_of(st.text(max_size=4), st.integers(0, 9)),
    st.tuples(cell_values, st.integers(0, 50), st.integers(0, 50)),
    max_size=5,
).map(sized)


@given(parts, st.integers(0, 9))
@settings(max_examples=200, deadline=None)
def test_sized_part_prices_as_the_walk_wherever_it_sits(part, uid):
    reply = {"uid": uid, "attempt": 0, "snapshot": part, "ts": (1, 2)}
    # Where it is sent: a direct member of the payload.
    assert part.size == reference_size(plain(reply)) - reference_size(
        {"uid": uid, "attempt": 0, "ts": (1, 2)}
    ) - len("snapshot")
    for payload in (
        reply,
        part,                       # the payload itself: walked
        [part],
        [part, part],               # shared twice, priced twice
        {"a": part, "b": [part]},   # once trusted, once walked
        Box(snapshot=part),
        Box(inner=Box(parts=(part, part))),
        {part.size: part, "size": part.size},
    ):
        assert estimate_size(payload) == reference_size(plain(payload))


@given(parts, st.integers(0, MAX_SIZE_DEPTH + 4), st.sampled_from("ldb"))
@settings(max_examples=150, deadline=None)
def test_sized_part_prices_as_the_walk_below_the_depth_cap(
    part, extra_depth, wrapper
):
    value = part
    for _ in range(extra_depth):
        if wrapper == "l":
            value = [value, 1]
        elif wrapper == "d":
            value = {"k": value}
        else:
            value = Box(inner=value)
        assert estimate_size(value) == reference_size(plain(value))


def test_only_the_exact_type_at_its_depth_is_taken_on_trust():
    class Impostor(dict):
        size = 1

    class Heir(SizedDict):
        pass

    lying = SizedDict(a=1)
    lying.size = 1000
    heir = Heir(a=1)
    heir.size = 1000
    honest = reference_size({"a": 1})
    # Trusted: the exact type, one level below the payload.
    assert estimate_size([lying]) == 2 + 1000
    assert estimate_size({"k": lying}) == 2 + 1 + 1000
    # Walked: any other depth, a subclass, and look-alikes that merely
    # carry a ``size`` attribute or key.
    assert estimate_size(lying) == honest
    assert estimate_size([[lying]]) == 2 + 2 + honest
    assert estimate_size(Box(part=lying)) == 2 + 4 + honest
    assert estimate_size([heir]) == 2 + honest
    assert estimate_size([Impostor(a=1)]) == 2 + honest
    assert estimate_size([Box(size=1)]) == 2 + reference_size({"size": 1})
    assert estimate_size([{"size": 1}]) == 2 + reference_size({"size": 1})
    assert estimate_size([Slotted()]) == 2 + 8


def test_unpriced_sized_dict_fails_loudly():
    with pytest.raises(AttributeError):
        estimate_size([SizedDict(a=1)])
