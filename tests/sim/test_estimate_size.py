"""``estimate_size`` prices payloads exactly as its reference rules say.

``sim.network.bytes_est`` and ``protocols.mlin.query_resp_bytes_est``
are exact, pinned counts, so the tuned walk in :mod:`repro.sim.network`
must return the same number as the straightforward definition for
every payload — kept here, verbatim, as the reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Message, estimate_size
from repro.sim.network import EMPTY_SIZE, MAX_SIZE_DEPTH, entry_size


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
# Stated prices: a message built with the prices of some payload
# members walks only the others, and still costs what the walk says.
# ----------------------------------------------------------------------


def member_size(value):
    """What ``value`` costs as a member of a dict payload, one level
    below it: the price a sender states for it."""
    return reference_size(value, depth=1)


def nested(levels, leaf=7):
    """``leaf`` wrapped in ``levels`` lists."""
    for _ in range(levels):
        leaf = [leaf]
    return leaf


def kept_price(entries):
    """A dict member's price kept item by item, as a replica image
    keeps it: :data:`EMPTY_SIZE` plus each item's ``entry_size``."""
    seen = set()
    return EMPTY_SIZE + sum(entry_size(seen, k, v) for k, v in entries.items())


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
)


@given(parts, st.integers(0, 9))
@settings(max_examples=200, deadline=None)
def test_sized_part_prices_as_the_walk_wherever_it_sits(part, uid):
    ts = tuple(cell[0] for cell in part.values())
    assert kept_price(part) == member_size(part)
    seen = set()
    assert EMPTY_SIZE + sum(entry_size(seen, v) for v in ts) == member_size(ts)
    stated = {"snapshot": kept_price(part), "ts": member_size(ts)}
    reply = {"uid": uid, "attempt": 0, "snapshot": part, "ts": ts}
    assert Message("r", reply, stated).size == reference_size(reply)
    # Stating some members, all of them, or none prices the same.
    for names in ((), ("ts",), ("snapshot", "ts")):
        priced = {name: stated[name] for name in names}
        assert Message("r", reply, priced).size == reference_size(reply)
    # The part shared by several members, and under any key.
    for payload in (
        {"a": part, "b": part},
        {uid: part, "size": len(part), None: part},
        {"part": part, "box": Box(part=part)},
    ):
        priced = {k: member_size(v) for k, v in payload.items()}
        assert Message("r", payload, priced).size == reference_size(payload)
    # A relay restates its request and walks only what it stamps.
    request = Message("req", {"sender": uid, "payload": part, "id": 3})
    relay = request.relay(
        "seq", {"seq": 1, "epoch": 0, **request.payload, "stable": None}
    )
    assert request.size == reference_size(request.payload)
    assert relay.size == reference_size(relay.payload)


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
        payload = {"member": value, "n": extra_depth}
        stated = Message("m", payload, {"member": member_size(value)})
        assert stated.size == reference_size(payload)
        request = Message("req", {"member": value})
        relay = request.relay("seq", payload)
        assert relay.size == reference_size(payload)


def test_only_the_exact_type_at_its_depth_is_taken_on_trust():
    payload = {"a": {"x": 1}, "b": [1, 2]}
    honest = reference_size(payload)
    # A stated price is taken as stated, for that member only ...
    assert Message("m", payload, {"a": 1000}).size == (
        honest - member_size(payload["a"]) + 1000
    )
    assert Message("m", payload, {"a": 1000, "b": 0}).size == (
        EMPTY_SIZE + 1 + 1000 + 1 + 0
    )
    # ... and a relay takes its request's price as it stands.
    request = Message("req", {"a": payload["a"]})
    object.__setattr__(request, "_size", 500)
    assert request.relay("seq", payload).size == 500 + 1 + 18
    # Nothing else is trusted: a message states nothing by default,
    # and look-alikes that merely carry a ``size`` attribute or key
    # are walked wherever they sit.
    assert Message("m", payload).size == honest
    for value in (Box(size=1), {"size": 1}, [Box(size=1)], Slotted()):
        assert Message("m", value).size == reference_size(value)
        assert Message("m", {"k": value}, {}).size == reference_size(
            {"k": value}
        )


def test_unpriced_sized_dict_fails_loudly():
    for payload in ([1, 2], (("a", 1),), "ab", None):
        with pytest.raises(AttributeError):
            Message("m", payload, {"a": 8})
        with pytest.raises(AttributeError):
            Message("req", {"a": 1}).relay("seq", payload)
