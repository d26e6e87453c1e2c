"""The mask forms of D 4.6 / D 4.8-D 4.11 against the definitions.

``is_legal``, ``illegal_triples``, ``satisfies_ww|oo|wo`` and
``rw_pairs`` decide per read or per m-operation with one mask test
against the closure's ``succ*`` / ``pred*`` rows.  Here each is
compared with the paper's definition spelled out — a scan of every
interfering triple, every pair of m-operations, one membership test at
a time — on serial histories and their corrupted twins, under all
three orders, with and without a ``~ww`` chain, cyclic closures
included.  The last test pins the structure: an uncertified check
never falls back to those scans.
"""

import itertools

import pytest

from repro.core import (
    HistoryIndex,
    Relation,
    check_condition,
    conflict,
    is_legal,
    rw_pairs,
    satisfies_oo,
    satisfies_wo,
    satisfies_ww,
)
from repro.core.legality import illegal_triples
from repro.workloads import HistoryShape, random_serial_history
from tests.conftest import twins, ww_chain

CONDITIONS = ("m-sc", "m-lin", "m-norm")


def cases():
    shapes = [
        HistoryShape(n_processes=3, n_objects=2, n_mops=14,
                     query_fraction=0.4),
        HistoryShape(n_processes=4, n_objects=3, n_mops=30,
                     query_fraction=0.5),
        HistoryShape(n_processes=2, n_objects=4, n_mops=22,
                     query_fraction=0.2, writes_per_mop=3),
    ]
    for number, shape in enumerate(shapes):
        for seed in (3, 17):
            base = random_serial_history(shape, seed=seed)
            for kind, history in twins(base).items():
                for condition in CONDITIONS:
                    for extra in ((), ww_chain(base)):
                        yield pytest.param(
                            history, condition, extra,
                            id=f"shape{number}-s{seed}-{kind}-{condition}"
                            f"-{'ww' if extra else 'plain'}",
                        )


# ----------------------------------------------------------------------
# The definitions, one membership test at a time
# ----------------------------------------------------------------------


def between(closure, a, b, c):
    return (b, c) in closure and (c, a) in closure


def ordered(closure, a, b):
    return (a, b) in closure or (b, a) in closure


def all_ordered(history, closure, must_order):
    return all(
        ordered(closure, a.uid, b.uid)
        for a, b in itertools.combinations(history.all_mops, 2)
        if must_order(a, b)
    )


def expected_answers(history, closure):
    triples = HistoryIndex.of(history).interfering_triples()
    bad = [t for t in triples if between(closure, *t)]
    return {
        "legal": not bad,
        "illegal_triples": bad,
        "ww": all_ordered(
            history, closure, lambda a, b: a.is_update and b.is_update
        ),
        "oo": all_ordered(history, closure, conflict),
        "wo": all_ordered(
            history, closure, lambda a, b: bool(a.wobjects & b.wobjects)
        ),
        "rw_pairs": sorted(
            {(a, c) for a, b, c in triples if (b, c) in closure}
        ),
    }


def answers(history, closure):
    return {
        "legal": is_legal(history, closure),
        "illegal_triples": illegal_triples(history, closure),
        "ww": satisfies_ww(history, closure),
        "oo": satisfies_oo(history, closure),
        "wo": satisfies_wo(history, closure),
        "rw_pairs": rw_pairs(history, closure),
    }


@pytest.mark.parametrize("history, condition, extra", cases())
def test_mask_checks_match_the_definitions(history, condition, extra):
    base = HistoryIndex.of(history).base_relation(condition, extra)
    closure = base.transitive_closure()
    expected = expected_answers(history, closure)
    assert answers(history, closure) == expected

    # The same order over a permuted, larger universe (what
    # check_admissible accepts from its callers): same answers.
    foreign = Relation((999,) + tuple(reversed(history.uids)), base.pairs())
    assert answers(history, foreign.transitive_closure()) == expected


def test_cases_cover_every_outcome():
    """The corpus above is not vacuous: cyclic and acyclic closures,
    legal and illegal ones, each constraint both met and missed, and
    an illegal read with several overwriters all occur."""
    seen = set()
    for param in cases():
        history, condition, extra = param.values
        closure = HistoryIndex.of(history).closure(condition, extra)
        got = answers(history, closure)
        seen.add(("acyclic", closure.is_acyclic()))
        seen.update((k, got[k]) for k in ("legal", "ww", "oo", "wo"))
        if not closure.is_acyclic() and not got["legal"]:
            seen.add("illegal on a cycle")
        if len(got["illegal_triples"]) > 1:
            seen.add("several illegal triples")
    assert seen == {
        (name, value)
        for name in ("acyclic", "legal", "ww", "oo", "wo")
        for value in (True, False)
    } | {"illegal on a cycle", "several illegal triples"}


# ----------------------------------------------------------------------
# Structure: no scan on the decision path
# ----------------------------------------------------------------------


def test_uncertified_check_makes_no_membership_test_and_no_triples(
    monkeypatch,
):
    """An uncertified check of a valid history and of its cyclic
    future twin decides from closure rows alone: not one
    ``Relation.__contains__`` call (the pair and triple scans are made
    of them) and the index's triple enumeration never built."""
    shape = HistoryShape(
        n_processes=6, n_objects=8, n_mops=600, query_fraction=0.5
    )
    valid = random_serial_history(shape, seed=4)
    future = twins(valid)["future"]
    extra = ww_chain(valid)

    calls = []
    monkeypatch.setattr(
        Relation, "__contains__", lambda self, pair: calls.append(pair)
    )
    for history, holds in ((valid, True), (future, False)):
        verdict = check_condition(history, "m-sc", extra_pairs=extra)
        assert verdict.holds == holds
        assert verdict.method_used == "constrained"
        assert HistoryIndex.of(history)._d.triples is None
    assert calls == []
    assert not HistoryIndex.of(future).closure("m-sc", extra).is_acyclic()
