"""An independent checker of refutations, from the paper's definitions alone: it uses
nothing of the index, relation, legality or plan modules.  The chaos differential
test runs it on the chaos runs' refutations, ``test_monitor.py`` on the monitor's.
m-causal consistency (``~p ∪ ~rf``, judged per process view) refutes a search per
view, naming the process, and that view is searched again here by brute force."""

from collections import Counter, defaultdict
from dataclasses import replace

from repro.core import SearchBudgetExceeded, check_condition
from repro.errors import ReproError
from tests.conftest import simple_history
from tools.verdict_corpus import checks


def order(history, condition, extra):
    """Successor sets of ``~p ∪ ~rf [∪ ~t | ∪ ~x] ∪ extra``."""
    succ = defaultdict(set, {history.init.uid: {m.uid for m in history.mops}})
    chains = [[m.uid for m in history.subhistory(p)] for p in history.processes]
    for a, b in [pair for c in chains for pair in zip(c, c[1:])] + list(extra):
        succ[a].add(b)
    for (reader, _obj), writer in history.reads_from_map.items():
        succ[writer] |= {reader} - {writer}
    for a in history.mops if condition in ("m-lin", "m-norm") else ():
        succ[a.uid] |= {b.uid for b in history.mops if a.resp < b.inv
                        and (condition == "m-lin" or a.objects & b.objects)}
    return succ


def reach(succ, a):
    """Where a non-empty path from ``a`` leads, breadth first."""
    seen, frontier = set(), set(succ[a])
    while frontier:
        seen |= frontier
        frontier = set().union(*(succ[n] for n in frontier)) - seen
    return seen


def view_admits(history, succ, proc):
    """Brute force: is there a legal sequence of ``proc``'s view — every update
    plus ``proc``'s m-operations — that respects ``~H`` restricted to it?"""
    view = frozenset(m.uid for m in history.mops if m.is_update or m.process == proc)
    after = {u: reach(succ, u) & view for u in view}
    reads = {u: [(o, w) for (r, o), w in history.reads_from_map.items()
                 if r == u and w != u] for u in view}
    failed = set()

    def extend(done, last):
        if done == view or (done, last) in failed:
            return done == view
        for u in view - done:
            seen = dict(last)
            if (not any(u in after[v] for v in view - done)
                    and all(seen.get(o, history.init.uid) == w for o, w in reads[u])):
                seen.update((o, u) for o in history[u].wobjects)
                if extend(done | {u}, tuple(sorted(seen.items()))):
                    return True
        failed.add((done, last))
        return False

    return extend(frozenset(), ())


def accepts(history, condition, ref, extra=(), ww=(), method=None):
    """Does ``ref`` prove ``condition`` fails under ``~H ∪ extra``?  ``ww`` is a
    run's ``~ww`` sequence, ``method`` the verdict's."""
    succ, rf = order(history, condition, extra), history.reads_from_map
    mop = history.__getitem__
    issue = {m.uid: (p, i) for p in history.processes
             for i, m in enumerate(history.subhistory(p))}
    supplied = defaultdict(set)
    for a, b in extra:
        supplied[a].add(b)

    def holds(label, a, b):
        if label in ("extra", "path"):
            return b in reach(supplied if label == "extra" else succ, a)
        if label in ("t", "x"):  # m-lin: any two; m-norm: sharing an object
            related = label == "t" or bool(mop(a).objects & mop(b).objects)
            return (condition == {"t": "m-lin", "x": "m-norm"}[label] and related
                    and a in issue and mop(a).resp < mop(b).inv)
        return {
            "init": a == history.init.uid,
            "p": a in issue and b in issue
            and issue[a][0] == issue[b][0] and issue[a] < issue[b],
            "rf": a != b and a in {w for (r, _o), w in rf.items() if r == b},
        }[label]

    if ref.kind == "cycle":
        uids = [a for a, _label in ref.cycle]
        steps = zip(ref.cycle, uids[1:] + uids[:1])
        return 0 < len(uids) == len(set(uids)) and all(
            holds(label, a, b) for (a, label), b in steps)
    if ref.kind == "illegal":
        reader, writer, over = ref.triple
        return (rf.get((reader, ref.obj)) == writer != reader
                and ref.obj in mop(over).wobjects and over not in (reader, writer)
                and over in reach(succ, writer) and reader in reach(succ, over))
    if ref.kind == "undelivered":
        needs = {w for (r, _o), w in rf.items() if r == ref.blocked}
        needs |= {ref.blocked} if mop(ref.blocked).is_update else set()
        return 0 < len(ref.undelivered) and set(ref.undelivered) <= needs - set(ww)
    closure = {u: reach(succ, u) for u in history.uids}  # "search": acyclic, legal
    if (ref.process is not None) != (condition == "m-causal"):
        return False  # a per-view search, and only that, names its view
    view = ref.process
    return method == "exact" and all(u not in closure[u] for u in closure) and not any(
        c in closure[b] and a in closure[c] for (a, obj), b in rf.items() if a != b
        for c in closure if obj in mop(c).wobjects and c not in (a, b)) and (
        view is None
        or view in history.processes and not view_admits(history, succ, view))


def mutant(ref):
    """One cycle edge relabelled, or writer and overwriter swapped."""
    if ref.kind == "cycle":
        return replace(ref, cycle=((ref.cycle[0][0], "init"),) + ref.cycle[1:])
    return replace(ref, triple=(ref.triple[0], ref.triple[2], ref.triple[1]))


def test_every_violated_corpus_verdict_is_refuted():
    kinds, views = Counter(), 0
    for label, history, condition, kwargs in checks():
        if condition is None:  # a certificate the prover refused
            continue
        try:
            verdict = check_condition(history, condition, **kwargs)
        except (ReproError, SearchBudgetExceeded):  # a refused path: no verdict
            continue
        ref, extra = verdict.refutation, kwargs["extra_pairs"]
        method = verdict.method_used
        assert (ref is None) == verdict.holds, label
        if ref is None:
            continue
        assert accepts(history, condition, ref, extra, method=method), label
        kinds[ref.kind, method, verdict.certificate is not None] += 1
        if ref.kind in ("cycle", "illegal"):
            assert not accepts(history, condition, mutant(ref), extra), label
        if ref.process is not None:
            views += 1
            assert not accepts(history, condition, replace(ref, process=None), extra,
                               method=method), label
    exact = {kind for kind, method, _cert in kinds if method == "exact"}
    assert exact == {"cycle", "illegal", "search"} and views > 0
    assert {kind for kind, _method, cert in kinds if cert} == {"cycle", "illegal"}


def test_relabelled_dropped_and_swapped_refutations_are_rejected():
    h = simple_history([(1, 0, "r y 7"), (2, 0, "w x 5"), (3, 1, "r x 5"),
                        (4, 1, "w y 7")])
    ref = check_condition(h, "m-sc").refutation  # 1 -p-> 2 -rf-> 3 -p-> 4 -rf-> 1
    assert accepts(h, "m-sc", ref) and not accepts(h, "m-sc", mutant(ref))
    assert not accepts(h, "m-sc", replace(ref, cycle=((1, "rf"),) + ref.cycle[1:]))
    assert not accepts(h, "m-sc", replace(ref, cycle=ref.cycle[:1] + ref.cycle[2:]))
    h = simple_history([(1, 0, "w x 5", 0.0, 1.0), (2, 1, "w x 7", 2.0, 3.0),
                        (3, 2, "r x 5", 4.0, 5.0)])
    ref = check_condition(h, "m-lin").refutation  # (3, 1, 2) on x
    assert accepts(h, "m-lin", ref) and not accepts(h, "m-lin", mutant(ref))
    h = simple_history([(1, 0, "w x 1"), (2, 1, "w x 2"), (3, 2, "r x 1"),
                        (4, 2, "r x 2"), (5, 2, "r x 1"), (6, 3, "r x 2")])
    ref = check_condition(h, "m-causal").refutation  # P2 reads 1, 2, 1
    assert ref.process == 2 and accepts(h, "m-causal", ref, method="exact")
    for other in (0, 1, 3, None):  # views that admit, or no view at all
        assert not accepts(h, "m-causal", replace(ref, process=other), method="exact")
