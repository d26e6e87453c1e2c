#!/usr/bin/env python3
"""Are the checkers' verdicts the same on two revisions?

    PYTHONPATH=<parent tree>/src python tools/verdict_corpus.py dump parent.jsonl
    PYTHONPATH=src               python tools/verdict_corpus.py dump change.jsonl
    python tools/verdict_corpus.py compare parent.jsonl change.jsonl

``dump`` rebuilds four history corpora — the ``test_index_crossval``
corpus, the partitioned and contended corpora of
``test_plan_crossval`` (same generators and seeds as those tests),
and recorded msc and mlin runs with their corrupt twins, whose exact
searches branch — and sends every history down every checker
path: method {auto, constrained, exact} x every condition of
``repro.core.CONDITIONS`` x with/without the update chain as
``extra_pairs`` x certificate {none, ``certify_chain``,
``certify_partitioned_history``, ``certify_history``} x window {None,
1, wide}.  Each path writes one line: ``(holds, method_used, witness,
certificate, stats, refutation)``, or the type and message of what it
raised.  A certificate the prover refuses
is one line of its own and its paths are not run.  ``checks()`` yields
the same paths over the three generated corpora, for a test that
wants the verdicts themselves (``tests/core/test_refutation.py``).  After the paths, one
``<history> <condition> holds`` line per history and condition
records the default check's verdict (or what it raised): the line a
revision that adds a condition is compared on.

``compare`` demands byte equality for every verdict and equal
exception types on every record both dumps hold; it lists every
exception message that differs, for the reader to judge.  Of the
records only the second dump holds, each answered path without the
update chain must agree with the first dump's ``holds`` line.  The run re-executes itself
under ``PYTHONHASHSEED=0``: a few messages name the first of several
objects in a frozenset, whose order follows the string hash.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.analysis.static import (
    certify_chain,
    certify_history,
    certify_partitioned_history,
)
from repro.core import CONDITIONS, check_condition
from repro.runtime import RunSpec, VerifyPolicy, execute
from repro.workloads import (
    HistoryShape,
    corrupt_history,
    random_partitioned_history,
    random_serial_history,
)

METHODS = ("auto", "constrained", "exact")
CERTIFICATES = {
    "chain": lambda history: certify_chain(history, update_chain(history)),
    "partitioned": certify_partitioned_history,
    "history": certify_history,
}
#: Bounds the exact search on the contended corpus; hitting it is an
#: outcome like any other.
NODE_LIMIT = 5000


def update_chain(history) -> List[int]:
    return [m.uid for m in history.mops if m.is_update]


def index_corpus(minimum: int = 200):
    shapes = [
        HistoryShape(n_processes=2, n_objects=2, n_mops=5,
                     query_fraction=0.3),
        HistoryShape(n_processes=3, n_objects=2, n_mops=6,
                     query_fraction=0.5),
        HistoryShape(n_processes=3, n_objects=3, n_mops=8,
                     query_fraction=0.4),
        HistoryShape(n_processes=4, n_objects=2, n_mops=10,
                     query_fraction=0.4),
    ]
    histories = []
    seed = 0
    while len(histories) < minimum:
        clean = random_serial_history(shapes[seed % len(shapes)], seed=seed)
        histories.append(clean)
        bad = corrupt_history(clean, seed=seed)
        if bad is not None:
            histories.append(bad)
        seed += 1
    return histories


def partitioned_corpus(minimum: int = 40):
    shapes = [
        HistoryShape(n_processes=2, n_objects=2, n_mops=10),
        HistoryShape(n_processes=3, n_objects=2, n_mops=14),
        HistoryShape(n_processes=4, n_objects=1, n_mops=16),
    ]
    histories = []
    seed = 0
    while len(histories) < minimum:
        for shape in shapes:
            clean = random_partitioned_history(shape, seed=seed)
            histories.append(clean)
            bad = corrupt_history(clean, seed=seed)
            if bad is not None:
                histories.append(bad)
        seed += 1
    return histories


def contended_corpus():
    histories = []
    for seed in range(6):
        shape = HistoryShape(
            n_processes=4, n_objects=3, n_mops=40 + 10 * seed,
            query_fraction=0.5, distribution="hotspot",
        )
        clean = random_serial_history(shape, seed=seed)
        histories.append(clean)
        for twin in range(3):
            bad = corrupt_history(clean, seed=seed + 100 * twin)
            if bad is not None:
                histories.append(bad)
    return histories


def recorded_corpus():
    """msc and mlin zipfian runs, n=4 x 8 objects x 30 ops (120
    m-ops), seeds 0-3, each followed by its ``corrupt_history`` twin."""
    histories = []
    for protocol in ("msc", "mlin"):
        for seed in range(4):
            spec = RunSpec(
                protocol=protocol, workload="zipfian", n=4,
                objects=tuple(f"x{i}" for i in range(8)), ops=30,
                seed=seed, verify=VerifyPolicy(enabled=False),
            )
            clean = execute(spec).result.history
            histories.append(clean)
            bad = corrupt_history(clean, seed=seed)
            if bad is not None:
                histories.append(bad)
    return histories


def raised(exc: Exception) -> Dict[str, str]:
    return {"raised": type(exc).__name__, "message": str(exc)}


def corpus_histories(recorded: bool = True) -> Iterator[Tuple[str, Any]]:
    """``(label, history)`` for every history of the four corpora, or
    of the three generated ones without ``recorded``."""
    corpora = (
        ("index", index_corpus()),
        ("partitioned", partitioned_corpus()),
        ("contended", contended_corpus()),
    ) + ((("recorded", recorded_corpus()),) if recorded else ())
    for corpus, histories in corpora:
        for h, history in enumerate(histories):
            yield f"{corpus}[{h}]", history


def checks(
    recorded: bool = False,
) -> Iterator[Tuple[str, Any, Optional[str], Dict]]:
    """Every checker path, as ``(label, history, condition, kwargs)``
    for ``check_condition``; a certificate the prover refuses is
    ``(label, refusal, None, {})`` and its paths are not run.  The
    recorded corpus, which doubles a test's run over the paths, is
    left out unless asked for."""
    for name, history in corpus_histories(recorded):
        chain = update_chain(history)
        ww = tuple(zip(chain, chain[1:]))
        certificates = {"none": None}
        for kind, certify in CERTIFICATES.items():
            try:
                certificates[kind] = certify(history)
            except Exception as exc:  # a refusal is an outcome
                yield f"{name} certify={kind}", exc, None, {}
        for kind, cert in certificates.items():
            for method in METHODS:
                for condition in CONDITIONS:
                    for extra, pairs in (("ww", ww), ("no-ww", ())):
                        for window in (None, 1, len(history.mops) + 1):
                            label = (
                                f"{name} {method} {condition} "
                                f"{extra} cert={kind} window={window}"
                            )
                            yield label, history, condition, dict(
                                method=method, extra_pairs=pairs,
                                certificate=cert, window=window,
                                node_limit=NODE_LIMIT,
                            )


def records() -> Iterator[Tuple[str, Dict]]:
    for label, subject, condition, kwargs in checks(recorded=True):
        if condition is None:
            yield label, raised(subject)  # the prover's refusal
        else:
            yield label, verdict(subject, condition, **kwargs)
    for name, history in corpus_histories():
        for condition in CONDITIONS:
            try:
                found = check_condition(
                    history, condition, node_limit=NODE_LIMIT
                )
                record = {"holds": found.holds}
            except Exception as exc:  # a refusal is an outcome
                record = raised(exc)
            yield f"{name} {condition} holds", record


def verdict(history, condition, **kwargs) -> Dict:
    try:
        found = check_condition(history, condition, **kwargs)
    except Exception as exc:  # a refusal is an outcome
        return raised(exc)
    return {
        "holds": found.holds,
        "method_used": found.method_used,
        "witness": found.witness,
        "certificate": found.certificate,
        "stats": dataclasses.asdict(found.stats),
        "refutation": (
            None if found.refutation is None
            else dataclasses.asdict(found.refutation)
        ),
    }


def dump(path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for label, record in records():
            out.write(json.dumps([label, record], sort_keys=True) + "\n")


def compare(parent_path: str, change_path: str) -> int:
    def rows(path):
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]

    parent, change = rows(parent_path), dict(rows(change_path))
    missing = [label for label, _r in parent if label not in change]
    if missing:
        print(f"{len(missing)} corpus paths gone, e.g. {missing[0]}")
        return 1
    tally = Counter(new=len(change) - len(parent))
    messages: Counter = Counter()
    problems = 0
    for label, p in parent:
        c = change[label]
        tally["records"] += 1
        if "raised" not in p and "raised" not in c:
            tally["verdicts"] += 1
            if p != c:
                problems += 1
                print(f"{label}: {p} vs {c}")
            continue
        tally["raised"] += 1
        if p.get("raised") != c.get("raised"):
            problems += 1
            print(f"{label}: raised {p.get('raised')} vs {c.get('raised')}")
        elif p["message"] != c["message"]:
            messages[(p["raised"], p["message"], c["message"])] += 1
    # A new path that answers without the update chain must agree with
    # the parent's default verdict on that history and condition.
    defaults = dict(parent)
    for label, c in change.items():
        name, *path = label.split()
        if len(path) == 5 and path[2] == "no-ww" and "holds" in c:
            default = defaults.get(f"{name} {path[1]} holds", {})
            if label not in defaults and "holds" in default:
                tally["new_answers"] += 1
                if c["holds"] != default["holds"]:
                    problems += 1
                    print(f"{label}: {c['holds']} vs default {default}")
    for (kind, old, new), count in sorted(messages.items()):
        tally["message_differs"] += count
        print(f"{kind} message differs in {count} record(s):")
        print(f"    - {old}")
        print(f"    + {new}")
    print(json.dumps(dict(tally), sort_keys=True))
    print(f"problems: {problems}")
    return 1 if problems else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
