"""The ``~rw`` cover: why a linear-size edge set gives the same witness.

The Theorem 7 witness is the FIFO-Kahn order of ``~H ∪ ~rw``.  The
scan adds only the *cover* of ``~rw``: per read, the first writer
after the one it read from
(:meth:`repro.core.plan.Timeline.next_writer`).  Every other D 4.11
pair is implied by a path through the cover.  These tests pin the lemma that
makes that safe — a FIFO-Kahn order cannot see transitively implied
edges — and the size bound that makes it worth doing.
"""

from __future__ import annotations

import random

from repro.analysis.static import certify_partitioned_history, certify_run
from repro.core import Relation, check_condition
from repro.core.plan import _fifo_topo
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.protocols import msc_cluster
from repro.workloads import (
    HistoryShape,
    random_partitioned_history,
    random_workloads,
)


def random_dag(rng: random.Random):
    """Edges of a random DAG whose node order is *not* topological."""
    n = rng.randint(2, 30)
    rank = list(range(n))
    rng.shuffle(rank)
    density = rng.choice((0.05, 0.15, 0.4))
    edges = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if rank[a] < rank[b] and rng.random() < density
    ]
    return tuple(range(n)), edges


def fifo_topo(nodes, edges):
    succ = [set() for _ in nodes]
    for a, b in edges:
        succ[a].add(b)
    return _fifo_topo(nodes, succ)


def test_implied_edges_never_change_the_fifo_kahn_order():
    rng = random.Random(14)
    grown = 0
    for _ in range(300):
        nodes, edges = random_dag(rng)
        base = Relation(nodes, edges)
        order = base.topological_order()
        assert order is not None
        assert fifo_topo(nodes, edges) == order
        have = set(edges)
        implied = [
            pair for pair in base.transitive_closure().pairs()
            if pair not in have
        ]
        if not implied:
            continue
        extra = rng.sample(implied, rng.randint(1, len(implied)))
        grown += 1
        assert Relation(nodes, edges + extra).topological_order() == order
        assert fifo_topo(nodes, edges + extra) == order
    assert grown > 100


def traced_check(history, **kwargs):
    """``(verdict, {span name: record})`` of one traced m-sc check."""
    tracer = Tracer()
    install_tracer(tracer)
    try:
        verdict = check_condition(history, "m-sc", **kwargs)
    finally:
        uninstall_tracer()
    return verdict, {r["name"]: r for r in tracer.records()}


def proper_reads(history):
    return sum(a != b for (a, _x), b in history.reads_from_map.items())


def test_rw_edges_bounded_by_reads_on_a_deep_verify_shape():
    # msc hotspot n=8 x 32 objects x 200 ops: few hot objects with
    # hundreds of writers each, so D 4.11 has ~reads x writers pairs.
    objects = [f"x{i}" for i in range(32)]
    result = msc_cluster(8, objects, seed=1).run(
        random_workloads(8, objects, 200, seed=2, zipf_s=1.5)
    )
    history = result.history
    verdict, spans = traced_check(
        history,
        extra_pairs=result.ww_pairs(),
        certificate=certify_run(result),
    )
    assert verdict.holds and verdict.witness is not None
    witness = spans["check.witness"]
    assert witness["parent"] == spans["check.scan"]["id"]
    assert witness["attrs"]["reads"] == proper_reads(history)
    assert 0 < witness["attrs"]["rw_edges"] <= proper_reads(history)


def test_partitioned_witness_span_counts_the_whole_cover():
    shape = HistoryShape(n_processes=3, n_objects=2, n_mops=90)
    history = random_partitioned_history(shape, seed=11)
    verdict, spans = traced_check(
        history, certificate=certify_partitioned_history(history)
    )
    assert verdict.holds and verdict.witness is not None
    witness = spans["check.witness"]
    assert witness["parent"] == spans["check.scan"]["id"]
    assert witness["attrs"]["reads"] == proper_reads(history)
    assert 0 < witness["attrs"]["rw_edges"] <= proper_reads(history)
