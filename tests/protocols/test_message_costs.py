"""The paper's message costs, counted on clean runs.

Figure 4 (m-SC): an update costs one atomic broadcast — with the fixed
sequencer, one request to it and one sequenced frame to each of the n
processes — and a query costs nothing: it runs on the local copy.
Figure 6 (m-lin): updates cost the same, and a query costs one round
to everybody else, n−1 requests and n−1 replies.  The aggregate-object
strawman broadcasts queries too, which is the locality it gives up.

Below the counts: what those messages are *charged* is pinned to the
numbers the plain payload walk gave, and what a Figure 6 reply costs
the host to price does not grow with the store (structural guards, no
wall clock).
"""

import pytest

from repro.runtime.registry import protocol_registry, workload_registry
from repro.sim import network

OBJECTS = tuple(f"x{i}" for i in range(6))


def run(protocol, n, seed, *, objects=OBJECTS, ops=10, **options):
    """One clean zipfian run; returns the cluster and its result."""
    cluster = protocol_registry()[protocol].factory(
        n, objects, seed=seed, **options
    )
    workloads = workload_registry()["zipfian"].builder(
        n, objects, ops, seed + 1
    )
    return cluster, cluster.run(workloads)


def run_clean(protocol, n, seed):
    _cluster, result = run(protocol, n, seed)
    records = result.recorder.records
    assert len(records) == n * 10
    updates = sum(rec.is_update for rec in records)
    assert 0 < updates < len(records)
    return updates, len(records) - updates, dict(result.net_stats.by_kind)


@pytest.mark.parametrize("n,seed", [(3, 1), (7, 5)])
def test_fig4_updates_cost_one_abcast_and_queries_send_nothing(n, seed):
    updates, _queries, by_kind = run_clean("msc", n, seed)
    assert by_kind == {"abc-req": updates, "abc-seq": updates * n}


@pytest.mark.parametrize("n,seed", [(3, 1), (7, 5)])
def test_fig6_queries_cost_one_round_to_everybody_else(n, seed):
    updates, queries, by_kind = run_clean("mlin", n, seed)
    assert by_kind == {
        "abc-req": updates,
        "abc-seq": updates * n,
        "query": queries * (n - 1),
        "query-resp": queries * (n - 1),
    }


def test_aggregate_strawman_broadcasts_queries_too():
    n = 5
    updates, queries, by_kind = run_clean("aggregate", n, 3)
    mops = updates + queries
    assert by_kind == {"abc-req": mops, "abc-seq": mops * n}


# ----------------------------------------------------------------------
# Priced sizes and the cost of pricing
# ----------------------------------------------------------------------

#: ``net_stats.size_by_kind`` of mlin zipfian n=5, 6 objects, 12 ops,
#: by (seed, reply_relevant_only), recorded at commit 43df008 (every
#: payload walked, no replica image).
FIG6_KINDS = ("abc-req", "abc-seq", "query", "query-resp")
FIG6_SIZES = {
    (1, False): (3051, 18735, 4340, 31992),
    (1, True): (3051, 18735, 4932, 11400),
    (5, False): (3564, 21900, 3640, 26832),
    (5, True): (3564, 21900, 4136, 9552),
    (9, False): (3232, 19880, 4060, 29928),
    (9, True): (3232, 19880, 4628, 10920),
}


@pytest.mark.parametrize("seed,relevant_only", sorted(FIG6_SIZES))
def test_fig6_priced_sizes_are_what_the_plain_walk_charged(
    seed, relevant_only
):
    _cluster, result = run(
        "mlin", 5, seed, ops=12, reply_relevant_only=relevant_only
    )
    assert result.net_stats.size_by_kind == dict(
        zip(FIG6_KINDS, FIG6_SIZES[seed, relevant_only])
    )


def estimator_visits_per_reply(objects):
    """Payload nodes the estimator visits for each ``query-resp``."""
    walk = network._estimate_size
    price = network.Message.size.fget
    visits = [0]
    per_reply = []

    def counting_walk(value, depth, seen):
        visits[0] += 1
        return walk(value, depth, seen)

    def counting_size(message):
        before = visits[0]
        size = price(message)
        if message.kind == "query-resp" and visits[0] > before:
            per_reply.append(visits[0] - before)
        return size

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_estimate_size", counting_walk)
        patch.setattr(network.Message, "size", property(counting_size))
        run("mlin", 4, 3, objects=tuple(f"x{i}" for i in range(objects)))
    return per_reply


def test_pricing_a_fig6_reply_does_not_grow_with_the_store():
    small = estimator_visits_per_reply(8)
    large = estimator_visits_per_reply(64)
    assert small and large
    assert set(small) == set(large) and len(set(small)) == 1


def test_replicas_that_never_export_keep_no_image():
    names = tuple(f"x{i}" for i in range(8))
    for protocol, exports in (("msc", False), ("mlin", True)):
        cluster, _result = run(protocol, 20, 2, objects=names, ops=6)
        for proc in cluster.processes:
            assert (proc.store._image is not None) == exports
