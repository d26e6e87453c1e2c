"""The paper's message costs, counted on clean runs.

Figure 4 (m-SC): an update costs one atomic broadcast — with the fixed
sequencer, one request to it and one sequenced frame to each of the n
processes — and a query costs nothing: it runs on the local copy.
Figure 6 (m-lin): updates cost the same, and a query costs one round
to everybody else, n−1 requests and n−1 replies.  The aggregate-object
strawman broadcasts queries too, which is the locality it gives up.

Below the counts: what those messages are *charged* is pinned to the
numbers the plain payload walk gave, and the host walks each broadcast
payload once and a full Figure 6 reply never, whatever the size of the
store (structural guards, no wall clock).
"""

from collections import Counter

import pytest

from repro.runtime import execute
from repro.runtime.registry import protocol_registry, workload_registry
from repro.sim import network
from tests.conftest import chaos_spec

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


#: ``size_by_kind`` of msc zipfian n=5, 6 objects, 12 ops, by seed,
#: recorded at commit 52c8096 (before relays and replies stated their
#: prices).
FIG4_SIZES = {1: (3051, 18735), 5: (3564, 21900), 9: (3232, 19880)}


@pytest.mark.parametrize("seed", sorted(FIG4_SIZES))
def test_fig4_priced_sizes_are_what_the_plain_walk_charged(seed):
    _cluster, result = run("msc", 5, seed, ops=12)
    assert result.net_stats.size_by_kind == dict(
        zip(("abc-req", "abc-seq"), FIG4_SIZES[seed])
    )


def test_failover_relays_are_priced_as_the_plain_walk_charged():
    """mlin n=4 x 5 ops under a seeded partition: one failover, relays
    stamped with the stable watermark; recorded at commit 52c8096."""
    artifact = execute(chaos_spec("mlin", 1, partition=True))
    assert artifact.ok and len(artifact.chaos.failovers) == 1
    counters = artifact.net_stats["counters"]
    assert {
        name[len("net.size_by_kind{kind="):-1]: units
        for name, units in counters.items()
        if name.startswith("net.size_by_kind")
    } == {
        "abc-ack": 1520, "abc-new-seq": 184, "abc-req": 1122,
        "abc-seq": 6160, "abc-stable": 1160, "hb": 3624, "query": 1470,
        "query-resp": 6174,
    }
    assert counters["net.total_size"] == 21414


def walks_by_kind(protocol, n, objects, ops):
    """Run clean; count entries into the payload walk by the kind of
    the message being priced (a walk's own recursion is not an entry,
    and walks outside message pricing count under ``None``), and every
    walker call made while pricing a ``query-resp``."""
    walk = network._estimate_size
    init = network.Message.__init__
    relay = network.Message.relay
    price = network.Message.size.fget
    pricing = [None]
    level = [0]
    entries = Counter()
    reply_calls = []

    def counting_walk(value, depth, seen):
        if level[0] == 0:
            entries[pricing[0]] += 1
        if pricing[0] == "query-resp":
            reply_calls[-1] += 1
        level[0] += 1
        try:
            return walk(value, depth, seen)
        finally:
            level[0] -= 1

    def priced_as(kind, call, *args):
        outer = pricing[0]
        pricing[0] = kind
        if kind == "query-resp":
            reply_calls.append(0)
        try:
            return call(*args)
        finally:
            pricing[0] = outer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_estimate_size", counting_walk)
        patch.setattr(
            network.Message,
            "__init__",
            lambda self, kind, *args: priced_as(kind, init, self, kind, *args),
        )
        patch.setattr(
            network.Message,
            "relay",
            lambda self, kind, body: priced_as(kind, relay, self, kind, body),
        )
        patch.setattr(
            network.Message,
            "size",
            property(lambda self: priced_as(self.kind, price, self)),
        )
        _cluster, result = run(
            protocol, n, 3, objects=tuple(f"x{i}" for i in range(objects)),
            ops=ops,
        )
    return entries, result.net_stats.by_kind, reply_calls


def test_pricing_a_fig6_reply_does_not_grow_with_the_store():
    _entries, _sent, small = walks_by_kind("mlin", 4, 8, 10)
    _entries, _sent, large = walks_by_kind("mlin", 4, 64, 10)
    assert small and large
    assert set(small) == set(large) == {0}


def test_the_walk_runs_once_per_broadcast_and_never_for_a_full_reply():
    n = 16
    entries, sent, _reply_calls = walks_by_kind("mlin", n, 32, 50)
    assert sent["abc-req"] and sent["query-resp"]
    # A query broadcast is walked once; a request states its program's
    # price, a relay its request's, a full reply its replica image's.
    assert entries["query"] * (n - 1) == sent["query"]
    assert entries["abc-req"] == entries["abc-seq"] == 0
    assert entries["query-resp"] == 0
    # Anything else is the replica images' upkeep, outside any message.
    assert set(entries) <= {"query", None}


def test_replicas_that_never_export_keep_no_image():
    names = tuple(f"x{i}" for i in range(8))
    for protocol, exports in (("msc", False), ("mlin", True)):
        cluster, _result = run(protocol, 20, 2, objects=names, ops=6)
        for proc in cluster.processes:
            assert (proc.store._image is not None) == exports
