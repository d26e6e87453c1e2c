"""The paper's message costs, counted on clean runs.

Figure 4 (m-SC): an update costs one atomic broadcast — with the fixed
sequencer, one request to it and one sequenced frame to each of the n
processes — and a query costs nothing: it runs on the local copy.
Figure 6 (m-lin): updates cost the same, and a query costs one round
to everybody else, n−1 requests and n−1 replies.  The aggregate-object
strawman broadcasts queries too, which is the locality it gives up.
"""

import pytest

from repro.runtime.registry import protocol_registry, workload_registry

OBJECTS = tuple(f"x{i}" for i in range(6))


def run_clean(protocol, n, seed):
    cluster = protocol_registry()[protocol].factory(n, OBJECTS, seed=seed)
    workloads = workload_registry()["zipfian"].builder(
        n, OBJECTS, 10, seed + 1
    )
    result = cluster.run(workloads)
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
