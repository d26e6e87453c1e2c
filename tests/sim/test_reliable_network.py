"""Unit tests for the reliable-delivery shim and size-estimator guards.

The shim restores the paper's reliable-channel abstraction (Section 5)
on top of a lossy physical layer: acks, retransmission with backoff,
and receiver-side dedup by transfer id.  These tests pin its ledger
semantics — exactly-once logical delivery, honest ``retransmitted`` /
``acked`` / ``deduped`` counters — and the crash rules (timers and
dedup memory are volatile).  Two guards hold the single delivery path
to what the per-frame-tuple path did before it: ``send_to_all`` is the
``send`` loop on a twin network, and the ``net.*`` tracer stream of
one faulty run is the list recorded at dfa094b.
"""

import pytest

from repro.errors import DeliveryTimeout, ProcessCrashed
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.sim import (
    Message,
    Network,
    Simulator,
    UniformLatency,
    estimate_size,
)


def make_net(n=2, **kwargs):
    sim = Simulator()
    net = Network(sim, n, **kwargs)
    inboxes = {pid: [] for pid in range(n)}
    for pid in range(n):
        net.register(
            pid, lambda src, msg, pid=pid: inboxes[pid].append((src, msg))
        )
    return sim, net, inboxes


class TestReliableShim:
    def test_exactly_once_over_lossy_channel(self):
        """40% drops: every send still arrives, and arrives once."""
        sim, net, inboxes = make_net(
            drop_prob=0.4, reliable=True, seed=7, ack_timeout=1.0
        )
        for i in range(30):
            net.send(0, 1, Message("x", i))
        sim.run()
        payloads = [msg.payload for _src, msg in inboxes[1]]
        assert sorted(payloads) == list(range(30))
        assert net.stats.retransmitted > 0
        # One ack is credited per transfer, however many raced in.
        assert net.stats.acked == 30

    def test_duplicate_frames_are_suppressed(self):
        """Physical duplication never becomes double logical delivery."""
        sim, net, inboxes = make_net(dup_prob=1.0, reliable=True, seed=1)
        for i in range(5):
            net.send(0, 1, Message("x", i))
        sim.run()
        assert [msg.payload for _s, msg in inboxes[1]] == list(range(5))
        assert net.stats.deduped > 0

    def test_timeout_when_receiver_stays_down(self):
        """A permanently dead peer exhausts the retry budget."""
        sim, net, _ = make_net(
            reliable=True, ack_timeout=0.5, max_retries=3, seed=0
        )
        net.crash(1)
        net.send(0, 1, Message("x"))
        with pytest.raises(DeliveryTimeout):
            sim.run()
        assert net.stats.retransmitted == 3

    def test_sender_crash_cancels_retransmission(self):
        """Timers are volatile: a crashed sender stops retransmitting."""
        sim, net, inboxes = make_net(
            drop_prob=1.0, reliable=True, ack_timeout=0.5, max_retries=3,
            seed=0,
        )
        net.send(0, 1, Message("x"))
        sim.schedule(0.1, lambda: net.crash(0))
        sim.run()  # would raise DeliveryTimeout if the timer survived
        assert inboxes[1] == []

    def test_send_while_down_rejected(self):
        sim, net, _ = make_net(reliable=True)
        net.crash(0)
        with pytest.raises(ProcessCrashed):
            net.send(0, 1, Message("x"))


def lossy_cut_run(fan_out, reliable):
    """One message from each pid to all others on a reliable, lossy,
    partly cut network; ``fan_out(net, src, message, reliable)`` picks
    the call.  Returns everything a twin run must reproduce."""
    sim = Simulator()
    net = Network(
        sim, 4, reliable=True, drop_prob=0.3, dup_prob=0.2, seed=11,
        ack_timeout=1.0, latency=UniformLatency(0.5, 1.5),
    )
    arrivals = []
    for pid in range(4):
        net.register(
            pid,
            lambda src, msg, pid=pid: arrivals.append(
                (sim.now, src, pid, msg.kind)
            ),
        )
    net.cut_link(0, 3)
    transfers = []
    for src in range(4):
        fan_out(net, src, Message(f"from-{src}", ("payload", src)), reliable)
        transfers.append(sorted(net._outstanding[src]))
    sim.schedule(6.0, net.heal_all)
    sim.run()
    return arrivals, transfers, net.stats.snapshot(), sim.events_fired


def via_send_to_all(net, src, message, reliable):
    net.send_to_all(src, message, include_self=False, reliable=reliable)


def via_send_loop(net, src, message, reliable):
    for dst in range(net.n):
        if dst != src:
            net.send(src, dst, message, reliable=reliable)


class TestSendToAllIsTheSendLoop:
    def test_unreliable_override_matches_the_send_loop(self):
        fanned = lossy_cut_run(via_send_to_all, reliable=False)
        looped = lossy_cut_run(via_send_loop, reliable=False)
        assert fanned == looped
        arrivals, transfers, snapshot, _events = fanned
        counters = snapshot["counters"]
        # Fire-and-forget on a reliable network: frames were lost for
        # good, and the shim never saw them.
        assert transfers == [[], [], [], []]
        assert counters["net.dropped"] > 0
        assert counters["net.lost_to_partition"] == 2
        assert counters["net.acked"] == counters["net.retransmitted"] == 0
        assert len(arrivals) == counters["net.delivered"] < 12
        assert counters["net.sent_by_kind{kind=from-0}"] == 3
        assert counters["net.size_by_kind{kind=from-0}"] == 3 * estimate_size(
            ("payload", 0)
        )

    def test_network_default_matches_the_send_loop(self):
        fanned = lossy_cut_run(via_send_to_all, reliable=None)
        looped = lossy_cut_run(via_send_loop, reliable=None)
        assert fanned == looped
        arrivals, transfers, snapshot, _events = fanned
        counters = snapshot["counters"]
        # Under the shim every one of the 12 logical sends arrives
        # exactly once, the cut ones after the heal's flush.
        assert transfers == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
        assert len(arrivals) == counters["net.delivered"] == 12
        assert counters["net.acked"] == 12
        assert counters["net.retransmitted"] > 0
        assert counters["net.flushed"] == 2


#: ``net.*`` tracer events (name, src>dst, other attrs) of
#: ``traced_faulty_run``, recorded at dfa094b.  ``kind`` is the message
#: kind on send/deliver/retransmit/flush and the frame kind
#: (``data``/``ack``) where the fault layer discarded or copied one.
PARENT_NET_EVENTS = """
cut 0>2
send 0>1 kind=m
send 0>1 kind=b
dup 0>1 kind=data
send 0>2 kind=b
partition_drop 0>2 kind=data
send 2>0 kind=m
send 1>2 kind=hb
deliver 0>1 kind=m
deliver 0>1 kind=b
drop 1>0 kind=ack
partition_drop 0>2 kind=ack
deliver 2>0 kind=m
deliver 1>2 kind=hb
retransmit 0>1 kind=b attempt=1
retransmit 0>2 kind=b attempt=1
partition_drop 0>2 kind=data
retransmit 0>1 kind=m attempt=1
drop 0>1 kind=data
retransmit 2>0 kind=m attempt=1
partition_drop 0>2 kind=ack
retransmit 2>0 kind=m attempt=2
retransmit 0>2 kind=b attempt=2
partition_drop 0>2 kind=data
partition_drop 0>2 kind=ack
heal 0>2
flush 0>2 kind=b
dup 2>0 kind=ack
deliver 0>2 kind=b
retransmit 0>2 kind=b attempt=1
retransmit 2>0 kind=m attempt=3
drop 0>2 kind=ack
retransmit 2>0 kind=m attempt=4
drop 0>2 kind=ack
retransmit 2>0 kind=m attempt=5
""".split("\n")[1:-1]


def traced_faulty_run():
    tracer = Tracer()
    install_tracer(tracer)
    try:
        sim, net, _ = make_net(
            n=3, reliable=True, drop_prob=0.3, dup_prob=0.3, seed=0,
            ack_timeout=1.0,
        )
        net.cut_link(0, 2, symmetric=False)
        net.send(0, 1, Message("m", 1))
        net.send_to_all(0, Message("b", 2), include_self=False)
        net.send(2, 0, Message("m", 3))
        net.send(1, 2, Message("hb", 1), reliable=False)
        sim.schedule(5.0, net.heal_all)
        sim.run()
    finally:
        uninstall_tracer()
    events = []
    for record in tracer.records():
        if record["name"].startswith("net."):
            attrs = dict(record["attrs"])
            link = f'{attrs.pop("src")}>{attrs.pop("dst")}'
            rest = [f"{key}={value}" for key, value in attrs.items()]
            events.append(" ".join([record["name"][4:], link, *rest]))
    return events


def test_net_tracer_stream_is_the_parents():
    assert traced_faulty_run() == PARENT_NET_EVENTS


class TestEstimateSizeGuards:
    def test_cyclic_dict_terminates(self):
        value = {"k": 1}
        value["self"] = value
        assert estimate_size(value) > 0

    def test_cyclic_list_terminates(self):
        value = [1, 2]
        value.append(value)
        assert estimate_size(value) > 0

    def test_deep_nesting_capped(self):
        value = "leaf"
        for _ in range(500):
            value = [value]
        assert estimate_size(value) > 0
