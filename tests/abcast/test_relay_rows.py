"""The sequencer's held relays as rows land exactly as frame by frame.

``SequencerAbcast`` holds its relays as the rows of one ``Holder`` and
lands a run as a cursor move.  ``FramesCore`` keeps the store the rows
replaced, as the reference: a ``dict`` of frames by sequence
number, each with a per-destination held / queued / landed state,
landed by walking consecutive tags.  Both run the same seeded
scenarios on a bare network — integer latencies drawn from one seeded
matrix (so arrivals tie with landing points at ``sim.key``), landing
points at random pids and instants, and optionally a switch to queued
frames mid-run (a tracer installed, or a delay spike) followed by a
resume — and must land, at every pid, the same runs of sequence
numbers at the same keys, with the same ``net.delivered``.
"""

import math
import random
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.abcast.sequencer import SequencerAbcast
from repro.obs import Tracer, get_tracer, install_tracer, uninstall_tracer
from repro.sim.kernel import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network

HELD, QUEUED, LANDED = 0, 1, 2


class HeldFrame:
    """A relay held for pids ``0..n-1``: the frame to ``i`` arrives at
    ``times[i]``, kernel seq ``first + i``, and is ``state[i]`` there."""

    def __init__(self, src, message, times, first):
        self.src, self.message, self.times, self.first = src, message, times, first
        self.state = bytearray(len(times))
        self.left = len(times)


class FrameStore(dict):
    """The frame-by-frame reference store: frames by tag."""

    def __init__(self, network, arrive, counts):
        super().__init__()
        self.network, self.arrive, self.counts = network, arrive, counts
        network._holders.append(self)

    def hold(self, src, message, tag) -> bool:
        network = self.network
        if (
            network._queues_only
            or network._impaired
            or network.reliable
            or network._down
            or get_tracer().enabled
        ):
            network._queue_held()
            network._send(src, range(network.n), message, None)
            return False
        network.stats.record_send(message, network.n)
        sim = network.sim
        times = network.latency.arrivals(
            network._rng, src, range(network.n), sim.now
        )
        self[tag] = HeldFrame(src, message, times, sim.reserve(network.n))
        network._holding = True
        network._latest = max(network._latest, max(times))
        return True

    def land_from(self, dst, tag, key) -> List[HeldFrame]:
        now, current = key
        landed = []
        frame = self.get(tag)
        while frame is not None:
            time = frame.times[dst]
            if frame.state[dst] or time > now or (
                time == now and frame.first + dst > current
            ):
                break
            self.counts["ties"] += time == now
            landed.append(frame)
            self._landed(tag, frame, dst)
            tag += 1
            frame = self.get(tag)
        self.network.stats.delivered += len(landed)
        return landed

    def land_arrived(self, key) -> List[Tuple[int, Tuple[HeldFrame, int]]]:
        later = []
        now, current = key
        for tag, frame in list(self.items()):
            for i in range(len(frame.times)):
                if frame.state[i] != HELD:
                    continue
                time = frame.times[i]
                if time < now or (time == now and frame.first + i <= current):
                    self.network.stats.delivered += 1
                    self._landed(tag, frame, i)
                    self.arrive(i, frame.message, key)
                else:
                    later.append((tag, (frame, i)))
        self.counts["switched"] += bool(later)
        return later

    def queue_last(self, dst, tags) -> None:
        last, last_at = None, (-math.inf, 0)
        for tag in tags:
            frame = self.get(tag)
            if frame is not None:
                at = (frame.times[dst], frame.first + dst)
                if at > last_at and frame.state[dst] != LANDED:
                    last, last_tag, last_at = frame, tag, at
        if last is not None and last.state[dst] == HELD:
            self.counts["queue_last"] += 1
            self._queue(last_tag, (last, dst))

    def _landed(self, tag, frame, i):
        frame.state[i] = LANDED
        frame.left -= 1
        if not frame.left:
            del self[tag]

    def _queue(self, tag, at):
        frame, i = at
        frame.state[i] = QUEUED
        self.network.sim.post_at(
            frame.times[i], frame.first + i, self._arrival, tag, frame, i
        )

    def _arrival(self, tag, frame, i):
        self.network._deliver(frame.src, i, frame.message)
        self._landed(tag, frame, i)


class FramesCore(SequencerAbcast):
    """The ordering core on the frame-by-frame store."""

    counts: Dict[str, int]

    def land_lazily(self):
        self._relays = FrameStore(self.network, self._arrived, self.counts)
        return self.land

    def handle(self, pid, src, message):
        if message.kind != "abc-req":
            return super().handle(pid, src, message)
        entry = message.payload
        if entry["id"] in self._ids:
            return
        self._ids.add(entry["id"])
        seq = self._next_seq
        self._next_seq += 1
        relay = message.relay("abc-seq", self._stamp(seq, self.epoch, entry))
        if self._relays.hold(pid, relay, seq):
            sender = entry["sender"]
            self._relays.queue_last(sender, range(self._expected[sender], seq + 1))

    def land(self, pid, key=None):
        expected = self._expected[pid]
        if expected in self._relays:
            key = key or self.network.sim.key
            held = self._relays.land_from(pid, expected, key)
            if held:
                run = [frame.message.payload for frame in held]
                self._frames_from(pid, run, key, held=True)

    def _arrived(self, pid, message, key):
        entry = message.payload
        seq, expected = entry["seq"], self._expected[pid]
        if seq == expected:
            self._frames_from(pid, [entry], key)
        elif seq > expected:
            self.counts["early"] += 1
            self._buffer[pid].setdefault(seq, entry)
            if self._relays:
                self.land(pid, key)

    def _frames_from(self, pid, run, key, held=False):
        relays, buffer = self._relays, self._buffer[pid]
        expected = self._expected[pid] + len(run)
        while True:
            if relays and not held:
                landed = relays.land_from(pid, expected, key)
                run += [frame.message.payload for frame in landed]
                expected += len(landed)
            entry = buffer.pop(expected, None)
            if entry is None:
                break
            run.append(entry)
            expected += 1
            held = False
        self._expected[pid] = expected
        self._deliver_run(pid, run)


class MatrixLatency(LatencyModel):
    """Whole-number delays 0-3 from a seeded stream of its own: both
    cores draw the same arrival matrix, ties included."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def sample(self, rng, src, dst) -> float:
        return float(self.rng.randrange(4))


def scenario(core, seed: int, switch: Optional[str]):
    """Run ``core`` through scenario ``seed``; return each pid's landed
    runs as ``(seqs, key)`` and ``net.delivered``."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    sim = Simulator()
    network = Network(sim, n, latency=MatrixLatency(seed))
    abcast = core(network)
    abcast.land_lazily()
    logs: Dict[int, List[Tuple[List[int], Any]]] = {pid: [] for pid in range(n)}
    for pid in range(n):
        abcast.attach_run(
            pid,
            lambda run, _start, log=logs[pid]: log.append(
                ([entry["seq"] for entry in run], sim.key)
            ),
        )
    for index in range(rng.randint(10, 30)):
        sim.post(rng.randrange(12), abcast.broadcast, rng.randrange(n), index)
    for _ in range(rng.randint(10, 60)):
        sim.post(rng.randrange(20), abcast.land, rng.randrange(n))
    begin, end = sorted(rng.sample(range(1, 16), 2))
    if switch == "tracer":
        sim.post(begin, install_tracer, Tracer())
        sim.post(end, uninstall_tracer)
    elif switch == "spike":
        sim.post(begin, setattr, network, "delay_factor", 3.0)
        sim.post(end, setattr, network, "delay_factor", 1.0)
    try:
        sim.run()
    finally:
        uninstall_tracer()
    network.land_held()
    return logs, network.stats.delivered


@pytest.mark.parametrize("switch", [None, "tracer", "spike"])
def test_rows_land_as_the_frames_did(switch):
    counts = dict.fromkeys(("ties", "queue_last", "early", "switched"), 0)
    FramesCore.counts = counts
    for seed in range(60):
        frames = scenario(FramesCore, seed, switch)
        assert scenario(SequencerAbcast, seed, switch) == frames, seed
    # The scenarios reached every case the rows must get right.
    assert counts["ties"] and counts["queue_last"] and counts["early"]
    assert bool(counts["switched"]) == (switch is not None)
