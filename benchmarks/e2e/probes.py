"""Isolation probes: one layer's public API with no layer above it.

Each probe is sized from the counts of the workload it rides on (the
cluster size and the deliveries/events of one item), runs in the
traced child after the timed items, and reports a rate.  A probe is an
upper bound for what its layer can do inside a full run, not a metric
of the run itself.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List, Optional

from repro.abcast.sequencer import SequencerAbcast
from repro.analysis.complexity import exponential_gadget
from repro.core.admissibility import check_admissible
from repro.core.index import HistoryIndex
from repro.protocols.store import VersionedStore
from repro.runtime import RunSpec, get_workload
from repro.sim import Simulator, UniformLatency
from repro.sim.network import Message, Network

from benchmarks.e2e.calib import HostSpeed


def _timed(fn: Callable[[], None]) -> float:
    """Seconds ``fn`` takes, at reference host speed."""
    speed = HostSpeed().measure()
    gc.collect()
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * speed


def _network(n: int, seed: int) -> Network:
    return Network(
        Simulator(), n, latency=UniformLatency(0.5, 1.5), seed=seed
    )


def kernel_events_per_s(events: int) -> float:
    """Bare ``Simulator``: 64 self-rescheduling callbacks, tied batches."""
    sim = Simulator()

    def make() -> Callable[[], None]:
        def callback() -> None:
            sim.schedule(1.0, callback)

        return callback

    for _ in range(64):
        sim.schedule(0.0, make())
    elapsed = _timed(lambda: sim.run(max_events=events))
    return sim.events_fired / elapsed


def broadcast_deliveries_per_s(n: int, deliveries: int, seed: int) -> float:
    """Bare ``Network.send_to_all`` from pid 0 to ``n`` no-op handlers."""
    network = _network(n, seed)
    for pid in range(n):
        network.register(pid, lambda src, message: None)
    message = Message("probe", ("payload", 1, 2, 3))

    def drive() -> None:
        for round_ in range(max(1, deliveries // n)):
            network.sim.post(float(round_), network.send_to_all, 0, message)
        network.sim.run()

    elapsed = _timed(drive)
    return network.stats.delivered / elapsed


def unicast_deliveries_per_s(n: int, deliveries: int, seed: int) -> float:
    """Bare ``Network.send``: request/response pairs between all peers."""
    network = _network(n, seed)
    reply = Message("probe-resp", tuple(range(32)))

    def handler_for(pid: int) -> Callable[[int, Message], None]:
        def handle(src: int, message: Message) -> None:
            if message.kind == "probe-req":
                network.send(pid, src, reply)

        return handle

    for pid in range(n):
        network.register(pid, handler_for(pid))
    request = Message("probe-req", 0)

    def ask_all(src: int) -> None:
        for dst in range(n):
            if dst != src:
                network.send(src, dst, request)

    def drive() -> None:
        rounds = max(1, deliveries // (2 * (n - 1)))
        for round_ in range(rounds):
            network.sim.post(float(round_), ask_all, round_ % n)
        network.sim.run()

    elapsed = _timed(drive)
    return network.stats.delivered / elapsed


def sequencer_deliveries_per_s(n: int, broadcasts: int, seed: int) -> float:
    """``SequencerAbcast`` over a bare network, counting deliver fn."""
    network = _network(n, seed)
    abcast = SequencerAbcast(network)
    delivered = [0]

    def deliver(sender: int, payload: object) -> None:
        delivered[0] += 1

    for pid in range(n):
        abcast.attach(pid, deliver)
        network.register(
            pid,
            lambda src, message, _pid=pid: abcast.handle(_pid, src, message),
        )

    def drive() -> None:
        for index in range(broadcasts):
            network.sim.post(
                0.25 * index, abcast.broadcast, index % n, ("update", index)
            )
        network.sim.run()

    elapsed = _timed(drive)
    return delivered[0] / elapsed


def store_execute_per_s(spec: RunSpec) -> float:
    """``VersionedStore.execute`` on the workload's own programs."""
    workload = get_workload(spec.workload)
    n, objects = workload.shape(spec.n, spec.objects)
    programs = [
        program
        for sequence in workload.builder(n, objects, spec.ops, spec.seed + 1)
        for program in sequence
    ]
    store = VersionedStore({obj: 0 for obj in objects})

    def drive() -> None:
        for uid, program in enumerate(programs, start=1):
            store.execute(program, uid)

    return len(programs) / _timed(drive)


def admissibility_nodes() -> Dict[str, float]:
    """Ground-truth rung: exact search on ``exponential_gadget(5)``."""
    history = exponential_gadget(5)
    base = HistoryIndex.of(history).base_relation("m-sc", ())
    result: List = []
    elapsed = _timed(lambda: result.append(check_admissible(history, base)))
    nodes = result[0].stats.nodes
    return {
        "core.admissibility.probe_nodes": nodes,
        "core.admissibility.probe_nodes_per_s": nodes / elapsed,
    }


def run_probes(
    workload: str, spec: Optional[RunSpec], counts: Dict[str, float]
) -> Dict[str, float]:
    """The probes that ride on ``workload``, sized from one item's counts
    (``spec`` is its first item; the history-file workload has none)."""
    out: Dict[str, float] = {}
    deliveries = int(counts.get("sim.network.delivered", 0)) or 10_000
    if workload == "fanout-msc":
        out["sim.kernel.probe_events_per_s"] = kernel_events_per_s(
            int(counts.get("sim.kernel.events", 0)) or 50_000
        )
        out["sim.network.probe_broadcast_deliveries_per_s"] = (
            broadcast_deliveries_per_s(spec.n, deliveries, spec.seed)
        )
        out["abcast.sequencer.probe_deliveries_per_s"] = (
            sequencer_deliveries_per_s(
                spec.n,
                int(counts.get("abcast.sequencer.requests", 0)) or 100,
                spec.seed,
            )
        )
    if workload == "query-mlin":
        out["sim.network.probe_unicast_deliveries_per_s"] = (
            unicast_deliveries_per_s(spec.n, deliveries, spec.seed)
        )
        out["protocols.store.probe_execute_per_s"] = store_execute_per_s(spec)
    if workload in ("deep-verify", "offline-check"):
        out.update(admissibility_nodes())
    return out
