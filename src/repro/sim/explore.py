"""Exhaustive message-interleaving exploration (a miniature model checker).

The randomized correctness sweeps (experiments T15/T20) sample message
orderings; this module *enumerates* them.  On small workloads it runs
a protocol under **every** possible delivery order of its messages and
yields each complete execution's :class:`RunResult` — turning
"zero violations across seeds" into "zero violations, period" for the
explored instance.

Mechanics
---------

:class:`ControlledNetwork` collects transmitted frames in a pending
pool instead of scheduling timed deliveries.  The explorer replays
*schedules* — sequences of indices into the pending pool — against a
freshly built cluster each time:

1. build the cluster (``network_factory=controlled_network``) and
   ``prepare`` the workloads; drain local events (``sim.run``);
2. for each choice in the schedule: deliver that pending message
   (advancing virtual time by one unit so histories stay well-formed
   and real-time order reflects the chosen sequence), then drain to
   quiescence — responses, next invocations and new sends all happen
   here;
3. when the pool is empty, ``finalize`` and yield the run; otherwise
   branch on every currently pending index.

The state space is the tree of choice sequences; replay-from-scratch
keeps the explorer trivially correct (no state snapshotting) at the
cost of re-running prefixes — fine at the scale where exhaustiveness
is affordable at all.  ``limit`` caps the number of complete
executions; hitting it raises :class:`ExplorationBudgetExceeded` so a
test can never silently pass on partial coverage.

Clusters built for exploration must be deterministic apart from the
delivery order: use ``think_jitter=0`` and ``start_jitter=0`` (the
driver enforces this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.network import Message, Network

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.protocols.base import Cluster, RunResult, Workloads


class ExplorationBudgetExceeded(RuntimeError):
    """More complete executions exist than the allowed ``limit``."""


class ControlledNetwork(Network):
    """A network whose deliveries are chosen, not timed.

    The physical layer is a pending :attr:`pool` instead of a timed
    wire: every frame a send would transmit waits there until
    :meth:`deliver` hands it to its destination at ``now + 1``.
    """

    def __init__(self, sim: Simulator, n: int) -> None:
        super().__init__(sim, n, seed=0)
        self.pool: List[Tuple[int, int, Message]] = []

    def _transmit(self, src, dsts, message, xfer=None) -> None:
        self.pool.extend((src, dst, message) for dst in dsts)

    def deliver(self, index: int) -> None:
        """Deliver the index-th pending message one time unit from now."""
        self.sim.post(1.0, self._deliver, *self.pool.pop(index))


def _resolve_exploration_factory(cluster_factory):
    """Accept a registry protocol name alongside bare factories.

    Resolved lazily through :mod:`repro.runtime.registry` so exploring
    ``"msc"`` and exploring ``msc_cluster`` are the same thing.
    """
    if not isinstance(cluster_factory, str):
        return cluster_factory
    from repro.runtime.registry import get_protocol

    return get_protocol(cluster_factory).factory


def explore(
    cluster_factory: "Callable[..., Cluster]",
    workloads: "Workloads",
    *,
    limit: int = 20_000,
    cluster_kwargs: Optional[dict] = None,
) -> "Iterator[RunResult]":
    """Yield a :class:`RunResult` for every message interleaving.

    Args:
        cluster_factory: a registered protocol name (``"msc"``) or a
            factory such as ``msc_cluster``; called as
            ``cluster_factory(n, objects, network_factory=...,
            think_jitter=0, start_jitter=0, **cluster_kwargs)`` — the
            caller supplies ``n``/``objects`` via ``cluster_kwargs``.
            Simplest use: pass a zero-argument lambda via
            :func:`explore_factory` below.
        workloads: the per-process programs (keep them tiny: the tree
            is factorial in the message count).
        limit: maximum number of complete executions; exceeding it
            raises :class:`ExplorationBudgetExceeded`.
        cluster_kwargs: forwarded to the factory.
    """
    cluster_factory = _resolve_exploration_factory(cluster_factory)
    kwargs = dict(cluster_kwargs or {})

    def replay(schedule: List[int]) -> Tuple[str, object]:
        cluster = cluster_factory(
            network_factory=ControlledNetwork,
            think_jitter=0.0,
            start_jitter=0.0,
            **kwargs,
        )
        network = cluster.network
        if not isinstance(network, ControlledNetwork):  # pragma: no cover
            raise SimulationError(
                "exploration requires the ControlledNetwork"
            )
        cluster.prepare(workloads)
        cluster.sim.run()
        for choice in schedule:
            if choice >= len(network.pool):  # pragma: no cover
                raise SimulationError("stale exploration schedule")
            network.deliver(choice)
            cluster.sim.run()
        if network.pool:
            return ("branch", len(network.pool))
        return ("complete", cluster.finalize())

    executions = 0

    def dfs(schedule: List[int]) -> "Iterator[RunResult]":
        nonlocal executions
        outcome, payload = replay(schedule)
        if outcome == "complete":
            executions += 1
            if executions > limit:
                raise ExplorationBudgetExceeded(
                    f"more than {limit} complete executions"
                )
            yield payload  # type: ignore[misc]
            return
        for choice in range(payload):  # type: ignore[arg-type]
            yield from dfs(schedule + [choice])

    yield from dfs([])


def explore_factory(
    factory: "Callable[..., Cluster]",
    n: int,
    objects,
    **kwargs,
) -> "Callable[..., Cluster]":
    """Bind ``n``/``objects``/extras into an exploration factory.

    ``factory`` may be a registered protocol name or a callable.
    """
    factory = _resolve_exploration_factory(factory)

    def build(**extra) -> "Cluster":
        merged = dict(kwargs)
        merged.update(extra)
        return factory(n, objects, **merged)

    return build
