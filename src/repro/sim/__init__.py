"""Discrete-event simulation substrate (systems S9-S10)."""

from repro.sim.detector import (
    HEARTBEAT_KIND,
    DetectorEvent,
    HeartbeatDetector,
)
from repro.sim.explore import (
    ControlledNetwork,
    ExplorationBudgetExceeded,
    explore,
    explore_factory,
)
from repro.sim.faults import (
    CrashEvent,
    DelaySpike,
    FaultInjector,
    FaultPlan,
    HealEvent,
    PartitionEvent,
)
from repro.sim.kernel import EventHandle, Simulator
from repro.sim.latency import (
    AsymmetricLatency,
    ExponentialLatency,
    FixedLatency,
    LatencyModel,
    UniformLatency,
)
from repro.sim.network import (
    Message,
    Network,
    NetworkStats,
    estimate_size,
)

__all__ = [
    "AsymmetricLatency",
    "ControlledNetwork",
    "CrashEvent",
    "DelaySpike",
    "DetectorEvent",
    "ExplorationBudgetExceeded",
    "EventHandle",
    "ExponentialLatency",
    "FaultInjector",
    "FaultPlan",
    "FixedLatency",
    "HEARTBEAT_KIND",
    "HealEvent",
    "HeartbeatDetector",
    "LatencyModel",
    "Message",
    "Network",
    "NetworkStats",
    "PartitionEvent",
    "Simulator",
    "UniformLatency",
    "estimate_size",
    "explore",
    "explore_factory",
]
