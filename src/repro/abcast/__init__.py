"""Atomic (total-order) broadcast implementations (substrate S11)."""

from repro.abcast.failover import FailoverSequencer
from repro.abcast.interface import AtomicBroadcast, DeliverFn
from repro.abcast.lamport import LamportAbcast
from repro.abcast.sequencer import SequencerAbcast

__all__ = [
    "AtomicBroadcast",
    "DeliverFn",
    "FailoverSequencer",
    "LamportAbcast",
    "SequencerAbcast",
]
