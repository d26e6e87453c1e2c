"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class MalformedOperationError(ReproError):
    """An operation or m-operation violates a structural invariant.

    Examples: an internal read that does not return the value of the
    last preceding internal write (Section 2.2 of the paper requires
    such reads to be consistent), or an m-operation with a response
    time earlier than its invocation time.
    """


class MalformedHistoryError(ReproError):
    """A history violates well-formedness (Section 2.2).

    Raised when a process subhistory is not sequential (two
    m-operations of the same process overlap in time), when m-operation
    identifiers collide, or when the externally visible reads of one
    m-operation on the same object disagree on the value read.
    """


class ReadsFromError(ReproError):
    """The reads-from relation could not be derived or is inconsistent.

    Raised when a read's value matches no write in the history, or when
    it matches more than one write and no explicit reads-from map was
    supplied to disambiguate.
    """


class RelationError(ReproError):
    """A relation operation was applied to incompatible universes."""


class MissingTimestampsError(ReproError):
    """A real-time-based order was requested on an untimed history.

    m-linearizability and m-normality are defined in terms of the
    real-time order ``resp(a) < inv(b)``, which requires invocation and
    response timestamps on every m-operation.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class ProcessCrashed(SimulationError):
    """An action was attempted by or on a crashed process.

    Raised when a crashed endpoint tries to send, when a process is
    crashed twice without an intervening restart, or when a restart is
    requested for a process that is not down.
    """


class PartitionedError(SimulationError):
    """An operation was refused because the caller sits on the
    minority side of a network partition (quorum-aware degraded mode,
    ``degraded="refuse"``)."""


class DeliveryTimeout(SimulationError):
    """The reliable-delivery shim exhausted its retransmission budget.

    Under the fault model a message is retransmitted with exponential
    backoff until acknowledged; this error surfaces when the
    destination stayed unreachable for the entire retry schedule (e.g.
    a permanently crashed process), i.e. the reliability guarantee the
    protocols depend on could not be upheld.
    """


class SequencerUnavailable(SimulationError):
    """No live sequencer exists to order an atomic broadcast.

    Raised when the fixed-sequencer abcast loses its sequencer without
    failover enabled, or when every candidate successor is down.
    """


class PlanRefused(ReproError):
    """The verification planner cannot build the requested plan.

    Raised when a bounded lookback (``window``) is requested but no
    certificate binds the total update chain the lookback is measured
    along.  Like :class:`CertificationRefused`, a refusal is not a
    verdict: the caller may drop ``window``.
    """


class WindowExceeded(ReproError):
    """A windowed check met a read reaching behind the sealed window.

    The windowed scan keeps only the last ``window`` broadcast
    positions of each object's writer timeline; a read whose visibility
    frontier reaches further back cannot be decided at bounded memory.
    This is a *refusal*, never a wrong verdict — re-run with a larger
    window (or none) to decide the history.
    """


class ProtocolError(ReproError):
    """A replication protocol violated one of its internal invariants."""


class WorkloadError(ReproError):
    """A workload generator received unsatisfiable parameters."""


class CertificationRefused(ReproError):
    """The constraint prover cannot soundly certify a workload.

    Raised when no prover rule applies — e.g. multiple processes issue
    updates without a total synchronization order, or a program's
    write set is not statically declared.  A refusal is *not* a proof
    that histories will violate the constraint; it only means the
    checker must fall back to the dynamic constraint phase.
    """


class InvalidCertificate(ReproError):
    """A constraint certificate failed its structural audit.

    The checker cross-checks every certificate against the concrete
    history in O(n) before trusting it (Theorem 7 is only sound when
    the constraint actually holds); a mismatch means the certificate
    was issued for a different workload or the promised synchronization
    pairs were not passed to the checker.
    """
