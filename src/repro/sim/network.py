"""Simulated message-passing network (substrate S10).

Implements the paper's channel model: reliable point-to-point channels
with unbounded (simulated) delay and **no FIFO guarantee** — "the
messages can get reordered" (Section 5).

Beyond the paper's model, the network supports a *fault layer* used by
the robustness subsystem (:mod:`repro.sim.faults`, :mod:`repro.sim.
chaos`):

* probabilistic message **drops** and **duplicates**;
* a mutable **delay factor** for latency spikes;
* endpoint **crash/restore** (frames to a down endpoint vanish, the
  endpoint's own retransmission timers are volatile and die with it);
* **link-level partitions**: a reachability matrix of directed link
  cuts (:meth:`Network.cut_link` / :meth:`Network.partition`); frames
  on a cut link are discarded (``lost_to_partition``), and healing a
  link immediately *flushes* the sender's outstanding reliable
  transfers across it, so the ack/dedup shim delivers every queued
  logical message exactly once after the heal;
* an optional **reliable-delivery shim** (``reliable=True``): every
  logical send is assigned a transfer id, the receiver acknowledges
  each data frame, the sender retransmits unacknowledged frames with
  exponential backoff plus jitter, and the receiver suppresses
  duplicate transfer ids.  Protocols written against reliable channels
  then survive lossy ones without modification.

The network also keeps per-kind message statistics (count and payload
size), which power the message-cost benchmarks (experiments A2/A3).
Accounting is unified across the unicast, broadcast, retransmission
and acknowledgment paths: every *logical* send is counted once in
``sent``/``by_kind``, while every *physical* frame that the fault
layer drops or duplicates is counted in ``dropped``/``duplicated``
regardless of which path emitted it; shim traffic is tallied
separately (``retransmitted``, ``acked``, ``deduped``).
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import DeliveryTimeout, ProcessCrashed, SimulationError
from repro.obs import MetricsRegistry, get_tracer
from repro.sim.kernel import EventHandle, Simulator
from repro.sim.latency import FixedLatency, LatencyModel

#: Signature of a message handler: (src_pid, message) -> None.
Handler = Callable[[int, "Message"], None]

#: Maximum recursion depth for :func:`estimate_size`.
MAX_SIZE_DEPTH = 24


class Message:
    """A network message.

    Attributes:
        kind: short type tag (e.g. ``"abcast"``, ``"query"``).
        payload: arbitrary payload; must be treated as immutable by
            receivers (the simulator delivers the same object to every
            destination of a broadcast).

    Immutable (attribute assignment raises), ``__slots__``-backed, and
    carries a lazily computed payload-size cache: a broadcast reuses
    one ``Message`` across all destinations, so the
    :func:`estimate_size` tree-walk runs once per message instead of
    once per destination.  Messages are *not* recycled through a free
    list — receivers legitimately retain them (dedup ledgers, recorded
    histories), so reuse would alias live payloads.
    """

    __slots__ = ("kind", "payload", "_size")

    def __init__(self, kind: str, payload: Any = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_size", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            f"Message is immutable (cannot set {name!r})"
        )

    def __repr__(self) -> str:
        return f"Message(kind={self.kind!r}, payload={self.payload!r})"

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return self.kind == other.kind and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((Message, self.kind, self.payload))

    @property
    def size(self) -> int:
        """Cached :func:`estimate_size` of the payload."""
        size = self._size
        if size is None:
            size = estimate_size(self.payload)
            object.__setattr__(self, "_size", size)
        return size


class SizedDict(dict):
    """A dict payload part that carries its own :func:`estimate_size`.

    A payload part that is large, is sent often and changes little
    between sends (a replica's exported store in every Figure 6 query
    reply) is priced by whoever keeps it current instead of being
    walked per message.  ``size`` is the owner's statement of what the
    walk returns for this dict as a direct member of a message payload
    (nesting depth :data:`SIZED_DEPTH`): :data:`EMPTY_SIZE` plus
    :func:`entry_size` of every item.  The estimator takes it on trust
    for this exact type at that depth only; a ``SizedDict`` anywhere
    else, and any other object that merely has a ``size``, is walked.
    """

    __slots__ = ("size",)


#: The nesting depth a :class:`SizedDict`'s ``size`` is stated for:
#: ``payload[key]``.  The depth cap makes a price depth-dependent, so
#: the statement holds at one depth only.
SIZED_DEPTH = 1

#: What an empty container costs; every member adds its own size.
EMPTY_SIZE = 2


def entry_size(key: Any, value: Any) -> int:
    """What one ``key: value`` item adds to a :class:`SizedDict`'s size."""
    seen: Set[int] = set()
    depth = SIZED_DEPTH + 1
    return _estimate_size(key, depth, seen) + _estimate_size(
        value, depth, seen
    )


def estimate_size(value: Any) -> int:
    """A crude, deterministic payload-size estimate in abstract units.

    Used for relative comparisons only (experiment A3: full-store
    query replies vs. relevant-objects-only replies), never for
    absolute byte counts.  Guarded against cyclic and pathologically
    deep payloads (chaos tests craft those): recursion stops at
    :data:`MAX_SIZE_DEPTH` or on revisiting a container, returning a
    flat sentinel cost instead of overflowing the stack.

    The rules, in order: ``None`` 0, ``bool`` 1, ``int``/``float`` 8,
    ``str`` its length; a list/tuple/set/frozenset or dict
    :data:`EMPTY_SIZE` plus its members (keys and values); any other
    object with a ``__dict__`` as that dict; everything else, and any
    container past the depth cap or already on the current path, 8.
    One part is not walked: a :class:`SizedDict` directly below the
    payload answers with the size its owner keeps for it, which must
    be the number these rules give.
    """
    return _estimate_size(value, 0, set())


def _estimate_size(value: Any, depth: int, seen: Set[int]) -> int:
    # Exact-type fast paths for the bulk of every payload, here and
    # inlined in the container loops below (a reply's ``ts`` is 32
    # ints: one call, not 33).  ``bool`` is not ``int`` by identity
    # and subclasses miss too, so everything else still prices by the
    # isinstance rules.
    kind = type(value)
    if kind is int or kind is float:
        return 8
    if kind is str:
        return len(value)
    if kind is SizedDict and depth == SIZED_DEPTH:
        return value.size
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value)
    if depth >= MAX_SIZE_DEPTH or id(value) in seen:
        return 8
    if isinstance(value, (list, tuple, set, frozenset)):
        seen.add(id(value))
        depth += 1
        total = EMPTY_SIZE
        for v in value:
            kind = type(v)
            if kind is int:
                total += 8
            elif kind is str:
                total += len(v)
            else:
                total += _estimate_size(v, depth, seen)
    elif isinstance(value, dict):
        seen.add(id(value))
        depth += 1
        total = EMPTY_SIZE
        for k, v in value.items():
            if type(k) is str:
                total += len(k)
            else:
                total += _estimate_size(k, depth, seen)
            kind = type(v)
            if kind is int:
                total += 8
            elif kind is str:
                total += len(v)
            else:
                total += _estimate_size(v, depth, seen)
    elif hasattr(value, "__dict__"):
        seen.add(id(value))
        total = _estimate_size(vars(value), depth + 1, seen)
    else:
        return 8
    seen.discard(id(value))
    return total


class _CounterProperty:
    """Expose a registry counter as a plain int attribute.

    Keeps the pre-registry surface (``stats.dropped += 1`` and
    ``stats.dropped == 3``) working while the numbers live in a
    :class:`~repro.obs.MetricsRegistry`.
    """

    __slots__ = ("attr",)

    def __init__(self, attr: str) -> None:
        self.attr = attr

    def __get__(self, obj: "NetworkStats", _objtype=None) -> int:
        if obj is None:  # pragma: no cover - class access
            return self
        obj._flush()
        return getattr(obj, self.attr).value

    def __set__(self, obj: "NetworkStats", value: int) -> None:
        counter = getattr(obj, self.attr)
        counter.inc(value - counter.value)


class NetworkStats:
    """Aggregate statistics of messages that entered the network.

    ``sent``/``by_kind``/``size_by_kind`` count *logical* sends (one
    per ``send()`` call); ``dropped``/``duplicated`` count *physical*
    frames affected by fault injection on any path (data, broadcast
    copy, retransmission, acknowledgment); the remaining fields are
    the reliable-delivery shim's ledger.

    The numbers are held in a per-network
    :class:`~repro.obs.MetricsRegistry` (``stats.registry``); the int
    attributes below are views into it, and :meth:`snapshot` renders
    the whole registry as one plain dict.
    """

    _SCALARS = (
        ("sent", "net.sent"),
        ("delivered", "net.delivered"),
        ("dropped", "net.dropped"),
        ("duplicated", "net.duplicated"),
        # Retransmission attempts by the reliable shim (physical
        # resends beyond each frame's first transmission).
        ("retransmitted", "net.retransmitted"),
        # Acknowledgments that reached their sender.
        ("acked", "net.acked"),
        # Duplicate data frames suppressed at the receiver by
        # transfer id.
        ("deduped", "net.deduped"),
        # Frames discarded because the destination endpoint was down.
        ("lost_to_crash", "net.lost_to_crash"),
        # Frames discarded because the directed link was cut.
        ("lost_to_partition", "net.lost_to_partition"),
        # Outstanding reliable transfers re-fired by a link heal.
        ("flushed", "net.flushed"),
        ("total_size", "net.total_size"),
    )

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        for attr, metric in self._SCALARS:
            setattr(self, f"_{attr}", self.registry.counter(metric))
        # Hot-path buffer: the simulated network is single-threaded,
        # so per-send/per-delivery increments accumulate in plain ints
        # (no instrument locks) and flush into the registry whenever a
        # view property, ``by_kind``/``size_by_kind`` or ``snapshot``
        # is read.  Cold-path counters (drops, retransmits, ...) still
        # write through directly.
        self._pending_sent = 0
        self._pending_delivered = 0
        self._pending_size = 0
        # kind -> [sends, size units] awaiting flush.
        self._pending_kind: Dict[str, List[int]] = {}

    sent = _CounterProperty("_sent")
    delivered = _CounterProperty("_delivered")
    dropped = _CounterProperty("_dropped")
    duplicated = _CounterProperty("_duplicated")
    retransmitted = _CounterProperty("_retransmitted")
    acked = _CounterProperty("_acked")
    deduped = _CounterProperty("_deduped")
    lost_to_crash = _CounterProperty("_lost_to_crash")
    lost_to_partition = _CounterProperty("_lost_to_partition")
    flushed = _CounterProperty("_flushed")
    total_size = _CounterProperty("_total_size")

    @property
    def by_kind(self) -> Dict[str, int]:
        """Logical sends per message kind (a fresh dict)."""
        self._flush()
        return self.registry.by_label("net.sent_by_kind", "kind")

    @property
    def size_by_kind(self) -> Dict[str, int]:
        """Estimated payload units per message kind (a fresh dict)."""
        self._flush()
        return self.registry.by_label("net.size_by_kind", "kind")

    def record_send(self, message: Message) -> None:
        self._pending_sent += 1
        size = message.size  # cached across broadcast destinations
        self._pending_size += size
        per_kind = self._pending_kind.get(message.kind)
        if per_kind is None:
            self._pending_kind[message.kind] = [1, size]
        else:
            per_kind[0] += 1
            per_kind[1] += size

    def record_broadcast(self, message: "Message", count: int) -> None:
        """Record ``count`` identical sends in one buffered update."""
        self._pending_sent += count
        size = message.size
        self._pending_size += size * count
        per_kind = self._pending_kind.get(message.kind)
        if per_kind is None:
            self._pending_kind[message.kind] = [count, size * count]
        else:
            per_kind[0] += count
            per_kind[1] += size * count

    def record_delivered(self) -> None:
        self._pending_delivered += 1

    def _flush(self) -> None:
        """Push buffered hot-path increments into the registry."""
        if self._pending_sent:
            self._sent.inc(self._pending_sent)
            self._pending_sent = 0
        if self._pending_delivered:
            self._delivered.inc(self._pending_delivered)
            self._pending_delivered = 0
        if self._pending_size:
            self._total_size.inc(self._pending_size)
            self._pending_size = 0
        if self._pending_kind:
            registry = self.registry
            for kind, (sends, size) in sorted(self._pending_kind.items()):
                registry.counter("net.sent_by_kind", kind=kind).inc(sends)
                registry.counter("net.size_by_kind", kind=kind).inc(size)
            self._pending_kind.clear()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The registry's counters/gauges/histograms as a plain dict."""
        self._flush()
        return self.registry.snapshot()


#: Backwards-compatible alias (the pre-fault-layer name).
ChannelStats = NetworkStats


class _Transfer:
    """Sender-side state of one unacknowledged reliable transfer.

    Instances are recycled through the owning network's free list
    (``Network._transfer_pool``): under the reliable shim every
    logical send allocates one, and in steady state acks retire them
    at the same rate — the pool turns that churn into two list ops.
    Recycling is safe because, unlike :class:`Message`, transfers
    never escape the network: the retransmit/flush paths reach them
    through ``_outstanding`` by id, so once popped (ack or crash) the
    object is unreachable.
    """

    __slots__ = ("dst", "message", "attempts", "timer")

    def __init__(self) -> None:
        self.dst = -1
        self.message: Optional[Message] = None
        self.attempts = 0
        self.timer: Optional[EventHandle] = None


class Network:
    """A reordering point-to-point network with optional fault layer.

    Args:
        sim: the driving simulator.
        n: number of endpoints, with pids ``0..n-1``.
        latency: per-message delay model (default: fixed 1.0).
        fifo: when True, deliveries on each ordered channel are forced
            into send order (delay clamped); default False, matching
            the paper.
        seed: RNG seed for latency sampling and fault injection.
        drop_prob: probability of silently dropping a physical frame —
            **violates** the paper's model; tolerated only with the
            reliable shim (or in negative tests).
        dup_prob: probability of delivering a frame twice.
        reliable: enable the ack/retransmit/dedup shim, restoring the
            paper's reliable-channel abstraction on top of a lossy
            physical layer.
        ack_timeout: base retransmission timeout (virtual time).
        backoff: exponential backoff multiplier per retry.
        max_backoff: cap on the backoff multiplier.
        max_retries: retransmissions before :class:`DeliveryTimeout`.
        retry_jitter: desynchronizing jitter fraction added to every
            retransmission timeout.  Drawn from a *dedicated* RNG
            (seeded from ``seed``), so jitter draws never perturb the
            drop/duplicate/latency sampling stream and
            :class:`DeliveryTimeout` behavior is replayable from a
            spec.
    """

    def __init__(
        self,
        sim: Simulator,
        n: int,
        *,
        latency: Optional[LatencyModel] = None,
        fifo: bool = False,
        seed: int = 0,
        drop_prob: float = 0.0,
        dup_prob: float = 0.0,
        reliable: bool = False,
        ack_timeout: float = 4.0,
        backoff: float = 2.0,
        max_backoff: float = 8.0,
        max_retries: int = 40,
        retry_jitter: float = 0.25,
    ) -> None:
        if n <= 0:
            raise SimulationError("network needs at least one endpoint")
        self.sim = sim
        self.n = n
        self.latency = latency or FixedLatency(1.0)
        self.fifo = fifo
        self.drop_prob = drop_prob
        self.dup_prob = dup_prob
        self.reliable = reliable
        self.ack_timeout = ack_timeout
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.max_retries = max_retries
        if retry_jitter < 0:
            raise SimulationError("retry_jitter must be non-negative")
        self.retry_jitter = retry_jitter
        #: Multiplier applied to every sampled latency; fault plans
        #: raise it temporarily to model congestion/delay spikes.
        self.delay_factor = 1.0
        self.stats = NetworkStats()
        self._rng = random.Random(seed)
        # Dedicated stream for retransmission jitter: timer behavior
        # stays identical however many frames the fault layer samples.
        self._retry_rng = random.Random((seed + 1) * 0x9E3779B1)
        #: Directed link cuts: ``(src, dst)`` pairs currently severed.
        self._cut: Set[Tuple[int, int]] = set()
        self._handlers: Dict[int, Handler] = {}
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        self._down: Set[int] = set()
        self._next_xfer = itertools.count()
        #: Sender pid -> transfer id -> in-flight state (volatile:
        #: wiped when the sender crashes).
        self._outstanding: Dict[int, Dict[int, _Transfer]] = {
            pid: {} for pid in range(n)
        }
        #: Receiver pid -> transfer ids already delivered (volatile).
        self._seen: Dict[int, Set[int]] = {pid: set() for pid in range(n)}
        #: Retired transfer objects awaiting reuse (see ``_Transfer``).
        self._transfer_pool: List[_Transfer] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, pid: int, handler: Handler) -> None:
        """Attach the message handler for endpoint ``pid``."""
        self._check_pid(pid)
        if pid in self._handlers:
            raise SimulationError(f"endpoint {pid} already registered")
        self._handlers[pid] = handler

    # ------------------------------------------------------------------
    # Crash / restore
    # ------------------------------------------------------------------

    def crash(self, pid: int) -> None:
        """Take endpoint ``pid`` down.

        In-flight frames *to* it will be discarded on arrival; its own
        retransmission timers and dedup memory are volatile and lost.
        """
        self._check_pid(pid)
        if pid in self._down:
            raise ProcessCrashed(f"endpoint {pid} is already down")
        self._down.add(pid)
        for transfer in self._outstanding[pid].values():
            if transfer.timer is not None:
                transfer.timer.cancel()
            self._recycle_transfer(transfer)
        self._outstanding[pid].clear()
        self._seen[pid].clear()

    def restore(self, pid: int) -> None:
        """Bring a crashed endpoint back (with empty volatile state)."""
        self._check_pid(pid)
        if pid not in self._down:
            raise ProcessCrashed(f"endpoint {pid} is not down")
        self._down.discard(pid)

    def is_down(self, pid: int) -> bool:
        """True iff endpoint ``pid`` is currently crashed."""
        return pid in self._down

    @property
    def down(self) -> Set[int]:
        """The set of currently crashed endpoints (a copy)."""
        return set(self._down)

    # ------------------------------------------------------------------
    # Link-level partitions
    # ------------------------------------------------------------------

    def cut_link(self, src: int, dst: int, *, symmetric: bool = True) -> None:
        """Sever the ``src -> dst`` link (both directions by default).

        Frames in flight are unaffected; frames *transmitted* while
        the link is cut are discarded and counted in
        ``stats.lost_to_partition``.  Reliable transfers keep backing
        off against the dead link and are flushed by
        :meth:`heal_link`.
        """
        self._check_pid(src)
        self._check_pid(dst)
        if src == dst:
            raise SimulationError(f"cannot cut the self-link of pid {src}")
        pairs = [(src, dst), (dst, src)] if symmetric else [(src, dst)]
        tracer = get_tracer()
        for pair in pairs:
            if pair not in self._cut:
                self._cut.add(pair)
                if tracer.enabled:
                    tracer.event("net.cut", src=pair[0], dst=pair[1])

    def heal_link(self, src: int, dst: int, *, symmetric: bool = True) -> None:
        """Restore the ``src -> dst`` link (both directions by default).

        For each direction actually healed, the sender's outstanding
        reliable transfers across that link are flushed immediately:
        their backoff state resets and the frames are retransmitted
        now, so queued logical messages cross the healed link without
        waiting out the (possibly maximal) backoff.  Receiver-side
        dedup guarantees exactly-once delivery regardless of how many
        retransmissions raced the heal.
        """
        self._check_pid(src)
        self._check_pid(dst)
        pairs = [(src, dst), (dst, src)] if symmetric else [(src, dst)]
        tracer = get_tracer()
        for pair in pairs:
            if pair in self._cut:
                self._cut.discard(pair)
                if tracer.enabled:
                    tracer.event("net.heal", src=pair[0], dst=pair[1])
                self._flush_link(*pair)

    def partition(self, groups) -> None:
        """Cut every link between distinct groups of pids.

        ``groups`` is an iterable of pid collections; pids must not
        repeat across groups.  Pids absent from every group keep all
        their links (use explicit singleton groups to isolate them).
        """
        groups = [tuple(g) for g in groups]
        seen: Set[int] = set()
        for group in groups:
            for pid in group:
                self._check_pid(pid)
                if pid in seen:
                    raise SimulationError(
                        f"pid {pid} appears in two partition groups"
                    )
                seen.add(pid)
        for i, left in enumerate(groups):
            for right in groups[i + 1:]:
                for a in left:
                    for b in right:
                        self.cut_link(a, b)

    def heal_all(self) -> None:
        """Heal every cut link (flushing each, see :meth:`heal_link`)."""
        for src, dst in sorted(self._cut):
            self.heal_link(src, dst, symmetric=False)

    def is_cut(self, src: int, dst: int) -> bool:
        """True iff the directed ``src -> dst`` link is severed."""
        return (src, dst) in self._cut

    def reachable(self, src: int, dst: int) -> bool:
        """True iff a frame sent now from ``src`` would reach ``dst``
        (link intact and destination endpoint up)."""
        return (src, dst) not in self._cut and dst not in self._down

    @property
    def cut_links(self) -> Set[Tuple[int, int]]:
        """The set of currently severed directed links (a copy)."""
        return set(self._cut)

    def _flush_link(self, src: int, dst: int) -> None:
        for xfer, transfer in sorted(self._outstanding[src].items()):
            if transfer.dst != dst:
                continue
            if transfer.timer is not None:
                transfer.timer.cancel()
            transfer.attempts = 0
            self.stats.flushed += 1
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "net.flush",
                    kind=transfer.message.kind,
                    src=src,
                    dst=dst,
                )
            self._transmit(src, dst, ("data", xfer, transfer.message))
            self._arm_timer(src, xfer)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        message: Message,
        *,
        reliable: Optional[bool] = None,
    ) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        Self-sends are permitted and also traverse the (zero-distance
        but still asynchronous) channel: the handler runs in a later
        simulator event, never synchronously.

        ``reliable`` overrides the network-wide shim setting for this
        one send: the failure detector passes ``reliable=False`` so
        heartbeats stay fire-and-forget (a retransmitted heartbeat
        would defeat its own purpose).
        """
        self._check_pid(src)
        self._check_pid(dst)
        if src in self._down:
            raise ProcessCrashed(f"endpoint {src} sent while down")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("net.send", kind=message.kind, src=src, dst=dst)
        self.stats.record_send(message)
        use_shim = self.reliable if reliable is None else reliable
        if not use_shim:
            self._transmit(src, dst, ("data", None, message))
            return
        xfer = next(self._next_xfer)
        self._outstanding[src][xfer] = self._new_transfer(dst, message)
        self._transmit(src, dst, ("data", xfer, message))
        self._arm_timer(src, xfer)

    def send_to_all(
        self, src: int, message: Message, *, include_self: bool = True
    ) -> None:
        """Point-to-point send to every endpoint (not atomic broadcast!).

        This is the unordered "send to all processes" used by the
        Fig-6 query phase (actions A3/A4); total-order broadcast lives
        in :mod:`repro.abcast`.

        When the network is in its clean configuration (no shim, no
        faults, no cuts, no tracer) the per-destination loop inlines
        the ``send``/``_transmit`` pair: stats, latency sample,
        delivery event — nothing else.  The fault-free sequencer
        fan-out is the simulator's hottest loop, and the RNG draw
        order (one latency sample per destination, in pid order) is
        identical to the general path, so histories don't shift.
        """
        self._check_pid(src)
        if src in self._down:
            raise ProcessCrashed(f"endpoint {src} sent while down")
        if (
            type(self) is not Network  # subclasses may override send()
            or self.reliable
            or self._cut
            or self.drop_prob
            or self.dup_prob
            or self.fifo
            or self.delay_factor != 1.0
            or get_tracer().enabled
        ):
            for dst in range(self.n):
                if dst == src and not include_self:
                    continue
                self.send(src, dst, message)
            return
        sample = self.latency.sample
        rng = self._rng
        post = self.sim.post
        deliver = self._deliver_data
        self.stats.record_broadcast(
            message, self.n if include_self else self.n - 1
        )
        for dst in range(self.n):
            if dst == src and not include_self:
                continue
            delay = sample(rng, src, dst)
            if delay < 0:
                raise SimulationError("latency model produced negative delay")
            post(delay, deliver, src, dst, message)

    # ------------------------------------------------------------------
    # Physical layer (fault injection lives here, for every path)
    # ------------------------------------------------------------------

    def _transmit(self, src: int, dst: int, frame: Tuple) -> None:
        if (src, dst) in self._cut:
            # A cut link loses the frame before it reaches the wire:
            # no drop/dup sampling, so partition windows do not shift
            # the fault layer's RNG stream.
            self.stats.lost_to_partition += 1
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "net.partition_drop", kind=frame[0], src=src, dst=dst
                )
            return
        if self.drop_prob and self._rng.random() < self.drop_prob:
            self.stats.dropped += 1
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event("net.drop", kind=frame[0], src=src, dst=dst)
            return
        copies = 1
        if self.dup_prob and self._rng.random() < self.dup_prob:
            copies = 2
            self.stats.duplicated += 1
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event("net.dup", kind=frame[0], src=src, dst=dst)
        for _ in range(copies):
            delay = self.latency.sample(self._rng, src, dst)
            if delay < 0:
                raise SimulationError("latency model produced negative delay")
            delay *= self.delay_factor
            if self.fifo:
                arrival = self.sim.now + delay
                floor = self._last_delivery.get((src, dst), -1.0)
                arrival = max(arrival, floor + 1e-9)
                self._last_delivery[(src, dst)] = arrival
                delay = arrival - self.sim.now
            self.sim.post(delay, self._deliver_frame, src, dst, frame)

    def _schedule_delivery(
        self, src: int, dst: int, message: Message, delay: float
    ) -> None:
        """Schedule a bare (shim-less) delivery after ``delay``.

        Bypasses fault injection; used by controlled/exploring
        networks that pick delivery orders themselves.
        """
        self.sim.post(
            delay, self._deliver_frame, src, dst, ("data", None, message)
        )

    def _deliver_data(self, src: int, dst: int, message: Message) -> None:
        """Clean-path delivery: a data frame with no reliable shim.

        The semantic twin of :meth:`_deliver_frame` for the fast
        broadcast path — crash check, handler dispatch, buffered
        stats — minus the frame tuple and its kind dispatch.
        """
        if dst in self._down:
            self.stats.lost_to_crash += 1
            return
        handler = self._handlers.get(dst)
        if handler is None:
            raise SimulationError(
                f"message {message.kind!r} delivered to unregistered "
                f"endpoint {dst}"
            )
        self.stats._pending_delivered += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "net.deliver", kind=message.kind, src=src, dst=dst
            )
        handler(src, message)

    def _deliver_frame(self, src: int, dst: int, frame: Tuple) -> None:
        kind = frame[0]
        if dst in self._down:
            self.stats.lost_to_crash += 1
            return
        if kind == "ack":
            self._on_ack(dst, frame[1])
            return
        _kind, xfer, message = frame
        if xfer is not None:
            # Reliable shim: acknowledge every copy (the first ack may
            # be lost), deliver only the first.
            self._transmit(dst, src, ("ack", xfer))
            if xfer in self._seen[dst]:
                self.stats.deduped += 1
                return
            self._seen[dst].add(xfer)
        handler = self._handlers.get(dst)
        if handler is None:
            raise SimulationError(
                f"message {message.kind!r} delivered to unregistered "
                f"endpoint {dst}"
            )
        self.stats.record_delivered()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "net.deliver", kind=message.kind, src=src, dst=dst
            )
        handler(src, message)

    # ------------------------------------------------------------------
    # Reliable shim internals
    # ------------------------------------------------------------------

    def _arm_timer(self, src: int, xfer: int) -> None:
        transfer = self._outstanding[src].get(xfer)
        if transfer is None:  # pragma: no cover - defensive
            return
        scale = min(self.backoff ** transfer.attempts, self.max_backoff)
        timeout = self.ack_timeout * scale
        # Desynchronizing jitter from the dedicated retry stream.
        timeout *= 1.0 + self.retry_jitter * self._retry_rng.random()
        transfer.timer = self.sim.schedule(
            timeout, lambda: self._on_timeout(src, xfer)
        )

    def _on_timeout(self, src: int, xfer: int) -> None:
        transfer = self._outstanding[src].get(xfer)
        if transfer is None or src in self._down:
            return
        transfer.attempts += 1
        if transfer.attempts > self.max_retries:
            raise DeliveryTimeout(
                f"message {transfer.message.kind!r} from {src} to "
                f"{transfer.dst} unacknowledged after "
                f"{self.max_retries} retransmissions"
            )
        self.stats.retransmitted += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "net.retransmit",
                kind=transfer.message.kind,
                src=src,
                dst=transfer.dst,
                attempt=transfer.attempts,
            )
        self._transmit(src, transfer.dst, ("data", xfer, transfer.message))
        self._arm_timer(src, xfer)

    def _on_ack(self, src: int, xfer: int) -> None:
        transfer = self._outstanding[src].pop(xfer, None)
        if transfer is None:
            return  # duplicate or post-crash ack
        if transfer.timer is not None:
            transfer.timer.cancel()
        self._recycle_transfer(transfer)
        self.stats.acked += 1

    def _new_transfer(self, dst: int, message: Message) -> _Transfer:
        pool = self._transfer_pool
        transfer = pool.pop() if pool else _Transfer()
        transfer.dst = dst
        transfer.message = message
        transfer.attempts = 0
        transfer.timer = None
        return transfer

    def _recycle_transfer(self, transfer: _Transfer) -> None:
        # Drop payload/timer references so the pool never pins them.
        transfer.message = None
        transfer.timer = None
        self._transfer_pool.append(transfer)

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < self.n:
            raise SimulationError(
                f"pid {pid} outside the endpoint range 0..{self.n - 1}"
            )
