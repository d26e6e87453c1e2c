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
import math
import random
from array import array
from operator import itemgetter
from types import FunctionType
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import DeliveryTimeout, ProcessCrashed, SimulationError
from repro.obs import MetricsRegistry, get_tracer
from repro.sim.kernel import EventHandle, Simulator
from repro.sim.latency import FixedLatency, LatencyModel

#: Signature of a message handler: (src_pid, message) -> None.
Handler = Callable[[int, "Message"], None]

#: Signature of a layer's per-kind handler: (dst_pid, src_pid, message).
KindHandler = Callable[[int, int, "Message"], None]

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
    priced once: a broadcast reuses one ``Message`` across all
    destinations, so its :attr:`size` is computed once per message
    instead of once per destination.  Messages are *not* recycled
    through a free list — receivers legitimately retain them (dedup
    ledgers, recorded histories), so reuse would alias live payloads.

    A sender that already holds the prices of some members of a dict
    payload states them: ``priced`` maps those members to what the
    walk charges for their values one level below the payload, and
    only the other members are walked (at construction).  A dict's
    price is the sum of its members' at the same depth, so a true
    statement prices the message exactly as :func:`estimate_size`
    does.  A sender that holds the whole price states it as an int
    ``priced``; :meth:`relay` states a whole received payload.
    """

    __slots__ = ("kind", "payload", "_size")

    def __init__(
        self,
        kind: str,
        payload: Any = None,
        priced: Union[None, int, Dict[Any, int]] = None,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)
        size = priced
        if type(priced) is dict:
            size = EMPTY_SIZE + _members_size(payload, priced)
        object.__setattr__(self, "_size", size)

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
        """The payload's price: stated at construction, or else the
        :func:`estimate_size` walk on first use."""
        size = self._size
        if size is None:
            size = estimate_size(self.payload)
            object.__setattr__(self, "_size", size)
        return size

    def relay(self, kind: str, payload: Dict[Any, Any]) -> "Message":
        """A ``kind`` message whose dict payload stamps this one's.

        ``payload`` must hold every member of this message's dict
        payload, unchanged; it is priced as this message plus the
        members it adds, so relaying a large payload never walks it
        again.
        """
        message = Message(kind, payload)
        object.__setattr__(
            message,
            "_size",
            self.size + _members_size(payload, {}, counted=self.payload),
        )
        return message


#: What an empty container costs; every member adds its own size.
EMPTY_SIZE = 2


def entry_size(seen: Set[int], *parts: Any) -> int:
    """What one entry of a payload member adds to the member's price.

    A dict or tuple sent as a payload member costs :data:`EMPTY_SIZE`
    plus this for each entry (a dict item's key and value, a tuple's
    item), so its owner can keep the member's price current entry by
    entry.  ``seen`` is the walk's path set; a caller pricing many
    entries passes one empty set to all of them (every walk leaves it
    as it found it).
    """
    total = 0
    for part in parts:
        kind = type(part)
        if kind is int:
            total += 8
        elif kind is str:
            total += len(part)
        elif kind is tuple:
            # A store cell: priced in place while its members are plain
            # ints and strings, which is what the walk would charge (a
            # tuple of those cannot be on its own path).
            size = EMPTY_SIZE
            for item in part:
                item_kind = type(item)
                if item_kind is int:
                    size += 8
                elif item_kind is str:
                    size += len(item)
                else:
                    size = _estimate_size(part, 2, seen)
                    break
            total += size
        else:
            total += _estimate_size(part, 2, seen)
    return total


def attributes_size(owner: Any, attributes: Dict[str, Any]) -> int:
    """What the walk charges for ``owner`` — an object it prices as
    its ``__dict__``, which holds ``attributes`` — as one entry of a
    payload member, computed without visiting ``owner`` (or making
    Python build its ``__dict__``).

    An attribute that is an int, a string, a bool, None, a function
    without attributes of its own (priced as its empty ``__dict__``)
    or a frozenset of strings is priced in place; any other is walked
    where the walk would reach it.  An in-place price is what the walk
    charges for that attribute wherever ``owner`` sits above the last
    3 levels of :data:`MAX_SIZE_DEPTH` (a function's ``__dict__`` is 3
    levels below ``owner``).
    """
    seen = None  # the walk's path set, made when first needed
    total = EMPTY_SIZE
    for key, member in attributes.items():
        total += len(key)
        kind = type(member)
        if kind is str:
            total += len(member)
        elif kind is bool:
            total += 1
        elif kind is int:
            total += 8
        elif member is None:
            pass
        elif kind is FunctionType and not member.__dict__:
            total += EMPTY_SIZE
        else:
            if kind is frozenset:
                size = EMPTY_SIZE
                for item in member:
                    if type(item) is not str:
                        break
                    size += len(item)
                else:
                    total += size
                    continue
            seen = seen or {id(owner), id(attributes)}
            total += _estimate_size(member, 4, seen)
    return total


def _members_size(
    payload: Dict[Any, Any],
    priced: Dict[Any, int],
    counted: Container[Any] = (),
) -> int:
    """What the members of dict ``payload`` add to its price.

    Each member adds its key and its value, walked one level below the
    payload, except that a member in ``priced`` adds its key and the
    stated price of its value, and one in ``counted`` adds nothing (the
    caller has counted it already).
    """
    seen = None  # the walk's path set, made when first needed
    total = 0
    for key, value in payload.items():
        if key in counted:
            continue
        if type(key) is str:
            total += len(key)
        else:
            seen = seen or {id(payload)}
            total += _estimate_size(key, 1, seen)
        if key in priced:
            total += priced[key]
            continue
        kind = type(value)
        if kind is int:
            total += 8
        elif kind is str:
            total += len(value)
        else:
            seen = seen or {id(payload)}
            total += _estimate_size(value, 1, seen)
    return total


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
    """
    return _estimate_size(value, 0, set())


def _estimate_size(value: Any, depth: int, seen: Set[int]) -> int:
    # Exact-type fast paths for the bulk of every payload, here and
    # inlined in the container loops below (a reply's ``ts`` is 32
    # ints: one call, not 33); exact tuples, lists, frozensets and
    # dicts (a store cell, a payload) go straight to the container
    # rule.  ``bool`` is not ``int`` by identity and subclasses miss
    # too, so everything else still prices by the isinstance rules.
    kind = type(value)
    if kind is int or kind is float:
        return 8
    if kind is str:
        return len(value)
    if kind is tuple or kind is list or kind is frozenset:
        is_dict = False
    elif kind is dict:
        is_dict = True
    else:
        if value is None:
            return 0
        if isinstance(value, bool):
            return 1
        if isinstance(value, (int, float)):
            return 8
        if isinstance(value, str):
            return len(value)
        if isinstance(value, (list, tuple, set, frozenset)):
            is_dict = False
        elif isinstance(value, dict):
            is_dict = True
        elif (
            depth >= MAX_SIZE_DEPTH
            or id(value) in seen
            or not hasattr(value, "__dict__")
        ):
            return 8
        else:
            seen.add(id(value))
            total = _estimate_size(vars(value), depth + 1, seen)
            seen.discard(id(value))
            return total
    if depth >= MAX_SIZE_DEPTH or id(value) in seen:
        return 8
    seen.add(id(value))
    depth += 1
    total = EMPTY_SIZE
    if is_dict:
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
    else:
        for v in value:
            kind = type(v)
            if kind is int:
                total += 8
            elif kind is str:
                total += len(v)
            else:
                total += _estimate_size(v, depth, seen)
    seen.discard(id(value))
    return total


class NetworkStats:
    """Aggregate statistics of messages that entered the network.

    ``sent``/``by_kind``/``size_by_kind`` count *logical* sends (one
    per destination of a ``send()``/``send_to_all()``);
    ``dropped``/``duplicated`` count *physical* frames affected by
    fault injection on any path (data, broadcast copy, retransmission,
    acknowledgment); the remaining fields are the reliable-delivery
    shim's ledger.

    The numbers are plain ints (and one per-kind dict) that the
    single-threaded simulated network writes directly: counting a
    message takes no lock and no lookup.  The
    :class:`~repro.obs.MetricsRegistry` form (:attr:`registry`, which
    :meth:`snapshot` renders as one plain dict) is brought up to date
    only when it is read.
    """

    _SCALARS = (
        "sent",
        "delivered",
        "dropped",
        "duplicated",
        # Retransmission attempts by the reliable shim (physical
        # resends beyond each frame's first transmission).
        "retransmitted",
        # Acknowledgments that reached their sender.
        "acked",
        # Duplicate data frames suppressed at the receiver by
        # transfer id.
        "deduped",
        # Frames discarded because the destination endpoint was down.
        "lost_to_crash",
        # Frames discarded because the directed link was cut.
        "lost_to_partition",
        # Outstanding reliable transfers re-fired by a link heal.
        "flushed",
        "total_size",
    )

    def __init__(self) -> None:
        for name in self._SCALARS:
            setattr(self, name, 0)
        #: kind -> [logical sends, estimated payload units].
        self.kinds: Dict[str, List[int]] = {}
        self._registry = MetricsRegistry()

    def record_send(self, message: Message, count: int = 1) -> None:
        """Count ``count`` logical sends of ``message`` (one per
        destination; its size is computed once and cached)."""
        size = message.size * count
        self.sent += count
        self.total_size += size
        per_kind = self.kinds.get(message.kind)
        if per_kind is None:
            self.kinds[message.kind] = [count, size]
        else:
            per_kind[0] += count
            per_kind[1] += size

    @property
    def by_kind(self) -> Dict[str, int]:
        """Logical sends per message kind (a fresh dict)."""
        return {kind: row[0] for kind, row in sorted(self.kinds.items())}

    @property
    def size_by_kind(self) -> Dict[str, int]:
        """Estimated payload units per message kind (a fresh dict)."""
        return {kind: row[1] for kind, row in sorted(self.kinds.items())}

    @property
    def registry(self) -> MetricsRegistry:
        """The counters as ``net.*`` series of a metrics registry.

        One registry per network, updated to the current numbers on
        every read; the failure detector keeps its ``detector.*``
        counters in the same registry, so one snapshot shows both.
        """
        registry = self._registry

        def render(value: int, name: str, **labels: str) -> None:
            counter = registry.counter(name, **labels)
            counter.inc(value - counter.value)

        for name in self._SCALARS:
            render(getattr(self, name), f"net.{name}")
        for kind, (sends, size) in sorted(self.kinds.items()):
            render(sends, "net.sent_by_kind", kind=kind)
            render(size, "net.size_by_kind", kind=kind)
        return registry

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The registry's counters/gauges/histograms as a plain dict."""
        return self.registry.snapshot()


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


def _physical_knob(name: str) -> property:
    """A physical-layer fault setting of :class:`Network`.

    Reads like a plain attribute; assigning it (fault plans and tests
    do, mid-run) re-evaluates whether the fault stage of
    :meth:`Network._transmit` has anything to do.
    """
    slot = "_" + name

    def fget(self: "Network") -> Any:
        return getattr(self, slot)

    def fset(self: "Network", value: Any) -> None:
        setattr(self, slot, value)
        self._refresh_impaired()

    return property(fget, fset)


class Network:
    """A reordering point-to-point network with optional fault layer.

    Every message takes one path: :meth:`send` / :meth:`send_to_all`
    do the per-message work once, :meth:`_transmit` puts one frame per
    destination on the wire, :meth:`_deliver` hands it to the
    destination's handler.  The stages a configuration does not use
    are absent: no transfer ids, timers or acks without the reliable
    shim, no fault sampling on an unimpaired wire, no per-destination
    bookkeeping when neither the shim nor a tracer wants any.  A
    network that chooses deliveries itself (the exploring
    :class:`~repro.sim.explore.ControlledNetwork`) overrides
    :meth:`_transmit` alone.  The exception is a *held* frame
    (:class:`Holder`): on a clean wire it is sampled and accounted
    like a queued one but left unqueued, for its holder to land.

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

    Out-of-range settings (a probability outside [0, 1], a
    non-positive ``ack_timeout``, a backoff below 1, negative retries
    or jitter) raise :class:`~repro.errors.SimulationError`.
    """

    fifo = _physical_knob("fifo")
    drop_prob = _physical_knob("drop_prob")
    dup_prob = _physical_knob("dup_prob")
    #: Multiplier applied to every sampled latency; fault plans raise
    #: it temporarily to model congestion/delay spikes.
    delay_factor = _physical_knob("delay_factor")

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
        for ok, rule in (
            (0.0 <= drop_prob <= 1.0, f"drop_prob={drop_prob} in [0, 1]"),
            (0.0 <= dup_prob <= 1.0, f"dup_prob={dup_prob} in [0, 1]"),
            (ack_timeout > 0, f"ack_timeout={ack_timeout} > 0"),
            (backoff >= 1, f"backoff={backoff} >= 1"),
            (max_backoff >= 1, f"max_backoff={max_backoff} >= 1"),
            (max_retries >= 0, f"max_retries={max_retries} >= 0"),
            (retry_jitter >= 0, f"retry_jitter={retry_jitter} >= 0"),
        ):
            if not ok:
                raise SimulationError(f"network needs {rule}")
        self.sim = sim
        self.n = n
        self.latency = latency or FixedLatency(1.0)
        self.reliable = reliable
        self.ack_timeout = ack_timeout
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.max_retries = max_retries
        self.retry_jitter = retry_jitter
        self.stats = NetworkStats()
        self._rng = random.Random(seed)
        # Dedicated stream for retransmission jitter: timer behavior
        # stays identical however many frames the fault layer samples.
        self._retry_rng = random.Random((seed + 1) * 0x9E3779B1)
        #: Directed link cuts: ``(src, dst)`` pairs currently severed.
        self._cut: Set[Tuple[int, int]] = set()
        self._fifo = fifo
        self._drop_prob = drop_prob
        self._dup_prob = dup_prob
        self._delay_factor = 1.0
        self._refresh_impaired()
        #: Handler per pid; None until :meth:`register` attaches one.
        self._handlers: List[Optional[Handler]] = [None] * n
        #: Message kinds a layer claimed with :meth:`bind`.
        self._bound: Dict[str, KindHandler] = {}
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
        #: A network that picks its own deliveries holds nothing (see
        #: :meth:`Holder.hold`).
        self._queues_only = type(self)._transmit is not Network._transmit
        #: The held-frame store: its holders, whether any frame was
        #: held since the last switch, and the latest arrival of one.
        self._holders: List[Holder] = []
        self._holding = False
        self._latest = 0.0

    def _refresh_impaired(self) -> None:
        """Re-evaluate whether the fault stage of :meth:`_transmit` can
        touch a frame at all; called wherever one of its inputs changes."""
        self._impaired = bool(
            self._cut
            or self._drop_prob
            or self._dup_prob
            or self._fifo
            or self._delay_factor != 1.0
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, pid: int, handler: Handler) -> None:
        """Attach the message handler for endpoint ``pid``."""
        self._check_pid(pid)
        if self._handlers[pid] is not None:
            raise SimulationError(f"endpoint {pid} already registered")
        self._handlers[pid] = handler

    def bind(self, kind: str, handler: KindHandler) -> None:
        """Claim message ``kind`` for a layer below the endpoints.

        Every frame of that kind, whatever its destination, goes to
        ``handler(dst, src, message)`` instead of the destination's
        registered handler — the atomic broadcast and the failure
        detector take their own traffic here, so an endpoint's handler
        sees protocol messages only.
        """
        if kind in self._bound:
            raise SimulationError(f"message kind {kind!r} already bound")
        self._bound[kind] = handler

    def close(self) -> None:
        """Drop every handler, bound kind and holder: the layers above
        hold this network, so these are cycles through a finished run.
        The network delivers nothing afterwards."""
        self._handlers = [None] * self.n
        self._bound = {}
        for holder in self._holders:
            holder.arrive = None
        self._holders = []

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
        self._queue_held()
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
        self._refresh_impaired()

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
                self._refresh_impaired()
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
            self._transmit(src, (dst,), transfer.message, xfer)
            self._arm_timer(src, xfer, transfer)

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
        self._check_pid(dst)
        self._send(src, (dst,), message, reliable)

    def send_to_all(
        self,
        src: int,
        message: Message,
        *,
        include_self: bool = True,
        reliable: Optional[bool] = None,
    ) -> None:
        """Point-to-point send to every endpoint (not atomic broadcast!).

        This is the unordered "send to all processes" used by the
        Fig-6 query phase (actions A3/A4); total-order broadcast lives
        in :mod:`repro.abcast`.

        Exactly :meth:`send` to each endpoint in pid order (``src``
        itself skipped with ``include_self=False``), ``reliable``
        override included — same frames, same RNG draws, same events —
        with the per-message work (sender checks, statistics, payload
        sizing) done once instead of once per destination.
        """
        self._send(
            src,
            range(self.n)
            if include_self
            else [dst for dst in range(self.n) if dst != src],
            message,
            reliable,
        )

    def holder(
        self, arrive: Callable[[int, Message, Tuple[float, int]], None],
        dsts: Sequence[int], cursors: Optional[List[int]] = None,
    ) -> "Holder":
        """A new party holding frames to ``dsts`` (see :class:`Holder`)."""
        holder = Holder(self, arrive, dsts, cursors)
        self._holders.append(holder)
        return holder

    def land_held(self) -> None:
        """End of a run: a drained run lands every held frame and moves
        the clock on to the latest arrival, as queued frames would
        have; one stopped with events queued switches to them."""
        if self.sim.pending:
            self._queue_held()
            return
        self._queue_held((math.inf, 0))
        if self._latest > self.sim.now:
            self.sim.run(until=self._latest)

    def _queue_held(self, key: Optional[Tuple[float, int]] = None) -> None:
        """Switch to queued frames: land each held frame that has
        arrived by ``key`` (by now) and queue the rest at their keys."""
        if self._holding:
            self._holding = False
            for holder in self._holders:
                for tag, i in holder.land_arrived(key or self.sim.key):
                    holder._queue(tag, i)

    def _send(
        self,
        src: int,
        dsts: Sequence[int],
        message: Message,
        reliable: Optional[bool],
    ) -> None:
        self._check_pid(src)
        if src in self._down:
            raise ProcessCrashed(f"endpoint {src} sent while down")
        self.stats.record_send(message, len(dsts))
        tracer = get_tracer()
        shim = self.reliable if reliable is None else reliable
        if not (shim or tracer.enabled):
            self._transmit(src, dsts, message)
            return
        # Per-destination bookkeeping — the trace event, and under the
        # reliable shim a transfer id and its retransmission timer —
        # goes around the same call one destination at a time, in the
        # order a loop of single sends produces.
        for dst in dsts:
            if tracer.enabled:
                tracer.event("net.send", kind=message.kind, src=src, dst=dst)
            if not shim:
                self._transmit(src, (dst,), message)
                continue
            xfer = next(self._next_xfer)
            transfer = self._new_transfer(dst, message)
            self._outstanding[src][xfer] = transfer
            self._transmit(src, (dst,), message, xfer)
            self._arm_timer(src, xfer, transfer)

    # ------------------------------------------------------------------
    # Physical layer (fault injection lives here, for every frame)
    # ------------------------------------------------------------------

    def _transmit(
        self,
        src: int,
        dsts: Sequence[int],
        message: Optional[Message],
        xfer: Optional[int] = None,
    ) -> None:
        """Put one frame per destination on the wire out of ``src``.

        A frame is a data frame (``message``) or, with ``message``
        None, the acknowledgment of transfer ``xfer``; frames of the
        reliable shim carry their transfer id and travel one
        destination per call.  Each copy that survives the fault stage
        gets its own sampled latency and arrives at :meth:`_deliver`
        (acknowledgments at :meth:`_on_ack`).  Several destinations in
        one call are exactly that many calls in the same order.  This
        is the hook a network that picks its own delivery order
        overrides.
        """
        impaired = self._impaired
        sample = self.latency.sample
        rng = self._rng
        post = self.sim.post
        deliver = self._deliver
        for dst in dsts:
            copies = 1
            if impaired:
                copies = self._fault_stage(src, dst, message)
            while copies:
                copies -= 1
                delay = sample(rng, src, dst)
                if delay < 0:
                    raise SimulationError(
                        "latency model produced negative delay"
                    )
                if impaired:
                    delay *= self._delay_factor
                    if self._fifo:
                        now = self.sim.now
                        floor = self._last_delivery.get((src, dst), -1.0)
                        arrival = max(now + delay, floor + 1e-9)
                        self._last_delivery[(src, dst)] = arrival
                        delay = arrival - now
                # Three positional args when there is no transfer id:
                # the in-flight entry of a clean delivery stays as
                # small as a shim-less network needs.
                if xfer is None:
                    post(delay, deliver, src, dst, message)
                elif message is None:
                    post(delay, self._on_ack, dst, xfer)
                else:
                    post(delay, deliver, src, dst, message, xfer)

    def _fault_stage(
        self, src: int, dst: int, message: Optional[Message]
    ) -> int:
        """How many copies of a frame get onto the wire: 0 (the link
        is cut, or the frame is dropped), 1, or 2 (duplicated)."""
        if (src, dst) in self._cut:
            # A cut link loses the frame before it reaches the wire:
            # no drop/dup sampling, so partition windows do not shift
            # the fault layer's RNG stream.
            self.stats.lost_to_partition += 1
            event, copies = "net.partition_drop", 0
        elif self._drop_prob and self._rng.random() < self._drop_prob:
            self.stats.dropped += 1
            event, copies = "net.drop", 0
        elif self._dup_prob and self._rng.random() < self._dup_prob:
            self.stats.duplicated += 1
            event, copies = "net.dup", 2
        else:
            return 1
        tracer = get_tracer()
        if tracer.enabled:
            kind = "ack" if message is None else "data"
            tracer.event(event, kind=kind, src=src, dst=dst)
        return copies

    def _deliver(
        self,
        src: int,
        dst: int,
        message: Message,
        xfer: Optional[int] = None,
    ) -> None:
        """A data frame arrives: hand it to the layer bound to its kind,
        else to ``dst``'s handler."""
        if dst in self._down:
            self.stats.lost_to_crash += 1
            return
        if xfer is not None:
            # Reliable shim: acknowledge every copy (the first ack may
            # be lost), deliver only the first.
            self._transmit(dst, (src,), None, xfer)
            seen = self._seen[dst]
            if xfer in seen:
                self.stats.deduped += 1
                return
            seen.add(xfer)
        bound = self._bound.get(message.kind)
        handler = self._handlers[dst] if bound is None else bound
        if handler is None:
            raise SimulationError(
                f"message {message.kind!r} delivered to unregistered "
                f"endpoint {dst}"
            )
        self.stats.delivered += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "net.deliver", kind=message.kind, src=src, dst=dst
            )
        if bound is None:
            handler(src, message)
        else:
            bound(dst, src, message)

    # ------------------------------------------------------------------
    # Reliable shim internals
    # ------------------------------------------------------------------

    def _arm_timer(self, src: int, xfer: int, transfer: _Transfer) -> None:
        scale = min(self.backoff ** transfer.attempts, self.max_backoff)
        timeout = self.ack_timeout * scale
        # Desynchronizing jitter from the dedicated retry stream.
        timeout *= 1.0 + self.retry_jitter * self._retry_rng.random()
        transfer.timer = self.sim.schedule(
            timeout, self._on_timeout, src, xfer
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
        self._transmit(src, (transfer.dst,), transfer.message, xfer)
        self._arm_timer(src, xfer, transfer)

    def _on_ack(self, src: int, xfer: int) -> None:
        """An acknowledgment arrives back at the transfer's sender."""
        if src in self._down:
            self.stats.lost_to_crash += 1
            return
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


#: Where a held frame stands at a destination whose cursor has not
#: passed its row: held (unmarked), queued, or landed there early.
QUEUED, LANDED = 1, 2


class Holder:
    """One party's frames in the held-frame store: one row per message
    held, in tag order, sent to each of the party's destinations
    ``dsts`` (consecutive pids).  The frame of row ``tag`` to
    ``dsts[i]`` arrives at ``times[r][i]`` (``r = tag - base``), kernel
    seq ``first + i`` of ``frames[r] = (src, message, first)``.

    Every row below ``cursors[i]`` landed at ``dsts[i]``; ``marks[i]``
    holds the rows past it that are queued or landed there already.
    Rows below every cursor are dropped, so memory follows the slowest
    destination.  A party that moves the cursors itself (the
    sequencer's are its delivery cursors) passes them in; otherwise
    the holder moves them past the rows it lands.  Wherever the store
    lands one frame, it calls ``arrive(dst, message, key)``: what the
    frame does where it lands, at the point ``key``.
    """

    __slots__ = (
        "network", "arrive", "dsts", "start", "cursors", "marks", "base",
        "times", "frames", "bodies", "notes",
    )

    def __init__(
        self, network: Network, arrive: Callable[[int, Message, Any], None],
        dsts: Sequence[int], cursors: Optional[List[int]] = None,
    ) -> None:
        self.network, self.arrive, self.dsts = network, arrive, dsts
        self.start, self.base = dsts[0], 0
        self.cursors = [0] * len(dsts) if cursors is None else cursors
        self.marks: List[Dict[int, int]] = [{} for _ in dsts]
        #: The rows: arrival times, ``(src, message, first seq)``, the
        #: message's payload and the party's note.
        self.times, self.frames, self.bodies, self.notes = [], [], [], []

    def hold(
        self, src: int, message: Message, tag: Optional[int] = None,
        note: Any = None,
    ) -> bool:
        """Send ``message`` from ``src`` to every destination, held as
        the next row (numbered on from the first ``tag`` given) with
        ``note``: latencies sampled, sends counted and kernel seqs
        reserved as for queued frames, nothing queued.  While a tracer
        is on, an endpoint is down, the wire is impaired or runs the
        reliable shim, or the network picks its own deliveries, the
        held frames switch to queued ones and this one is sent queued:
        False (a numbered row stays, marked queued everywhere)."""
        network, times, dsts = self.network, self.times, self.dsts
        count = len(dsts)
        if (
            network._queues_only
            or network._impaired
            or network.reliable
            or network._down
            or get_tracer().enabled
        ):
            network._queue_held()
            network._send(src, dsts, message, None)
            if tag is None:
                return False
            row, first = [-math.inf] * count, None
        else:
            network.stats.record_send(message, count)
            sim, latency = network.sim, network.latency
            if count > 1:  # (a fan-out's times are packed)
                row = array("d", latency.arrivals(network._rng, src, dsts, sim.now))
                latest = max(row)
            else:
                delay = latency.sample(network._rng, src, self.start)
                if delay < 0:
                    raise SimulationError("latency model produced negative delay")
                latest = sim.now + delay
                row = [latest]
            first = sim.reserve(count)
            network._holding = True
            if latest > network._latest:
                network._latest = latest
        if not times and tag is not None:
            self.base = tag
        if first is None:
            for marks in self.marks:
                marks[self.base + len(times)] = QUEUED
        times.append(row)
        self.frames.append((src, message, first))
        self.bodies.append(message.payload)
        self.notes.append(note)
        return first is not None

    def land(
        self, dst: int, key: Tuple[float, int]
    ) -> Optional[Tuple[List[Any], List[Any]]]:
        """Land at ``dst`` the rows from its cursor that have arrived by
        ``key``, up to the first that has not or is marked there; they
        count as delivered.  Returns their payloads and notes (None if
        none): the caller moves the cursor past them."""
        i = dst - self.start
        times, marks = self.times, self.marks[i]
        r = k = self.cursors[i] - self.base
        stop = len(times) if r >= 0 else 0
        if marks and k < stop:
            cursor = r + self.base
            if min(marks) < cursor:
                for tag in [tag for tag in marks if tag < cursor]:
                    del marks[tag]  # (the cursor passed them)
            if marks:
                stop = min(stop, min(marks) - self.base)
        if k < stop:
            now, current = key
            while k < stop:
                time = times[k][i]
                if time > now or (
                    time == now and self.frames[k][2] + i > current
                ):
                    break
                k += 1
            if k > r:
                self.network.stats.delivered += k - r
                return self.bodies[r:k], self.notes[r:k]
        return None

    def land_arrived(self, key: Tuple[float, int]) -> List[Tuple[int, int]]:
        """Land every frame held here that has arrived by ``key``, in
        hold order, each through ``arrive``; return the ``(tag,
        index)`` of the others.  A holder lands a frame that comes
        early as its queued arrival would: the sequencer buffers it,
        and A5 keeps the freshest snapshot whatever the order."""
        later = []
        now, current = key
        cursors, marks, start = self.cursors, self.marks, self.start
        arrive, stats = self.arrive, self.network.stats
        count = len(cursors)
        tag, end = self.base, self.base + len(self.times)
        while tag < end:
            r = tag - self.base  # (an ``arrive`` may drop rows)
            if r >= 0:
                times = self.times[r]
                _src, message, first = self.frames[r]
                for i in range(count):
                    if tag < cursors[i] or tag in marks[i]:
                        continue  # (an ``arrive`` may land later ones)
                    time = times[i]
                    if time < now or (time == now and first + i <= current):
                        stats.delivered += 1
                        marks[i][tag] = LANDED
                        arrive(start + i, message, key)
                    else:
                        later.append((tag, i))
            tag += 1
        for i in range(count):
            self._advance(i)
        return later

    def queue_last(self, dst: int) -> None:
        """Queue the frame to ``dst`` that arrives there last of those
        held from its cursor, unless it is queued already: the one event
        ``dst`` needs to land them all.  Called right after a hold (that
        frame arrives after every one landed so far)."""
        i = dst - self.start
        cursor = max(self.cursors[i], self.base)
        column = list(map(itemgetter(i), self.times[cursor - self.base:]))
        # The latest key: of equal times, the later row's seq.
        tag = cursor + len(column) - 1 - column[::-1].index(max(column))
        if tag not in self.marks[i]:
            self._queue(tag, i)

    def trim(self) -> None:
        """Drop the rows that every destination landed."""
        drop = min(self.cursors) - self.base
        if drop > 0:
            del self.times[:drop], self.frames[:drop]
            del self.bodies[:drop], self.notes[:drop]
            self.base += drop

    def _advance(self, i: int) -> None:
        """Move ``dsts[i]``'s cursor past the rows landed there."""
        marks, cursor = self.marks[i], self.cursors[i]
        if marks.get(cursor) == LANDED:
            while marks.get(cursor) == LANDED:
                del marks[cursor]
                cursor += 1
            self.cursors[i] = cursor
            self.trim()

    def _queue(self, tag: int, i: int) -> None:
        self.marks[i][tag] = QUEUED
        r = tag - self.base
        self.network.sim.post_at(
            self.times[r][i], self.frames[r][2] + i, self._arrival, tag, i
        )

    def _arrival(self, tag: int, i: int) -> None:
        """A queued frame arrives: delivered as any frame, then landed."""
        src, message, _first = self.frames[tag - self.base]
        self.network._deliver(src, self.start + i, message)
        marks = self.marks[i]
        marks.pop(tag, None)
        if tag >= self.cursors[i]:
            marks[tag] = LANDED
            self._advance(i)
