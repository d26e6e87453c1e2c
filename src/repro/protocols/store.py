"""Replicated object store with per-object version vectors (S12).

The correctness arguments of Section 5 revolve around a timestamp
``ts`` — "a vector of integers with one entry for every object ...
Intuitively, it represents the version of an object" — that is
incremented whenever a write is applied (action A2: ``forall x in
wobjects(a): ts[x]++``).  :class:`VersionedStore` implements exactly
that, and additionally tracks *which m-operation* produced each
version, which is how protocol runs export an exact reads-from
relation (D 5.1/D 5.6: ``a`` reads ``x`` from ``b`` iff
``ts(finish(b))[x] = ts(start(a))[x]``).

m-operations are *programs*: callables executed against an
:class:`ObjectView`.  This honours Section 5's observation that "the
set of objects read and written by an m-operation may actually depend
on the values read during its execution" — e.g. DCAS writes only when
both comparisons succeed.

Running a program against a replica is two jobs.  **Applying** it —
access checks, value mutation, version/writer bump — is what action A2
asks of *every* process for *every* delivered update
(:meth:`VersionedStore.apply`).  **Observing** it — the operation log,
the versions of its external reads, ``ts(start)``/``ts(finish)``,
bundled as an :class:`ExecutionRecord` — is what the history recorder
needs, and only from the process that issued the m-operation and
generates its response (:meth:`VersionedStore.execute`, which is apply
plus observe).  Both run the program body through an
:class:`ObjectView` — applying on the replica's one applying view,
observing on a view of its own — and bump versions in one place.

**In step.**  Replicas that applied the same first k updates of one
total order hold the same state, kept once per position in a
:class:`StateLog`: the first store to apply an update publishes its
result, every other store *in step* adopts it, and a store that does
anything else leaves step for good, so a replica that diverged keeps
diverging.

**Exporting** a replica — ``(myX, myts)``, what action A4 of Figure 6
sends in answer to every query — costs what was written since the
last export, not the size of the store: see :class:`VersionedStore`
on the replica image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.operation import INIT_UID, Operation, read, write
from repro.errors import ProtocolError
from repro.sim.network import EMPTY_SIZE, attributes_size, entry_size

#: The body of an m-operation program: runs reads/writes on a view and
#: returns the m-operation's result value.
ProgramBody = Callable[["ObjectView"], Any]

#: Hash-consed canonical object tuples: every replica of the same
#: object set shares one tuple (1000 replicas × 10k names would
#: otherwise each carry their own copy).
_INTERNED_OBJECTS: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


def intern_objects(objects: Tuple[str, ...]) -> Tuple[str, ...]:
    """Return the canonical shared instance of an object-name tuple."""
    interned = _INTERNED_OBJECTS.get(objects)
    if interned is None:
        _INTERNED_OBJECTS[objects] = objects
        return objects
    return interned


_set = object.__setattr__


@dataclass(frozen=True, init=False)
class MProgram:
    """An m-operation as issued by a client (a deterministic procedure).

    Attributes:
        name: label used in histories and diagnostics.
        body: the procedure; receives an :class:`ObjectView`.
        may_write: conservative update classification.  Section 5:
            "We take a conservative approach and treat an m-operation
            as an update m-operation if it can potentially write to
            some object."  Programs with ``may_write=False`` must
            never call :meth:`ObjectView.write`; this is enforced.
        static_objects: optionally, the set of objects the program is
            known to touch.  Enables the Section 5.2 closing
            optimization (query replies carrying only the relevant
            objects); when set, access outside the set is an error.

    A program states its wire price, ``price``, computed once when it
    is built: what :func:`~repro.sim.network.estimate_size` charges
    for it as one entry of a payload member, which is where an
    ``abc-req`` carries an update's program.  The price lives in a
    slot, out of ``vars(program)``, the dict the walk prices, and the
    walk stays the definition: a message that states no price (an
    ``abc-log`` entry, a program nested near the walk's depth cap)
    walks the program as before.

    The body must be deterministic in the values it reads (§2.1): runs
    that read the same values make the same accesses, writes and
    result.  Stored values are immutable: a body mutates none it reads
    or writes.  In-step replicas adopt the state one of them computed
    on both counts (:class:`StateLog`).
    """

    __slots__ = ("__dict__", "price")

    name: str
    body: ProgramBody
    may_write: bool
    static_objects: Optional[FrozenSet[str]] = None

    def __init__(
        self,
        name: str,
        body: ProgramBody,
        may_write: bool,
        static_objects: Optional[Iterable[str]] = None,
    ) -> None:
        if static_objects is not None:
            static_objects = frozenset(static_objects)
        fields = {
            "name": name,
            "body": body,
            "may_write": may_write,
            "static_objects": static_objects,
        }
        # Set one by one and priced from ``fields``, so that Python
        # keeps them compactly and never builds the program's
        # ``__dict__`` unless something asks for it.
        for field, value in fields.items():
            _set(self, field, value)
        _set(self, "price", attributes_size(self, fields))

    def __reduce__(self) -> Tuple[Any, ...]:
        # Copies and pickles rebuild the price from the fields.
        return (
            MProgram,
            (self.name, self.body, self.may_write, self.static_objects),
        )


class ObjectView:
    """The interface a program uses to access shared objects.

    Every view *applies*: it checks each access (known object, inside
    ``static_objects``, writes only from a ``may_write`` program),
    mutates the store's values and collects the written-object set.
    A view created with ``observe=True`` additionally *observes*: it
    logs every operation performed and the (version, writer) of each
    external read, so the issuer can reconstruct the m-operation's
    externally visible behaviour and reads-from entries afterwards.

    Each replica keeps one view that only applies, made with its
    store and re-bound to every delivered update by
    :meth:`VersionedStore.apply`; :meth:`VersionedStore.execute` makes
    an observing view per m-operation.
    """

    __slots__ = (
        "_store",
        "_values",
        "_program",
        "_allowed",
        "_written",
        "ops",
        "read_versions",
    )

    def __init__(
        self,
        store: "VersionedStore",
        program: Optional[MProgram],
        *,
        observe: bool,
    ) -> None:
        self._store = store
        # The value dict this run reads and writes, bound by the run
        # (see ``VersionedStore._run``): going through the store's
        # accessor methods for each operation dominated profiles of
        # the 1000-process workload.
        self._values = store._values
        self._program = program
        self._allowed = None if program is None else program.static_objects
        self._written: Set[str] = set()
        #: the operation log; ``None`` when nobody observes this run.
        self.ops: Optional[List[Operation]] = [] if observe else None
        #: obj -> (version, writer uid) for each *external* read
        #: (filled only when observing).
        self.read_versions: Dict[str, Tuple[int, int]] = {}

    def _refuse(self, obj: str) -> None:
        """Raise the error of an access that failed the checks."""
        if obj not in self._values:
            raise ProtocolError(f"unknown shared object {obj!r}")
        raise ProtocolError(
            f"program {self._program.name!r} accessed {obj!r} outside "
            f"its declared static_objects set"
        )

    def read(self, obj: str) -> Any:
        """Read the current value of ``obj``."""
        values = self._values
        allowed = self._allowed
        if obj not in values or (allowed is not None and obj not in allowed):
            self._refuse(obj)
        value = values[obj]
        ops = self.ops
        if ops is not None:
            ops.append(read(obj, value))
            if obj not in self._written and obj not in self.read_versions:
                store = self._store
                self.read_versions[obj] = (
                    store._versions[obj],
                    store._writers[obj],
                )
        return value

    def write(self, obj: str, value: Any) -> None:
        """Write ``value`` to ``obj`` (updates the view's store)."""
        values = self._values
        allowed = self._allowed
        if obj not in values or (allowed is not None and obj not in allowed):
            self._refuse(obj)
        if not self._program.may_write:
            raise ProtocolError(
                f"program {self._program.name!r} declared may_write=False "
                f"but wrote to {obj!r}"
            )
        values[obj] = value
        self._written.add(obj)
        ops = self.ops
        if ops is not None:
            ops.append(write(obj, value))


class ExecutionRecord:
    """Everything observable about one program execution.

    Built by :meth:`VersionedStore.execute`, once per m-operation, at
    the process that issued it.

    Attributes:
        result: the program's return value.
        ops: the operation sequence performed.
        reads_from: obj -> writer uid, for external reads only.
        read_versions: obj -> version read, for external reads.
        wobjects: objects written.
        start_ts: copy of the store's version vector before
            execution (``ts(start)``, D 5.4).
        finish_ts: the vector after execution (``ts(finish)``, D 5.5);
            the same dict as ``start_ts`` when nothing was written.
    """

    __slots__ = (
        "result",
        "ops",
        "reads_from",
        "read_versions",
        "wobjects",
        "start_ts",
        "finish_ts",
    )

    def __init__(
        self,
        result: Any,
        ops: Tuple[Operation, ...],
        reads_from: Dict[str, int],
        read_versions: Dict[str, int],
        wobjects: FrozenSet[str],
        start_ts: Mapping[str, int],
        finish_ts: Mapping[str, int],
    ) -> None:
        self.result = result
        self.ops = ops
        self.reads_from = reads_from
        self.read_versions = read_versions
        self.wobjects = wobjects
        self.start_ts = start_ts
        self.finish_ts = finish_ts


#: One object's exported form: ``(value, version, writer uid)``.
Cell = Tuple[Any, int, int]

#: What the network charges a cell besides its name and value, when
#: its version and writer are ints: an empty tuple plus two ints.
_PLAIN_CELL = EMPTY_SIZE + 8 + 8


class _ReplicaImage:
    """A store's full export, kept between exports (see ``export``).

    Attributes:
        cells: obj -> cell as of the last export, canonical order;
            replaced, never changed, once exported.
        sizes: obj -> :func:`~repro.sim.network.entry_size` of its cell.
        size: what the network charges for ``cells`` as a member of
            a message payload.
        ts: the version vector as of the last export.
        ts_size: what it charges for ``ts`` there, kept entry by entry
            like ``size``.
        stale: objects written since the last export; at first, all.
    """

    __slots__ = ("cells", "sizes", "size", "ts", "ts_size", "stale")

    def __init__(self, objects: Tuple[str, ...]) -> None:
        self.cells: Dict[str, Cell] = dict.fromkeys(objects)
        self.sizes: Dict[str, int] = dict.fromkeys(objects, 0)
        self.size = EMPTY_SIZE
        self.ts: Tuple[int, ...] = ()
        self.ts_size = EMPTY_SIZE
        self.stale: Set[str] = set(objects)


class StateLog:
    """The states that in-step stores share, one per update position.

    Position 0 is the initial state, :attr:`origin`; position k is the
    state after the k-th update applied in step.  Position k sits at
    index ``k - base`` of four lists: the update's uid and program, its
    state ``(values, versions, writers, written)``, never written once
    published, and how many stores hold it.  Stores only move forward,
    so the positions below the lowest one held are dropped.
    """

    __slots__ = ("objects", "origin", "base", "uids", "programs", "states",
                 "holders")

    def __init__(self, initial_values: Mapping[str, Any]) -> None:
        self.objects = objects = intern_objects(tuple(sorted(initial_values)))
        zeros, inits = dict.fromkeys(objects, 0), dict.fromkeys(objects, INIT_UID)
        self.origin = (dict(initial_values), zeros, inits)
        self.base = 0
        self.uids: List[int] = [INIT_UID]
        self.programs: List[Optional[MProgram]] = [None]
        self.states: List[Tuple[Any, ...]] = [self.origin + ((),)]
        self.holders: List[int] = [0]

    def holds(self, index: int, uid: int, program: MProgram) -> bool:
        """Whether the position at ``index`` is this update's."""
        if not 0 <= index < len(self.uids) or self.uids[index] != uid:
            return False
        published = self.programs[index]
        return published is program or published == program

    def release(self, position: int) -> None:
        """One store no longer holds ``position``."""
        holders = self.holders
        holders[position - self.base] -= 1
        if holders[0]:
            return
        drop = 1
        while drop < len(holders) and not holders[drop]:
            drop += 1
        del self.uids[:drop], self.programs[:drop]
        del self.states[:drop], holders[:drop]
        self.base += drop


class VersionedStore:
    """One replica's copy of all shared objects plus the ``ts`` vector.

    Tracks, per object: current value, version number (number of
    writes applied), and the uid of the m-operation that produced the
    current version (``INIT_UID`` for the initial value).  The version
    map is kept in the canonical (sorted) object order, so the version
    vector is ``tuple(_versions.values())``.

    A replica that answers Figure 6 queries (action A4) also keeps its
    *image*: the exported form of every object and the version vector,
    together with what the network charges for each, brought up to
    date at export time for the objects written since the previous
    export.  A reply is then a C-level copy whose price
    (:meth:`export_priced`) is known whatever the size of the store.
    The image is created by the first full :meth:`export` and the
    write path does nothing for a store that has none: every Figure 4
    replica applies every update and never exports.  Anything other
    than a completed program or :meth:`apply_writes` (:meth:`reset`,
    :meth:`install`, a program that raised half-way) simply drops the
    image.

    A store *in step* at position k of its :class:`StateLog` holds that
    position's dicts themselves and never writes them.  A cluster's
    stores share its ``log`` (built from the same initial values).

    Written values are treated as immutable once written — the
    assumption :meth:`export` has always made by aliasing them into
    snapshots.  A value mutated in place afterwards shows through
    every snapshot that holds it, and is priced as it was when written.
    """

    def __init__(
        self, initial_values: Mapping[str, Any], log: Optional[StateLog] = None
    ) -> None:
        self._log = log = StateLog(initial_values) if log is None else log
        self._objects: Tuple[str, ...] = log.objects
        self._values, self._versions, self._writers = log.origin
        self._image: Optional[_ReplicaImage] = None
        #: The position this store is in step at; None once it left.
        self._at: Optional[int] = 0
        #: Whether it holds ``_at`` in the log (a reset store does not).
        self._held = True
        log.holders[0] += 1  # (a store joins its log before it moves)

    #: The view every delivered update runs on (see :meth:`apply`),
    #: made by the first one: a store that only executes needs none.
    _applier: Optional[ObjectView] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def objects(self) -> Tuple[str, ...]:
        """All object names, in the canonical (sorted) order."""
        return self._objects

    def value_of(self, obj: str) -> Any:
        return self._values[obj]

    def version_of(self, obj: str) -> int:
        return self._versions[obj]

    def writer_of(self, obj: str) -> int:
        return self._writers[obj]

    def ts_vector(self) -> Tuple[int, ...]:
        """The version vector in canonical object order.

        Timestamps are compared lexicographically over this order in
        the Fig-6 query phase (action A5).
        """
        return tuple(self._versions.values())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def apply(self, program: MProgram, mop_uid: int) -> None:
        """Run a program against this replica for its effects only.

        Action A2 as every process performs it on every delivered
        update: the program body runs on this replica's state, and
        then — per P 5.17/P 5.28 — the version of every written object
        is incremented by one and its writer recorded as ``mop_uid``.
        Nothing is logged: use it wherever the caller would discard
        :meth:`execute`'s record.

        A store in step at k whose log holds this update at k+1 adopts
        that position's state instead: the body would read the very
        objects it read there.  Otherwise the body runs on the one
        applying view, bound here to the program.
        """
        if self._at is not None:
            index = self._at + 1 - self._log.base
            if self._log.holds(index, mop_uid, program):
                self._adopt(index)
                return
        view = self._applier
        if view is None:
            view = self._applier = ObjectView(self, None, observe=False)
        view._program = program
        view._allowed = program.static_objects
        view._written.clear()
        self._run(view, mop_uid)

    def apply_run(self, programs: List[MProgram], uids: List[int]) -> None:
        """:meth:`apply` each program in turn under its uid: in step,
        where the log holds them all, adopt the last in one step (two
        list compares in C)."""
        at = self._at
        if at is not None and at >= self._log.base - 1:
            log = self._log
            start = at + 1 - log.base
            stop = start + len(uids)
            if log.uids[start:stop] == uids and log.programs[start:stop] == programs:
                self._adopt(stop - 1)
                return
        for program, uid in zip(programs, uids):
            self.apply(program, uid)

    def _run(self, view: ObjectView, mop_uid: int) -> Any:
        """Run the view's program here; bump what it wrote.

        In step at k, a program that may write runs on a private copy:
        published as position k+1 if the log ends at k, dropped if k+1
        holds this update, else kept as the store's own, out of step.
        """
        program = view._program
        at = self._at
        private = at is not None and program.may_write
        values = view._values = dict(self._values) if private else self._values
        try:
            result = program.body(view)
        except BaseException:
            # Values it wrote before raising stay written, unversioned.
            self._image = None
            if private:
                self._own()
                self._values = values
            raise
        written = view._written
        if private:
            log = self._log
            index = at + 1 - log.base
            if index == len(log.uids):
                versions, writers = self._versions, self._writers
                if written:
                    versions, writers = dict(versions), dict(writers)
                    for obj in written:
                        versions[obj] += 1
                        writers[obj] = mop_uid
                else:
                    values = self._values
                log.uids.append(mop_uid)
                log.programs.append(program)
                log.states.append((values, versions, writers, tuple(written)))
                log.holders.append(0)
            if log.holds(index, mop_uid, program):
                self._adopt(index)
                return result
            self._own()
            self._values = values
        versions, writers = self._versions, self._writers
        for obj in written:
            versions[obj] += 1
            writers[obj] = mop_uid
        if self._image is not None:
            self._image.stale.update(written)
        return result

    def _adopt(self, index: int) -> None:
        """Step to the log's position at ``index``, holding its dicts."""
        log = self._log
        if self._image is not None:
            for state in log.states[self._at + 1 - log.base : index + 1]:
                self._image.stale.update(state[3])
        self._values, self._versions, self._writers, _ = log.states[index]
        log.holders[index] += 1
        left, self._at = self._at, log.base + index
        if self._held:
            log.release(left)
        self._held = True

    def _release(self, at: Optional[int]) -> None:
        """Move to position ``at`` (None: out of step), holding none."""
        if self._held:
            self._log.release(self._at)
        self._held = False
        self._at = at

    def _own(self) -> None:
        """Leave step for good, on copies of the dicts it held."""
        if self._at is None:
            return
        self._release(None)
        self._values = dict(self._values)
        self._versions = dict(self._versions)
        self._writers = dict(self._writers)

    def execute(self, program: MProgram, mop_uid: int) -> ExecutionRecord:
        """:meth:`apply` the program and observe what it did.

        What the issuer of an m-operation needs to answer it and to
        record it (actions A2 at the issuer, A3/A6 for queries): the
        same run as :meth:`apply`, on an observing view, bracketed by
        copies of the version vector.  Records are built once per
        m-operation, so the copies are plain dicts.
        """
        start_ts = dict(self._versions)
        view = ObjectView(self, program, observe=True)
        result = self._run(view, mop_uid)
        reads_from: Dict[str, int] = {}
        read_versions: Dict[str, int] = {}
        for obj, (version, writer) in view.read_versions.items():
            reads_from[obj] = writer
            read_versions[obj] = version
        return ExecutionRecord(
            result=result,
            ops=tuple(view.ops),
            reads_from=reads_from,
            read_versions=read_versions,
            wobjects=frozenset(view._written),
            start_ts=start_ts,
            finish_ts=dict(self._versions) if view._written else start_ts,
        )

    def apply_writes(
        self, values: Mapping[str, Any], mop_uid: int
    ) -> None:
        """Apply a remote m-operation's *effects* (written values).

        Used by protocols without a total update order (e.g. causal
        replication), where re-executing the program on a diverged
        replica could compute different values: the issuer ships the
        values it wrote, and remotes install them verbatim — one
        version bump per object, writer attribution to ``mop_uid``.
        Names are all checked before any write; the store leaves step.
        """
        unknown = sorted(values.keys() - self._versions.keys())
        if unknown:
            raise ProtocolError(f"unknown shared object {unknown[0]!r}")
        self._own()
        image = self._image
        for obj in sorted(values):
            self._values[obj] = values[obj]
            self._versions[obj] += 1
            self._writers[obj] = mop_uid
            if image is not None:
                image.stale.add(obj)

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Wipe the replica back to the initial values (a crash).

        Versions return to 0 and writers to ``INIT_UID`` (in step at
        position 0, holding none); the replica is then rebuilt either
        by replaying the totally-ordered update log from the start or
        by :meth:`install`-ing a peer snapshot.
        """
        self._release(0)
        self._values, self._versions, self._writers = self._log.origin
        self._image = None

    def install(self, snapshot: Mapping[str, Cell]) -> None:
        """Adopt a peer's exported state wholesale (snapshot recovery).

        The snapshot must cover every object (a full :meth:`export`);
        partial snapshots would leave stale versions behind.  Names
        are all checked before any write; the store leaves step.
        """
        missing = set(self._objects) - set(snapshot)
        if missing:
            raise ProtocolError(
                f"snapshot is missing objects {sorted(missing)}"
            )
        for obj in snapshot:
            if obj not in self._versions:
                raise ProtocolError(f"unknown shared object {obj!r}")
        self._own()
        self._image = None
        for obj, (value, version, writer) in snapshot.items():
            self._values[obj] = value
            self._versions[obj] = version
            self._writers[obj] = writer

    # ------------------------------------------------------------------
    # Replication helpers
    # ------------------------------------------------------------------

    def export(
        self, objects: Optional[FrozenSet[str]] = None
    ) -> Dict[str, Cell]:
        """Snapshot ``obj -> (value, version, writer)`` for a query reply.

        ``objects=None`` exports the whole store (the literal protocol
        of Figure 6) as a copy of the replica image; only the cells of
        objects written since the previous full export are rebuilt
        and re-priced.  A set exports only those objects (the Section
        5.2 optimization).  Either way the caller owns the returned
        dict and later writes do not show in it.
        """
        if objects is None:
            return dict(self._refreshed_image().cells)
        values = self._values
        versions = self._versions
        writers = self._writers
        return {
            obj: (values[obj], versions[obj], writers[obj])
            for obj in sorted(objects)
        }

    def export_priced(
        self,
    ) -> Tuple[Dict[str, Cell], int, Tuple[int, ...], int]:
        """``(snapshot, its price, ts, its price)`` for a full A4 reply.

        The full :meth:`export` and :meth:`ts_vector`, each with what
        the network charges for it as a member of a message payload,
        read off the replica image: the message that carries them
        states both prices instead of walking them.  The snapshot is
        the image's own cell dict, shared and read-only: a write
        after it makes the next export build a new one.
        """
        image = self._refreshed_image()
        return image.cells, image.size, image.ts, image.ts_size

    def _refreshed_image(self) -> _ReplicaImage:
        """The replica image, its stale cells rebuilt and re-priced."""
        image = self._image
        if image is None:
            image = self._image = _ReplicaImage(self._objects)
        if image.stale:
            values = self._values
            versions = self._versions
            writers = self._writers
            # A new dict: earlier exports share the old one.
            cells = image.cells = dict(image.cells)
            sizes = image.sizes
            size = image.size
            ts_size = image.ts_size
            seen: Set[int] = set()
            for obj in image.stale:
                old = cells[obj]
                value, version, writer = cell = cells[obj] = (
                    values[obj], versions[obj], writers[obj]
                )
                kind = type(value)
                if (
                    (kind is int or kind is str)
                    and type(obj) is str
                    and type(version) is int
                    and type(writer) is int
                ):
                    # What ``entry_size`` charges a cell of plain ints
                    # and strings under a name, without the walk.
                    entry = _PLAIN_CELL + len(obj) + (
                        8 if kind is int else len(value)
                    )
                else:
                    entry = entry_size(seen, obj, cell)
                size += entry - sizes[obj]
                sizes[obj] = entry
                if old is None:
                    ts_size += entry_size(seen, version)
                elif type(version) is not int or type(old[1]) is not int:
                    # (one int version for another leaves the price)
                    ts_size += entry_size(seen, version) - entry_size(
                        seen, old[1]
                    )
            image.size = size
            image.ts_size = ts_size
            image.stale.clear()
            image.ts = self.ts_vector()
        return image

    @classmethod
    def from_export(cls, snapshot: Mapping[str, Cell]) -> "VersionedStore":
        """Rebuild a store (restricted to the exported objects).

        It starts out of step, on dicts of its own, with no log: it
        cannot be :meth:`reset`.
        """
        store = cls.__new__(cls)
        store._log, store._at, store._held, store._image = None, None, False, None
        store._objects = objects = intern_objects(tuple(sorted(snapshot)))
        values, versions, writers = {}, {}, {}
        for obj in objects:
            values[obj], versions[obj], writers[obj] = snapshot[obj]
        store._values, store._versions, store._writers = values, versions, writers
        return store

    def lex_ts(self, objects: Optional[FrozenSet[str]] = None) -> Tuple[int, ...]:
        """Version vector restricted to ``objects`` (canonical order)."""
        if objects is None:
            return self.ts_vector()
        versions = self._versions
        return tuple([versions[obj] for obj in sorted(objects)])
