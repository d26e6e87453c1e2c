"""Workload constraint prover: static OO-/WW-/WO-certificates.

Theorem 7 makes verification polynomial *when the history satisfies
the OO- or WW-constraint* (D 4.8/4.9) — but the checker pipeline
discovers that dynamically, per history, by scanning the transitive
closure.  This module proves it **up front**.  Every proof reads one
:class:`Footprint` per process — which updates it issues, which
objects it touches and which it writes — taken either from a
workload's program profiles or from a concrete history, and one table
of rules, :data:`RULES`, tried strongest first:

* no process updates: no pair of client m-operations conflicts (D 4.1
  needs a write), so the OO-constraint holds vacuously — rule
  ``read-only``;
* at most one process updates: its updates are totally ordered by
  process order (and the initial m-operation precedes everything), so
  the WW-constraint (D 4.9) holds under any of the paper's base
  orders — rule ``single-updater``;
* every object is touched by one process only: every conflict lies
  within a single process, so the OO-constraint holds — rule
  ``object-partitioned``;
* every update is routed through atomic broadcast (the Fig-4/Fig-6
  protocols) and the delivery chain is fed back to the checker as
  ``extra_pairs`` (the ``~ww`` order, D 5.3): WW-constrained by
  construction — rule ``total-update-order``;
* disjoint per-process *write* sets alone certify only the weaker
  WO-constraint (D 4.10) — recorded for diagnostics, but WO does not
  unlock Theorem 7, so the checker ignores it — rule
  ``disjoint-writers``.

A successful proof is a :class:`ConstraintCertificate`.  The checker
(:func:`repro.core.consistency.check_condition` with
``certificate=``) calls :meth:`ConstraintCertificate.chain_for`, which
re-evaluates the certified rule on the concrete history's footprints
in O(n) — never the quadratic closure scan of
:func:`repro.core.constraints.satisfies_ww` /
:func:`~repro.core.constraints.satisfies_oo` — and returns the update
chain the Theorem-7 legality scan walks.  When no rule applies the
prover raises :class:`~repro.errors.CertificationRefused`; refusal
means "fall back to the dynamic phase", not "the constraint fails".
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.history import History
from repro.core.index import HistoryIndex
from repro.core.operation import MOperation, read, write
from repro.errors import CertificationRefused, InvalidCertificate

#: Constraint names a certificate can claim.
CONSTRAINTS = ("ww", "oo", "wo")

#: Constraints that unlock the Theorem-7 legality-only path.
THEOREM7_CONSTRAINTS = ("ww", "oo")

#: Where a process first does something — ``(m-operation, object)``
#: indexes in listing order for a history, ``(process, program)`` for
#: a workload.  Only ever compared, to name the first clash.
Position = Tuple[int, int]


@dataclass(frozen=True)
class ProgramProfile:
    """The statically known footprint of one m-operation program.

    Built from :class:`~repro.protocols.store.MProgram` metadata: the
    conservative update classification (Section 5's ``may_write``) and
    the declared ``static_objects`` set (``None`` when the program did
    not declare one — the prover treats that as "may touch anything").
    """

    name: str
    may_write: bool
    objects: Optional[FrozenSet[str]] = None

    @classmethod
    def of(cls, program) -> "ProgramProfile":
        return cls(
            name=program.name,
            may_write=program.may_write,
            objects=program.static_objects,
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """A declarative workload: per-process program profiles + sync mode.

    ``sync="total-update-order"`` records the caller's promise that the
    run's total update delivery order will be passed to the checker as
    ``extra_pairs`` (how every abcast protocol run is verified); the
    resulting certificate *requires* that chain to be bound before use.
    """

    processes: Tuple[Tuple[ProgramProfile, ...], ...]
    sync: str = "none"

    @classmethod
    def of_workloads(
        cls, workloads: Sequence[Sequence], *, sync: str = "none"
    ) -> "WorkloadSpec":
        return cls(
            processes=tuple(
                tuple(ProgramProfile.of(p) for p in programs)
                for programs in workloads
            ),
            sync=sync,
        )


# ----------------------------------------------------------------------
# Footprints: what each process does
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Footprint:
    """What one process does, each item mapped to where it first does so.

    Attributes:
        updates: its update m-operations (uids) or update programs
            (indexes), in issue order.
        objects: the objects it touches; None when one of its programs
            declares no ``static_objects``.
        writes: the objects its updates write; None likewise.
    """

    updates: Mapping[int, Position]
    objects: Optional[Mapping[str, Position]]
    writes: Optional[Mapping[str, Position]]


#: pid -> footprint, in pid order.
Footprints = Dict[int, Footprint]


def spec_footprints(spec: WorkloadSpec) -> Footprints:
    """Per-process footprints of a workload's program profiles."""
    footprints: Footprints = {}
    for pid, programs in enumerate(spec.processes):
        updates: Dict[int, Position] = {}
        objects: Dict[str, Position] = {}
        writes: Dict[str, Position] = {}
        for k, profile in enumerate(programs):
            if profile.may_write:
                updates[k] = (pid, k)
            for obj in profile.objects or ():
                objects.setdefault(obj, (pid, k))
                if profile.may_write:
                    writes.setdefault(obj, (pid, k))
        known = all(p.objects is not None for p in programs)
        footprints[pid] = Footprint(
            updates, objects if known else None, writes if known else None
        )
    return footprints


def history_footprints(history: History) -> Footprints:
    """Per-process footprints of a concrete history, in one pass."""
    seen: Dict[int, Tuple[Dict, Dict, Dict]] = {}
    for i, mop in enumerate(history.mops):
        updates, objects, writes = seen.get(mop.process) or seen.setdefault(
            mop.process, ({}, {}, {})
        )
        for j, obj in enumerate(mop.objects):
            if obj not in objects:
                objects[obj] = (i, j)
        wobjects = mop.wobjects
        if wobjects:
            updates[mop.uid] = (i, 0)
            for j, obj in enumerate(wobjects):
                if obj not in writes:
                    writes[obj] = (i, j)
    # Issue order (H|P) is timestamp order in a timed history, which
    # its listing need not follow.
    chains = HistoryIndex.of(history).process_chains
    return {
        pid: Footprint(
            {uid: updates[uid] for uid in chains[pid] if uid in updates},
            objects,
            writes,
        )
        for pid, (updates, objects, writes) in sorted(seen.items())
    }


def _first_clash(
    owned: Mapping[int, Mapping[str, Position]]
) -> Optional[Tuple[str, int, int]]:
    """The first access to an object by a second process, as
    ``(object, first process, second process)``, or None."""
    owner: Dict[str, int] = {}
    for _at, pid, obj in sorted(
        (at, pid, obj)
        for pid, objects in owned.items()
        for obj, at in objects.items()
    ):
        if owner.setdefault(obj, pid) != pid:
            return obj, owner[obj], pid
    return None


# ----------------------------------------------------------------------
# The rule table
# ----------------------------------------------------------------------

#: What ``total-update-order`` leans on: a workload's sync promise,
#: or a history's bound chain and the checker's extra_pairs.
Order = Union[
    None, bool, Tuple[Optional[Tuple[int, ...]], Tuple[Tuple[int, int], ...]]
]

#: A rule's test: None when it holds on the footprints, else why not.
Test = Callable[[Footprints, Order], Optional[str]]


def _read_only(footprints: Footprints, order: Order) -> Optional[str]:
    count = sum(len(fp.updates) for fp in footprints.values())
    return f"history has {count} update m-operation(s)" if count else None


def _single_updater(footprints: Footprints, order: Order) -> Optional[str]:
    owners = [pid for pid, fp in footprints.items() if fp.updates]
    if len(owners) > 1:
        return f"updates span processes {owners}"
    return None


def _partitioned(footprints: Footprints, attr: str, verb: str) -> Optional[str]:
    owned = {pid: getattr(fp, attr) for pid, fp in footprints.items()}
    if any(objects is None for objects in owned.values()):
        return "a program declares no static_objects"
    clash = _first_clash(owned)
    if clash is None:
        return None
    obj, first, second = clash
    return f"object {obj!r} is {verb} by P{first} and P{second}"


def _total_update_order(
    footprints: Footprints, order: Order
) -> Optional[str]:
    if isinstance(order, bool):
        return None if order else "no total update order was promised"
    chain, extra_pairs = order
    if chain is None:
        return (
            "total-update-order certificate used without a bound "
            "delivery chain; call .with_chain(...)"
        )
    chain_set = set(chain)
    if len(chain_set) != len(chain):
        return "delivery chain contains duplicate uids"
    updates = {
        uid: at for fp in footprints.values() for uid, at in fp.updates.items()
    }
    missing = sorted(
        (uid for uid in updates if uid not in chain_set),
        key=updates.__getitem__,
    )
    if missing:
        return (
            f"updates {missing} never appeared in the certified "
            "delivery chain"
        )
    supplied = set(extra_pairs)
    absent = [
        (a, b) for a, b in zip(chain, chain[1:]) if (a, b) not in supplied
    ]
    if absent:
        return (
            f"chain edges {absent[:3]}{'...' if len(absent) > 3 else ''} "
            "were not passed to the checker as extra_pairs"
        )
    return None


#: rule -> (constraint, test), strongest first: a structural proof
#: that needs no synchronization pairs beats one that does.
RULES: Dict[str, Tuple[str, Test]] = {
    "read-only": ("oo", _read_only),
    "single-updater": ("ww", _single_updater),
    "object-partitioned": (
        "oo", lambda fps, _order: _partitioned(fps, "objects", "accessed")
    ),
    "total-update-order": ("ww", _total_update_order),
    "disjoint-writers": (
        "wo", lambda fps, _order: _partitioned(fps, "writes", "written")
    ),
}


def _strongest(
    footprints: Footprints, order: Order, rules: Iterable[str]
) -> Optional["ConstraintCertificate"]:
    for rule in rules:
        constraint, test = RULES[rule]
        if test(footprints, order) is None:
            return ConstraintCertificate(constraint=constraint, rule=rule)
    return None


@dataclass(frozen=True)
class ConstraintCertificate:
    """A static proof that every emitted history is constrained.

    Attributes:
        constraint: ``"ww"``, ``"oo"`` or ``"wo"`` (D 4.9/4.8/4.10).
        rule: the :data:`RULES` entry that fired.
        chain: for ``total-update-order`` certificates, the update
            delivery sequence whose consecutive pairs the caller feeds
            to the checker as ``extra_pairs``.  Bound post-run via
            :meth:`with_chain`.
    """

    constraint: str
    rule: str
    chain: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.constraint not in CONSTRAINTS:
            raise InvalidCertificate(
                f"unknown constraint {self.constraint!r}; expected one "
                f"of {CONSTRAINTS}"
            )

    @property
    def unlocks_theorem7(self) -> bool:
        return self.constraint in THEOREM7_CONSTRAINTS

    @property
    def requires_chain(self) -> bool:
        return self.rule == "total-update-order"

    def with_chain(
        self, sequence: Iterable[int]
    ) -> "ConstraintCertificate":
        """Bind the concrete delivery chain (e.g. ``result.ww_sequence``)."""
        return replace(self, chain=tuple(sequence))

    def chain_for(
        self,
        history: History,
        extra_pairs: Iterable[Tuple[int, int]] = (),
    ) -> Optional[Tuple[int, ...]]:
        """Audit the certificate on a concrete history; return its chain.

        Re-evaluates the certified rule on the history's footprints in
        O(n) — the checker's trust-but-verify step, never a transitive
        closure — and returns the update chain along which every
        object's writers are totally ordered: ``()`` for
        ``read-only``, the updates of each process in issue order,
        processes in pid order, for ``single-updater`` and
        ``object-partitioned``, the bound chain for
        ``total-update-order``, None for ``disjoint-writers``.

        Raises:
            InvalidCertificate: the history does not have the
                certified shape.
        """
        if self.rule not in RULES:
            raise InvalidCertificate(
                f"unknown certificate rule {self.rule!r}"
            )
        footprints = history_footprints(history)
        failure = RULES[self.rule][1](
            footprints, (self.chain, tuple(extra_pairs))
        )
        if failure is not None:
            raise InvalidCertificate(
                failure
                if self.requires_chain
                else f"certified {self.rule} but {failure}"
            )
        if not self.unlocks_theorem7:
            return None
        if self.requires_chain:
            return self.chain
        return tuple(uid for fp in footprints.values() for uid in fp.updates)


def certify_spec(spec: WorkloadSpec) -> ConstraintCertificate:
    """Prove a workload spec OO-/WW-constrained, or refuse."""
    footprints = spec_footprints(spec)
    cert = _strongest(
        footprints, spec.sync == "total-update-order", RULES
    )
    if cert is not None:
        return cert
    if all(fp.objects is not None for fp in footprints.values()):
        raise CertificationRefused(
            "multiple processes update overlapping objects with no "
            "total synchronization order; emitted histories can "
            "contain unordered update pairs"
        )
    raise CertificationRefused(
        "multiple processes issue updates, at least one program has "
        "no declared static_objects footprint, and no total "
        "synchronization order was promised"
    )


def certify_workloads(
    workloads: Sequence[Sequence],
    *,
    sync: str = "none",
) -> ConstraintCertificate:
    """Certify concrete :class:`~repro.protocols.store.MProgram` lists.

    ``sync`` is the :class:`WorkloadSpec` promise: with
    ``"total-update-order"`` (a protocol whose registry entry is
    ``certificate_eligible``) the prover may fall back to the
    ``total-update-order`` rule, whose certificate must be bound to
    the run's ``ww_sequence`` afterwards (or obtained directly via
    :func:`certify_run`).
    """
    return certify_spec(WorkloadSpec.of_workloads(workloads, sync=sync))


def certify_run(result) -> ConstraintCertificate:
    """Certify a finished protocol run from its recorded ``~ww`` chain.

    Structural, closure-free: checks (in O(n)) that every update
    m-operation the run recorded appears in the atomic-broadcast
    delivery sequence, then emits a bound ``total-update-order``
    certificate.  Use with
    ``check_condition(..., extra_pairs=result.ww_pairs(),
    certificate=cert)``.
    """
    delivered = set(result.ww_sequence)
    missing = [
        rec.uid
        for rec in result.recorder.records
        if rec.is_update and rec.uid not in delivered
    ]
    if missing:
        raise CertificationRefused(
            f"updates {missing} were not atomically broadcast; the "
            "run's ~ww chain does not cover the update set"
        )
    return ConstraintCertificate(
        constraint="ww",
        rule="total-update-order",
        chain=tuple(result.ww_sequence),
    )


def certify_chain(
    history: History, chain: Sequence[int]
) -> ConstraintCertificate:
    """Certify an explicit total update chain over a history.

    For hand-built artifacts like Figure 2, where the WW
    synchronization edges are part of the construction: verifies in
    O(n) that the chain covers every update m-operation and emits the
    bound certificate.  The caller must pass the chain's consecutive
    pairs to the checker as ``extra_pairs``.
    """
    cert = ConstraintCertificate(
        constraint="ww", rule="total-update-order", chain=tuple(chain)
    )
    try:
        cert.chain_for(history, zip(cert.chain, cert.chain[1:]))
    except InvalidCertificate as exc:
        raise CertificationRefused(str(exc)) from None
    return cert


def certify_partitioned_history(history: History) -> ConstraintCertificate:
    """Certify a concrete history as object-partitioned, post hoc.

    Every object must be touched by a single process, which confines
    every conflicting pair to one process chain (D 4.8).  Unlike
    :func:`certify_spec` this certifies *one history*, not a workload;
    the checker's :meth:`~ConstraintCertificate.chain_for` re-runs the
    same rule before relying on it.
    """
    return _certify_history(history, ("object-partitioned",))


def certify_history(history: History) -> ConstraintCertificate:
    """Best-effort post-hoc certification of a raw history.

    For checking saved histories (``python -m repro check --window
    N``) where no workload spec or run record exists: the strongest of
    ``read-only``, ``single-updater`` and ``object-partitioned`` that
    holds on the history's footprints, or
    :class:`~repro.errors.CertificationRefused`.
    """
    return _certify_history(
        history, ("read-only", "single-updater", "object-partitioned")
    )


def _certify_history(
    history: History, rules: Sequence[str]
) -> ConstraintCertificate:
    footprints = history_footprints(history)
    cert = _strongest(footprints, None, rules)
    if cert is None:
        raise CertificationRefused(
            f"{_partitioned(footprints, 'objects', 'accessed')}; the "
            "history is not object-partitioned"
        )
    return cert


# ----------------------------------------------------------------------
# Spec-conforming history sampling (cross-validation support)
# ----------------------------------------------------------------------


@dataclass
class SampledRun:
    """A history drawn from a spec, plus its synchronization chain.

    ``extra_pairs`` is what the spec's sync mode obliges the checker
    to receive: the consecutive pairs of the update generation order
    under ``total-update-order``, empty otherwise.
    """

    history: History
    chain: Tuple[int, ...] = ()
    extra_pairs: Tuple[Tuple[int, int], ...] = field(default=())


def sample_history(
    spec: WorkloadSpec, *, seed: int = 0, objects: Sequence[str] = ()
) -> SampledRun:
    """Generate a random concrete history conforming to ``spec``.

    The adversarial interpretation of each profile: update programs
    **blind-write** all their declared objects (reads would add
    reads-from edges that order updates for free, masking constraint
    violations), query programs read all of them — the worst case for
    constraint satisfaction, so a certificate validated against these
    samples holds a fortiori for programs inducing more order.
    Profiles with unknown footprints draw 1-2 objects from
    ``objects``.

    Interleaving across processes is random (seeded), intervals are
    serial in generation order; process subhistories stay sequential,
    write values are globally unique (unambiguous reads-from).
    """
    rng = random.Random(seed)
    universe = list(objects)
    if not universe:
        for profile in itertools.chain(*spec.processes):
            universe.extend(profile.objects or ())
        universe = sorted(set(universe)) or ["x"]
    store: Dict[str, int] = {obj: 0 for obj in universe}
    queues = [list(seq) for seq in spec.processes]
    mops: List[MOperation] = []
    chain: List[int] = []
    value = 0
    clock = 0.0
    uid = 0
    while any(queues):
        pid = rng.choice([p for p, q in enumerate(queues) if q])
        profile = queues[pid].pop(0)
        uid += 1
        touched = sorted(
            profile.objects
            if profile.objects is not None
            else rng.sample(universe, k=min(2, len(universe)))
        )
        if profile.may_write:
            ops = []
            for obj in touched:
                value += 1
                ops.append(write(obj, value))
                store[obj] = value
            chain.append(uid)
        else:
            ops = [read(obj, store[obj]) for obj in touched]
        inv = clock + 0.25
        resp = inv + 0.5
        clock = resp
        mops.append(
            MOperation(
                uid=uid,
                process=pid,
                ops=tuple(ops),
                inv=inv,
                resp=resp,
                name=profile.name or f"m{uid}",
            )
        )
    history = History.from_mops(mops)
    pairs = (
        tuple(zip(chain, chain[1:]))
        if spec.sync == "total-update-order"
        else ()
    )
    return SampledRun(
        history=history, chain=tuple(chain), extra_pairs=pairs
    )
