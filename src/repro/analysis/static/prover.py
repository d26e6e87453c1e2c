"""Workload constraint prover: static OO-/WW-/WO-certificates.

Theorem 7 makes verification polynomial *when the history satisfies
the OO- or WW-constraint* (D 4.8/4.9) — but the checker pipeline
discovers that dynamically, per history, by scanning the transitive
closure.  This module proves it **up front**, from the workload alone:

* a workload in which no program may write produces no conflicting
  pairs among client m-operations (D 4.1 needs a write), so the
  OO-constraint holds vacuously — rule ``read-only``;
* a workload in which at most one process issues updates has all its
  updates totally ordered by process order (and the initial
  m-operation precedes everything), so the WW-constraint (D 4.9)
  holds under any of the paper's base orders — rule
  ``single-updater``;
* a workload whose objects are statically partitioned across
  processes (each object accessed by one process only) confines every
  conflict to a single process, so the OO-constraint holds — rule
  ``object-partitioned``;
* a workload driven through a protocol that routes **every** update
  through atomic broadcast (the Fig-4/Fig-6 protocols) and whose
  delivery chain is fed back to the checker as ``extra_pairs`` (the
  ``~ww`` order, D 5.3) is WW-constrained by construction — rule
  ``total-update-order``;
* disjoint per-process *write* sets alone certify only the weaker
  WO-constraint (D 4.10) — recorded for diagnostics, but WO does not
  unlock Theorem 7, so the checker ignores it — rule
  ``disjoint-writers``.

A successful proof is a :class:`ConstraintCertificate`.  The checker
(:func:`repro.core.consistency.check_condition` with
``certificate=``) audits it in O(n) against the concrete history —
never computing the quadratic closure scan of
:func:`repro.core.constraints.satisfies_ww` /
:func:`~repro.core.constraints.satisfies_oo` — and then jumps
straight to the Theorem-7 legality path.  When no rule applies the
prover raises :class:`~repro.errors.CertificationRefused`; refusal
means "fall back to the dynamic phase", not "the constraint fails".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.history import History
from repro.core.operation import MOperation, read, write
from repro.errors import CertificationRefused, InvalidCertificate

#: Protocols whose update path is atomic broadcast for *every* update
#: m-operation (Fig-4 m-SC and Fig-6 m-lin), so ``RunResult.ww_pairs()``
#: chains the full update set.
TOTAL_ORDER_PROTOCOLS = ("msc", "mlin")

#: Constraint names a certificate can claim.
CONSTRAINTS = ("ww", "oo", "wo")

#: Constraints that unlock the Theorem-7 legality-only path.
THEOREM7_CONSTRAINTS = ("ww", "oo")


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

    @property
    def profiles(self) -> Tuple[ProgramProfile, ...]:
        return tuple(p for seq in self.processes for p in seq)

    def updater_processes(self) -> Tuple[int, ...]:
        """Processes with at least one update program."""
        return tuple(
            pid
            for pid, seq in enumerate(self.processes)
            if any(p.may_write for p in seq)
        )

    def footprints_known(self) -> bool:
        return all(p.objects is not None for p in self.profiles)

    def objects_by_process(self) -> List[Set[str]]:
        out: List[Set[str]] = []
        for seq in self.processes:
            touched: Set[str] = set()
            for profile in seq:
                touched |= profile.objects or set()
            out.append(touched)
        return out

    def write_objects_by_process(self) -> List[Set[str]]:
        out: List[Set[str]] = []
        for seq in self.processes:
            touched: Set[str] = set()
            for profile in seq:
                if profile.may_write:
                    touched |= profile.objects or set()
            out.append(touched)
        return out


@dataclass(frozen=True)
class ConstraintCertificate:
    """A static proof that every emitted history is constrained.

    Attributes:
        constraint: ``"ww"``, ``"oo"`` or ``"wo"`` (D 4.9/4.8/4.10).
        rule: the prover rule that fired (see module docstring).
        reason: human-readable justification.
        assumptions: model facts the proof leans on (sequential
            clients, abcast total order, ...), for the record.
        chain: for ``total-update-order`` certificates, the update
            delivery sequence whose consecutive pairs the caller feeds
            to the checker as ``extra_pairs``.  Bound post-run via
            :meth:`with_chain`.
    """

    constraint: str
    rule: str
    reason: str
    assumptions: Tuple[str, ...] = ()
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

    # ------------------------------------------------------------------
    # O(n) structural audit — the checker's trust-but-verify step
    # ------------------------------------------------------------------

    def audit(
        self,
        history: History,
        extra_pairs: Iterable[Tuple[int, int]] = (),
    ) -> Optional[str]:
        """Check the certificate against a concrete history in O(n).

        Returns None when the history structurally matches the
        certified workload shape, else a failure message.  This never
        computes a transitive closure — that is the point.
        """
        from repro.core.index import HistoryIndex

        # (uid, process) of non-init updates — cached on the shared
        # index, so repeated certified checks pay the scan once.
        updates = HistoryIndex.of(history).client_updates
        if self.rule == "read-only":
            if updates:
                return (
                    f"certified read-only but history has "
                    f"{len(updates)} update m-operation(s)"
                )
            return None
        if self.rule == "single-updater":
            owners = {process for _uid, process in updates}
            if len(owners) > 1:
                return (
                    "certified single-updater but updates span "
                    f"processes {sorted(owners)}"
                )
            return None
        if self.rule == "object-partitioned":
            owner: Dict[str, int] = {}
            for mop in history.mops:
                for obj in mop.objects:
                    previous = owner.setdefault(obj, mop.process)
                    if previous != mop.process:
                        return (
                            f"certified object-partitioned but object "
                            f"{obj!r} is accessed by P{previous} and "
                            f"P{mop.process}"
                        )
            return None
        if self.rule == "total-update-order":
            if self.chain is None:
                return (
                    "total-update-order certificate used without a "
                    "bound delivery chain; call .with_chain(...)"
                )
            chain_set = set(self.chain)
            if len(chain_set) != len(self.chain):
                return "delivery chain contains duplicate uids"
            missing = [
                uid for uid, _process in updates if uid not in chain_set
            ]
            if missing:
                return (
                    f"updates {missing} never appeared in the "
                    "certified delivery chain"
                )
            supplied = set(extra_pairs)
            absent = [
                (a, b)
                for a, b in zip(self.chain, self.chain[1:])
                if (a, b) not in supplied
            ]
            if absent:
                return (
                    f"chain edges {absent[:3]}{'...' if len(absent) > 3 else ''} "
                    "were not passed to the checker as extra_pairs"
                )
            return None
        if self.rule == "disjoint-writers":
            owner_w: Dict[str, int] = {}
            init_uid = history.init.uid
            for mop in history.mops:
                if not mop.is_update or mop.uid == init_uid:
                    continue
                for obj in mop.wobjects:
                    previous = owner_w.setdefault(obj, mop.process)
                    if previous != mop.process:
                        return (
                            f"certified disjoint-writers but object "
                            f"{obj!r} is written by P{previous} and "
                            f"P{mop.process}"
                        )
            return None
        return f"unknown certificate rule {self.rule!r}"

    def as_dict(self) -> Dict:
        return {
            "constraint": self.constraint,
            "rule": self.rule,
            "reason": self.reason,
            "assumptions": list(self.assumptions),
            "chain_length": len(self.chain) if self.chain else 0,
        }


#: Model facts every certificate relies on; see protocols/base.py —
#: clients are sequential (well-formedness, Section 2.2) and the
#: initial m-operation precedes everything (init_order).
_BASE_ASSUMPTIONS = (
    "sequential-clients",
    "init-precedes-all",
)


def certify_spec(spec: WorkloadSpec) -> ConstraintCertificate:
    """Prove a workload spec OO-/WW-constrained, or refuse.

    Rules are tried strongest-first: a structural proof that needs no
    synchronization pairs beats one that does.
    """
    updaters = spec.updater_processes()
    if not updaters:
        return ConstraintCertificate(
            constraint="oo",
            rule="read-only",
            reason=(
                "no program may write, so no pair of client "
                "m-operations conflicts (D 4.1 requires a write); "
                "conflicts with the initial m-operation are ordered "
                "by the init fan-out"
            ),
            assumptions=_BASE_ASSUMPTIONS,
        )
    if len(updaters) == 1:
        return ConstraintCertificate(
            constraint="ww",
            rule="single-updater",
            reason=(
                f"only P{updaters[0]} issues updates; its updates are "
                "totally ordered by process order and the initial "
                "m-operation precedes them all, so every update pair "
                "is ordered (D 4.9)"
            ),
            assumptions=_BASE_ASSUMPTIONS,
        )
    if spec.footprints_known():
        per_process = spec.objects_by_process()
        clashes = _shared_objects(per_process)
        if not clashes:
            return ConstraintCertificate(
                constraint="oo",
                rule="object-partitioned",
                reason=(
                    "every object is accessed by a single process, so "
                    "conflicting m-operations share a process and are "
                    "ordered by process order (D 4.8)"
                ),
                assumptions=_BASE_ASSUMPTIONS,
            )
    if spec.sync == "total-update-order":
        return ConstraintCertificate(
            constraint="ww",
            rule="total-update-order",
            reason=(
                "every update is atomically broadcast and the "
                "delivery chain is fed to the checker as extra_pairs "
                "(the ~ww order, D 5.3), totally ordering all update "
                "pairs (D 4.9)"
            ),
            assumptions=_BASE_ASSUMPTIONS + ("abcast-total-order",),
        )
    if spec.footprints_known():
        write_sets = spec.write_objects_by_process()
        if not _shared_objects(write_sets):
            return ConstraintCertificate(
                constraint="wo",
                rule="disjoint-writers",
                reason=(
                    "per-process write sets are disjoint, so updates "
                    "writing a common object share a process (D 4.10); "
                    "note WO alone does not unlock Theorem 7"
                ),
                assumptions=_BASE_ASSUMPTIONS,
            )
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


def _shared_objects(per_process: List[Set[str]]) -> Set[str]:
    seen: Dict[str, int] = {}
    clashes: Set[str] = set()
    for pid, objs in enumerate(per_process):
        for obj in objs:
            if obj in seen and seen[obj] != pid:
                clashes.add(obj)
            seen.setdefault(obj, pid)
    return clashes


def certify_workloads(
    workloads: Sequence[Sequence],
    *,
    protocol: Optional[str] = None,
) -> ConstraintCertificate:
    """Certify concrete :class:`~repro.protocols.store.MProgram` lists.

    ``protocol`` names the cluster the workload will run on; for the
    total-order protocols (``"msc"``, ``"mlin"``) the prover may fall
    back to the ``total-update-order`` rule, whose certificate must be
    bound to the run's ``ww_sequence`` afterwards (or obtained
    directly via :func:`certify_run`).
    """
    sync = (
        "total-update-order"
        if protocol in TOTAL_ORDER_PROTOCOLS
        else "none"
    )
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
        reason=(
            "every recorded update appears in the atomic-broadcast "
            "delivery sequence; its consecutive pairs (~ww, D 5.3) "
            "totally order the updates (D 4.9)"
        ),
        assumptions=_BASE_ASSUMPTIONS + ("abcast-total-order",),
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
        constraint="ww",
        rule="total-update-order",
        reason=(
            "explicit WW synchronization chain covering every update "
            "m-operation (D 4.9)"
        ),
        assumptions=_BASE_ASSUMPTIONS,
        chain=tuple(chain),
    )
    pairs = list(zip(cert.chain, cert.chain[1:]))
    failure = cert.audit(history, pairs)
    if failure is not None:
        raise CertificationRefused(failure)
    return cert


def certify_partitioned_history(history: History) -> ConstraintCertificate:
    """Certify a concrete history as object-partitioned, post hoc.

    One O(n) ownership scan: every object must be touched by a single
    process, which confines every conflicting pair to one process
    chain (D 4.8) — the shape :mod:`repro.core.plan` scans process
    chain by process chain.  Unlike :func:`certify_spec` this certifies *one history*, not a workload;
    the checker's trust-but-verify audit re-runs the same scan before
    relying on it.
    """
    owner: Dict[str, int] = {}
    for mop in history.mops:
        for obj in mop.objects:
            previous = owner.setdefault(obj, mop.process)
            if previous != mop.process:
                raise CertificationRefused(
                    f"object {obj!r} is accessed by P{previous} and "
                    f"P{mop.process}; the history is not "
                    "object-partitioned"
                )
    return ConstraintCertificate(
        constraint="oo",
        rule="object-partitioned",
        reason=(
            "every object in the concrete history is accessed by a "
            "single process, so conflicting m-operations share a "
            "process and are ordered by process order (D 4.8)"
        ),
        assumptions=_BASE_ASSUMPTIONS,
    )


def certify_history(history: History) -> ConstraintCertificate:
    """Best-effort post-hoc certification of a raw history.

    For checking saved histories (``python -m repro check --window
    N``) where no workload spec or run record exists:
    tries the structural rules strongest-first — ``read-only``,
    ``single-updater``, then ``object-partitioned`` — and raises
    :class:`~repro.errors.CertificationRefused` when none applies.
    Each rule mirrors its :func:`certify_spec` counterpart, evaluated
    on the concrete m-operations instead of program profiles.
    """
    init_uid = history.init.uid
    updaters = sorted(
        {
            m.process
            for m in history.mops
            if m.is_update and m.uid != init_uid
        }
    )
    if not updaters:
        return ConstraintCertificate(
            constraint="oo",
            rule="read-only",
            reason=(
                "the history contains no client update m-operation, so "
                "no pair of client m-operations conflicts (D 4.1 "
                "requires a write)"
            ),
            assumptions=_BASE_ASSUMPTIONS,
        )
    if len(updaters) == 1:
        return ConstraintCertificate(
            constraint="ww",
            rule="single-updater",
            reason=(
                f"only P{updaters[0]} issues updates in this history; "
                "its updates are totally ordered by process order and "
                "the initial m-operation precedes them all (D 4.9)"
            ),
            assumptions=_BASE_ASSUMPTIONS,
        )
    return certify_partitioned_history(history)


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
        for profile in spec.profiles:
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
