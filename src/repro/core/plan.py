"""Plan/execute verification engine (certificate-driven checking).

The monolithic ``_check`` pipeline computed one global transitive
closure per history — ``O(n²)`` bits of state — which BENCH_checkers
showed dominating end-to-end checking well before 10k m-operations.
This module splits checking into two stages:

* **plan** — :func:`plan_check` inspects the history together with the
  static :class:`~repro.analysis.static.prover.ConstraintCertificate`
  and picks an execution *strategy*:

  - ``"scan"``    — the certificate binds a total update chain
    (``total-update-order``, ``single-updater`` or ``read-only``), so
    legality (D 4.6) lowers to a single forward scan: under
    acyclicity, update-to-update reachability collapses to chain
    position comparison, and "is some writer ordered strictly between
    ``b`` and its reader" becomes one binary search per external read
    against a visibility *mark* computed by dynamic programming over
    the cover DAG.  No closure is ever materialised — ``O((V + E)
    log V)`` total.
  - ``"shard"``   — the certificate is ``object-partitioned`` (the
    D 4.10 family: every object is accessed by a single process), so
    the base order ``~p ∪ ~rf [∪ ~x]`` decomposes *exactly* into
    independent per-process components (every non-initial edge is
    intra-process).  Each shard is checked independently — optionally
    in parallel via :mod:`multiprocessing`, with sub-histories
    serialized through :mod:`repro.core.serialize` — and merged with a
    cheap conjunction plus one global witness pass.
  - ``"closure"`` — the monolithic Theorem-7/dynamic path, kept for
    uncertified histories and certificates without a usable shape.

* **execute** — :func:`run_scan` / :func:`run_sharded` run the plan
  and report acyclicity, legality, a linear-size cover of the D 4.11
  ``~rw`` pairs and (on request) a witness linearization.

Verdict fidelity
----------------

Every strategy reproduces the monolithic checker *byte for byte*: the
same ``holds``, and the same witness.  The witness guarantee follows
from replicating the bitmask Kahn order of
:meth:`repro.core.relations.Relation._topo_indices` exactly — same
universe order (``history.uids``), FIFO ready queue, successors
visited in ascending universe position, per-edge deduplication — over
base cover edges plus :func:`repro.core.index.rw_cover_pairs` (the
other D 4.11 pairs are path-implied edges, which FIFO Kahn cannot
see).  Cross-validated in ``tests/core/test_plan_crossval.py``.

Windowed checking
-----------------

``mode="windowed"`` runs the scan with a bounded lookback: a read
whose visibility mark reaches more than ``window`` chain positions
behind its claimed writer raises
:class:`~repro.errors.WindowExceeded` — a refusal, never a wrong
verdict.  With ``window=None`` the windowed scan is identical to the
full scan.  The *streaming* counterpart (bounded-memory epoch
checkpoints over a live feed) is
:class:`repro.core.index.WindowedIndex`.
"""

from __future__ import annotations

import json
import multiprocessing
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.history import History
from repro.core.index import CONDITION_ORDERS, HistoryIndex, rw_cover_pairs
from repro.core.serialize import history_from_dict, history_to_dict
from repro.errors import PlanRefused, RelationError, WindowExceeded
from repro.obs import get_tracer

Pair = Tuple[int, int]

#: Verification modes accepted by the planner (and ``VerifyPolicy``).
MODES = ("full", "sharded", "windowed")

#: Certificate rules that bind (or imply) a total update chain.
CHAIN_RULES = ("total-update-order", "single-updater", "read-only")

#: Mark value below every chain position (INIT sits at -1).
_NO_MARK = -2


@dataclass(frozen=True)
class Shard:
    """One independent object group of an object-partitioned history.

    Attributes:
        key: the owning process id (shards are ordered by key, so the
            executor is deterministic regardless of worker count).
        uids: the shard's m-operation uids, in history listing order.
        objects: the objects the shard's m-operations touch.
    """

    key: int
    uids: Tuple[int, ...]
    objects: Tuple[str, ...]


@dataclass(frozen=True)
class CheckPlan:
    """What the executor will run — the planner's output.

    Attributes:
        condition: the consistency condition under check.
        mode: ``"full"``, ``"sharded"`` or ``"windowed"``.
        strategy: ``"scan"``, ``"shard"`` or ``"closure"``.
        chain: the total update chain (scan strategies), excluding the
            initial m-operation.
        shards: the object-group shards (shard strategy).
        workers: worker processes for the shard executor.
        window: lookback bound for windowed scans (None = unbounded).
        certificate_rule: rule of the certificate the plan relies on.
        notes: human-readable planning decisions.
    """

    condition: str
    mode: str
    strategy: str
    chain: Tuple[int, ...] = ()
    shards: Tuple[Shard, ...] = ()
    workers: int = 1
    window: Optional[int] = None
    certificate_rule: Optional[str] = None
    notes: Tuple[str, ...] = ()


@dataclass
class ScanResult:
    """Outcome of one forward legality scan (``rw``: the ``~rw`` cover)."""

    acyclic: bool
    legal: bool
    rw: Tuple[Pair, ...] = ()
    witness: Optional[List[int]] = None

    @property
    def holds(self) -> bool:
        return self.acyclic and self.legal


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------


def plan_check(
    history: History,
    condition: str,
    *,
    mode: str = "full",
    workers: int = 1,
    window: Optional[int] = None,
    extra_pairs: Tuple[Pair, ...] = (),
    certificate=None,
) -> CheckPlan:
    """Choose an execution strategy for one consistency check.

    ``certificate`` must already have passed its structural audit
    (the caller — ``repro.core.consistency._check`` — audits before
    planning); only certificates with ``unlocks_theorem7`` influence
    the plan.

    Raises:
        PlanRefused: ``mode="sharded"`` without an object-partitioned
            certificate (or for m-linearizability, whose real-time
            order crosses shards, or with ``extra_pairs``, which cross
            shards by construction); ``mode="windowed"`` without a
            chain-shaped certificate.
        ValueError: unknown mode or condition.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if condition not in CONDITION_ORDERS:
        raise ValueError(
            f"unknown condition {condition!r}; expected one of "
            f"{tuple(CONDITION_ORDERS)}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    rule = (
        certificate.rule
        if certificate is not None
        and getattr(certificate, "unlocks_theorem7", False)
        else None
    )

    if mode == "full":
        if rule in CHAIN_RULES:
            return CheckPlan(
                condition=condition,
                mode=mode,
                strategy="scan",
                chain=_update_chain(history, certificate),
                certificate_rule=rule,
                notes=(f"{rule} certificate lowers legality to a scan",),
            )
        note = (
            f"{rule} certificate has no update chain; closure strategy"
            if rule is not None
            else "no usable certificate; dynamic closure strategy"
        )
        return CheckPlan(
            condition=condition,
            mode=mode,
            strategy="closure",
            certificate_rule=rule,
            notes=(note,),
        )

    if mode == "windowed":
        if rule not in CHAIN_RULES:
            raise PlanRefused(
                "windowed verification needs a certificate binding a "
                "total update chain (one of "
                f"{CHAIN_RULES}); got "
                f"{rule if rule is not None else 'no certificate'}"
            )
        return CheckPlan(
            condition=condition,
            mode=mode,
            strategy="scan",
            chain=_update_chain(history, certificate),
            window=window,
            certificate_rule=rule,
            notes=(f"windowed {rule} scan, window={window}",),
        )

    # mode == "sharded"
    if rule != "object-partitioned":
        raise PlanRefused(
            "sharded verification needs an object-partitioned "
            "certificate (D 4.10 family); got "
            f"{rule if rule is not None else 'no certificate'}"
        )
    if condition == "m-lin":
        raise PlanRefused(
            "m-linearizability does not shard: the real-time order "
            "~t relates m-operations across object partitions"
        )
    if extra_pairs:
        raise PlanRefused(
            "extra_pairs (e.g. a recorded ~ww chain) order updates "
            "across shards; sharded mode requires an empty extra_pairs"
        )
    return CheckPlan(
        condition=condition,
        mode=mode,
        strategy="shard",
        shards=object_shards(history),
        workers=workers,
        certificate_rule=rule,
        notes=("object-partitioned certificate: one shard per process",),
    )


def _update_chain(history: History, certificate) -> Tuple[int, ...]:
    """The total update chain a chain-shaped certificate stands for."""
    rule = certificate.rule
    if rule == "read-only":
        return ()
    if rule == "total-update-order":
        chain = certificate.chain
        if chain is None:
            raise PlanRefused(
                "total-update-order certificate has no bound chain; "
                "call .with_chain(run.ww_sequence) first"
            )
        return tuple(chain)
    # single-updater: every client update is issued by one process, so
    # its process order totally orders the updates.
    index = HistoryIndex.of(history)
    owners = {process for _uid, process in index.client_updates}
    if not owners:
        return ()
    if len(owners) != 1:  # pragma: no cover - audit rejects this first
        raise PlanRefused(
            f"single-updater certificate but updates come from "
            f"processes {sorted(owners)}"
        )
    (owner,) = owners
    return tuple(
        uid
        for uid in index.process_chains[owner]
        if history[uid].is_update
    )


def object_shards(history: History) -> Tuple[Shard, ...]:
    """Per-process shards of an object-partitioned history.

    Under the object-partitioned rule every object is accessed by one
    process, so conflict components coincide with processes; the shard
    key is the process id and shards are returned in key order.
    """
    by_proc: Dict[int, List[int]] = {}
    for mop in history.mops:
        by_proc.setdefault(mop.process, []).append(mop.uid)
    shards = []
    for proc in sorted(by_proc):
        uids = tuple(by_proc[proc])
        objects = sorted(
            {obj for uid in uids for obj in history[uid].objects}
        )
        shards.append(Shard(key=proc, uids=uids, objects=tuple(objects)))
    return tuple(shards)


def shard_history(history: History, shard: Shard) -> History:
    """The shard's sub-history, ready for an independent check.

    Initial values are restricted to the shard's objects and the
    reads-from map to the shard's readers; under the
    object-partitioned certificate every referenced writer is either
    in-shard or the initial m-operation.
    """
    members = set(shard.uids)
    init_uid = history.init.uid
    init_writes = history.init.external_writes
    reads_from: Dict[Tuple[int, str], int] = {}
    for (reader, obj), writer in history.reads_from_map.items():
        if reader not in members:
            continue
        if writer != init_uid and writer not in members:
            raise PlanRefused(
                f"m#{reader} reads {obj!r} from m#{writer} outside its "
                "shard; the object-partitioned certificate is violated"
            )
        reads_from[(reader, obj)] = writer
    return History.from_mops(
        [history[uid] for uid in shard.uids],
        initial_values={
            obj: init_writes[obj]
            for obj in shard.objects
            if obj in init_writes
        },
        reads_from=reads_from,
    )


# ----------------------------------------------------------------------
# Scan executor
# ----------------------------------------------------------------------


def _cover_successors(
    history: History,
    condition: str,
    extra_pairs: Tuple[Pair, ...],
) -> Tuple[Dict[int, int], List[Set[int]]]:
    """Adjacency sets (universe positions) of the base cover edges.

    The edge set equals the one :meth:`HistoryIndex.base_relation`
    materialises as bitmasks: initial fan-out, per-process chains,
    ``~rf``, the condition's interval cover, and ``extra_pairs`` —
    deduplicated, irreflexive, over ``history.uids``.
    """
    index = HistoryIndex.of(history)
    uids = history.uids
    pos = {uid: i for i, uid in enumerate(uids)}
    succ: List[Set[int]] = [set() for _ in uids]

    def add(a: int, b: int) -> None:
        try:
            ia = pos[a]
            ib = pos[b]
        except KeyError as exc:
            raise RelationError(
                f"node {exc.args[0]} is not in the history's "
                "m-operation universe"
            ) from None
        if ia != ib:
            succ[ia].add(ib)

    init_uid = history.init.uid
    for mop in history.mops:
        add(init_uid, mop.uid)
    for chain in index.process_chains.values():
        for a, b in zip(chain, chain[1:]):
            add(a, b)
    for a, b in index.reads_from_pairs:
        add(a, b)
    real_time, objects = CONDITION_ORDERS[condition]
    if real_time:
        for a, b in index.real_time_cover():
            add(a, b)
    if objects:
        for a, b in index.object_cover():
            add(a, b)
    for a, b in extra_pairs:
        add(a, b)
    return pos, succ


def _fifo_topo(
    uids: Tuple[int, ...], succ: List[Set[int]]
) -> Optional[List[int]]:
    """Kahn topological order replicating ``Relation._topo_indices``.

    FIFO ready queue seeded in ascending universe position, successors
    visited in ascending position — the exact tie-breaking of the
    bitmask implementation, so witnesses are byte-identical to the
    monolithic checker's.  None if cyclic.
    """
    n = len(uids)
    adj = [sorted(s) for s in succ]
    indegree = [0] * n
    for targets in adj:
        for j in targets:
            indegree[j] += 1
    ready = deque(i for i in range(n) if indegree[i] == 0)
    order: List[int] = []
    while ready:
        i = ready.popleft()
        order.append(uids[i])
        for j in adj[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    if len(order) != n:
        return None
    return order


def run_scan(
    history: History,
    condition: str,
    chain: Tuple[int, ...],
    *,
    extra_pairs: Tuple[Pair, ...] = (),
    window: Optional[int] = None,
    want_witness: bool = False,
) -> ScanResult:
    """The forward legality scan (Theorem 7 without a closure).

    Preconditions (discharged by the certificate audit): ``chain``
    totally orders every non-initial update and every consecutive
    chain pair is contained in the base order (via ``extra_pairs`` for
    ``total-update-order``, via ``~p`` for ``single-updater``).  Under
    these, for writers ``b, c`` of an acyclic base: ``b ~H+ c`` iff
    ``chainpos(b) < chainpos(c)``, and ``c ~H+ a`` iff ``chainpos(c)
    <= mark(a)`` where ``mark(a)`` is the maximum chain position
    reachable through ``a``'s predecessors (a forward DP over the
    cover DAG).  D 4.6 then reads: some writer of ``x`` other than the
    reader sits at a chain position in ``(pos(b), mark(a)]`` — one
    binary search per external read.

    With ``window`` set, a read whose mark reaches more than
    ``window`` positions behind its claimed writer raises
    :class:`WindowExceeded` (refusal, not a verdict).

    A legal result carries the ``~rw`` cover (per read, the next writer
    of the object on the chain); the witness orders ``~H`` plus it.
    """
    uids = history.uids
    pos, succ = _cover_successors(history, condition, extra_pairs)
    n = len(uids)

    chain_pos: Dict[int, int] = {history.init.uid: -1}
    for i, uid in enumerate(chain):
        chain_pos[uid] = i

    # Kahn pass: acyclicity + the mark DP in one sweep (a node's mark
    # is final when it is popped, since all predecessors popped first).
    adj = [sorted(s) for s in succ]
    indegree = [0] * n
    for targets in adj:
        for j in targets:
            indegree[j] += 1
    marks = [_NO_MARK] * n
    for uid, cp in chain_pos.items():
        i = pos.get(uid)
        if i is not None:
            marks[i] = cp
    ready = deque(i for i in range(n) if indegree[i] == 0)
    seen = 0
    while ready:
        i = ready.popleft()
        seen += 1
        mark = marks[i]
        for j in adj[i]:
            if marks[j] < mark:
                marks[j] = mark
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    if seen != n:
        return ScanResult(acyclic=False, legal=False)

    # Per-object writer positions, ascending by chain construction.
    writer_pos: Dict[str, List[int]] = {}
    writer_uid: Dict[str, List[int]] = {}
    for cp, uid in enumerate(chain):
        if uid not in pos:
            continue  # chain slot for an m-op outside this history
        for obj in history[uid].wobjects:
            writer_pos.setdefault(obj, []).append(cp)
            writer_uid.setdefault(obj, []).append(uid)

    reads = sorted(HistoryIndex.of(history).proper_reads())
    for (a_uid, obj), b_uid in reads:
        b_pos = chain_pos.get(b_uid)
        if b_pos is None:
            raise PlanRefused(
                f"writer m#{b_uid} of {obj!r} is not on the update "
                "chain; the scan strategy cannot order it"
            )
        limit = marks[pos[a_uid]]
        if window is not None and limit - b_pos > window:
            raise WindowExceeded(
                f"m#{a_uid} reads {obj!r} from m#{b_uid} at chain "
                f"position {b_pos}, {limit - b_pos} positions behind "
                f"its visibility mark {limit} (> window {window})"
            )
        positions = writer_pos.get(obj)
        if not positions:
            continue
        k = bisect_right(positions, limit) - 1
        names = writer_uid[obj]
        while k >= 0 and names[k] == a_uid:
            k -= 1
        if k >= 0 and positions[k] > b_pos:
            return ScanResult(acyclic=True, legal=False)

    rw = tuple(rw_cover_pairs(reads, writer_uid, chain_pos))
    witness: Optional[List[int]] = None
    if want_witness:
        with get_tracer().span(
            "check.witness", reads=len(reads), rw_edges=len(rw)
        ):
            for a_uid, c_uid in rw:
                succ[pos[a_uid]].add(pos[c_uid])
            witness = _fifo_topo(uids, succ)
        assert witness is not None, (
            "Lemma 3/4 violated: extended relation of a legal "
            "constrained history is cyclic"
        )
    return ScanResult(acyclic=True, legal=True, rw=rw, witness=witness)


# ----------------------------------------------------------------------
# Shard executor
# ----------------------------------------------------------------------


@dataclass
class ShardReport:
    """What one shard contributes to the merged verdict."""

    key: int
    acyclic: bool
    legal: bool
    rw: Tuple[Pair, ...]


def _shard_chain(history: History) -> Tuple[int, ...]:
    """A shard holds one process, so ``~p`` totally orders its updates."""
    index = HistoryIndex.of(history)
    chain: List[int] = []
    for proc in sorted(index.process_chains):
        for uid in index.process_chains[proc]:
            if history[uid].is_update:
                chain.append(uid)
    return tuple(chain)


def _check_shard(history: History, condition: str) -> ScanResult:
    # No per-shard witness: the merged global witness is assembled
    # from the shards' ``~rw`` cover pairs (at most one per read).
    return run_scan(history, condition, _shard_chain(history))


def _shard_worker(payload: str) -> str:
    """Subprocess entry point: JSON history in, JSON report out."""
    data = json.loads(payload)
    result = _check_shard(
        history_from_dict(data["history"]), data["condition"]
    )
    return json.dumps(
        {
            "key": data["key"],
            "acyclic": result.acyclic,
            "legal": result.legal,
            "rw": [list(pair) for pair in result.rw],
        }
    )


# Read-only state inherited by fork()ed pool workers.  Set immediately
# before the pool is created and cleared after; copy-on-write makes the
# full history visible in every worker without any serialization.
_FORK_STATE: Dict[str, object] = {}


def _fork_shard_worker(task):
    key, condition = task
    history = _FORK_STATE["history"]
    shard = _FORK_STATE["shards"][key]
    sub = shard_history(history, shard)
    result = _check_shard(sub, condition)
    return (key, result.acyclic, result.legal, result.rw)


def _map_shards_forked(
    history: History,
    shards: Tuple[Shard, ...],
    condition: str,
    workers: int,
) -> Optional[List[ShardReport]]:
    """Fan out over a fork pool; ``None`` if fork is unavailable.

    Workers inherit the full history copy-on-write and slice their own
    shard, so nothing but the (key, verdict, rw) tuples crosses the
    process boundary.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return None
    _FORK_STATE["history"] = history
    _FORK_STATE["shards"] = {shard.key: shard for shard in shards}
    tasks = [(shard.key, condition) for shard in shards]
    try:
        with ctx.Pool(min(workers, len(shards))) as pool:
            raw = pool.map(_fork_shard_worker, tasks)
    except PlanRefused:
        raise
    except Exception:
        return None  # pool unavailable (sandbox etc.)
    finally:
        _FORK_STATE.clear()
    return [
        ShardReport(key=key, acyclic=acyclic, legal=legal, rw=tuple(rw))
        for key, acyclic, legal, rw in raw
    ]


def _map_shards_json(
    history: History,
    shards: Tuple[Shard, ...],
    condition: str,
    workers: int,
) -> Optional[List[ShardReport]]:
    """Spawn-safe fallback: ship each sub-history as a JSON payload."""
    payloads = [
        json.dumps(
            {
                "key": shard.key,
                "condition": condition,
                "history": history_to_dict(shard_history(history, shard)),
            }
        )
        for shard in shards
    ]
    try:
        with multiprocessing.Pool(min(workers, len(shards))) as pool:
            raw = pool.map(_shard_worker, payloads)
    except Exception:
        return None  # pool unavailable: serial fallback
    reports = []
    for text in raw:
        data = json.loads(text)
        reports.append(
            ShardReport(
                key=data["key"],
                acyclic=data["acyclic"],
                legal=data["legal"],
                rw=tuple((int(a), int(c)) for a, c in data["rw"]),
            )
        )
    return reports


@dataclass
class ShardOutcome:
    """Merged result of the shard executor."""

    acyclic: bool
    legal: bool
    reports: Tuple[ShardReport, ...]
    witness: Optional[List[int]] = None
    parallel: bool = False

    @property
    def holds(self) -> bool:
        return self.acyclic and self.legal


def run_sharded(
    history: History,
    condition: str,
    shards: Tuple[Shard, ...],
    *,
    workers: int = 1,
    want_witness: bool = False,
) -> ShardOutcome:
    """Check each shard independently and merge.

    Soundness and exactness: under the object-partitioned certificate
    every non-initial base edge is intra-process, so the global order
    is cyclic iff some shard is, every interfering triple (D 4.2) is
    intra-shard, and the global ``~rw`` cover is the union of the
    shard covers (at most one pair per read crosses the fork/JSON
    boundary).  The witness is one global FIFO-Kahn pass over the
    cover-edge set plus the merged cover pairs — identical to the
    monolithic extended-relation witness.

    ``workers > 1`` fans shards out over a :class:`multiprocessing`
    pool; on platforms with ``fork`` the workers inherit the history
    copy-on-write and slice their own shard (no serialization), while
    spawn-only platforms fall back to shipping sub-histories as JSON
    via ``repro.core.serialize``.  Shard order is deterministic
    (ascending shard key) and any pool failure falls back to
    in-process serial execution.
    """
    parallel = False
    pooled: Optional[List[ShardReport]] = None
    if workers > 1 and len(shards) > 1:
        pooled = _map_shards_forked(history, shards, condition, workers)
        if pooled is None:
            pooled = _map_shards_json(history, shards, condition, workers)
    reports: List[ShardReport]
    if pooled is not None:
        reports = pooled
        parallel = True
    else:
        reports = []
        for shard in shards:
            sub = shard_history(history, shard)
            result = _check_shard(sub, condition)
            reports.append(
                ShardReport(
                    key=shard.key,
                    acyclic=result.acyclic,
                    legal=result.legal,
                    rw=result.rw,
                )
            )

    acyclic = all(report.acyclic for report in reports)
    legal = acyclic and all(report.legal for report in reports)
    witness: Optional[List[int]] = None
    if want_witness and acyclic and legal:
        with get_tracer().span(
            "check.witness",
            reads=len(HistoryIndex.of(history).proper_reads()),
            rw_edges=sum(len(report.rw) for report in reports),
        ):
            pos, succ = _cover_successors(history, condition, ())
            for report in reports:
                for a_uid, c_uid in report.rw:
                    succ[pos[a_uid]].add(pos[c_uid])
            witness = _fifo_topo(history.uids, succ)
        assert witness is not None, (
            "Lemma 3/4 violated: merged extended relation of a legal "
            "object-partitioned history is cyclic"
        )
    return ShardOutcome(
        acyclic=acyclic,
        legal=legal,
        reports=tuple(reports),
        witness=witness,
        parallel=parallel,
    )
