"""Randomized workload generation (S18).

Two families of generators:

* **Program workloads** (:func:`random_workloads`) — per-process
  sequences of :class:`~repro.protocols.store.MProgram` drawn from a
  configurable mix of the Section-1 multi-methods, for driving
  protocol clusters.  Write values are globally unique so derived
  histories always have an unambiguous reads-from relation.
* **Abstract histories** (:func:`random_serial_history`,
  :func:`stretch_history`, :func:`corrupt_history`) — histories built
  directly (no simulation) with controlled properties, for exercising
  the checkers: serial histories are m-linearizable by construction;
  stretching intervals preserves m-sequential consistency but can
  break m-linearizability; corruption injects reads-from edits that
  break m-sequential consistency itself.

All generators take explicit seeds and are deterministic.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.history import History
from repro.core.operation import MOperation, Operation, read, write
from repro.errors import WorkloadError
from repro.objects.multimethods import (
    balance_total,
    dcas,
    m_assign,
    m_read,
    read_reg,
    sum_of,
    transfer,
    write_reg,
)
from repro.protocols.store import MProgram


@dataclass(frozen=True)
class WorkloadMix:
    """Relative weights of the program families in a random workload.

    All weights are non-negative; at least one must be positive.
    """

    read: float = 3.0
    write: float = 3.0
    m_read: float = 1.0
    m_assign: float = 1.0
    dcas: float = 0.5
    transfer: float = 0.5
    audit: float = 0.5
    sum: float = 0.5

    def entries(self) -> List[Tuple[str, float]]:
        pairs = [
            ("read", self.read),
            ("write", self.write),
            ("m_read", self.m_read),
            ("m_assign", self.m_assign),
            ("dcas", self.dcas),
            ("transfer", self.transfer),
            ("audit", self.audit),
            ("sum", self.sum),
        ]
        if all(weight <= 0 for _name, weight in pairs):
            raise WorkloadError("workload mix has no positive weight")
        return pairs


class _WeightedDraws:
    """Draws by weight with ``random.choices``' own arithmetic.

    ``rng.choices(population, weights)[0]`` accumulates the weights,
    then picks ``population[bisect(cum, rng.random() * total, 0,
    n - 1)]`` with ``total = cum[-1] + 0.0``.  This holds the weights
    accumulated once; every draw takes exactly one ``rng.random()``
    and raises the ``ValueError`` ``choices`` raises, so what it draws
    is what ``choices`` would have drawn from the same generator.
    """

    __slots__ = ("_random", "_weights", "_cum", "_total", "_hi")

    def __init__(self, rng: random.Random, weights: Iterable[float]) -> None:
        self._random = rng.random
        self._weights = list(weights)
        self._cum = list(itertools.accumulate(self._weights))
        self._total = self._cum[-1] + 0.0 if self._cum else math.nan
        self._hi = len(self._cum) - 1

    def index(self) -> int:
        """One index, drawn with replacement."""
        total = self._total
        if not 0.0 < total < math.inf:
            _refuse(total)
        return bisect_right(self._cum, self._random() * total, 0, self._hi)

    def sample(self, population: Sequence[str], k: int) -> List[str]:
        """``k`` members of ``population`` (one per weight, in order)
        without replacement: each draw is :meth:`index` over the
        members left.  A draw pops its member's weight, and only the
        cumulative weights after it are accumulated again."""
        pool = list(population)
        weights = self._weights[:]
        cum = self._cum[:]
        random = self._random
        chosen: List[str] = []
        for left in range(k - 1, -1, -1):
            total = cum[-1] + 0.0
            if not 0.0 < total < math.inf:
                _refuse(total)
            index = bisect_right(cum, random() * total, 0, len(cum) - 1)
            chosen.append(pool.pop(index))
            if left:
                del weights[index]
                if index:
                    cum[index - 1:] = itertools.accumulate(
                        weights[index:], initial=cum[index - 1]
                    )
                else:
                    cum[:] = itertools.accumulate(weights)
        return chosen


def _refuse(total: float) -> None:
    """Raise what ``random.choices`` raises for weights summing to
    ``total``."""
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    raise ValueError("Total of weights must be finite")


#: Mix with only blind writes and reads — safe for the local-gossip
#: negative control (see repro.protocols.local's workload caveat).
BLIND_MIX = WorkloadMix(
    read=2.0,
    write=3.0,
    m_read=1.0,
    m_assign=1.0,
    dcas=0.0,
    transfer=0.0,
    audit=1.0,
    sum=0.0,
)


def random_workloads(
    n_processes: int,
    objects: Sequence[str],
    ops_per_process: int,
    *,
    mix: Optional[WorkloadMix] = None,
    seed: int = 0,
    span: int = 2,
    zipf_s: float = 0.0,
) -> List[List[MProgram]]:
    """Generate one random program sequence per process.

    Args:
        n_processes: number of processes.
        objects: shared object names (at least 2 for multi-object
            programs to be generable).
        ops_per_process: programs per process.
        mix: family weights (default :class:`WorkloadMix`).
        seed: RNG seed.
        span: number of objects touched by multi-object programs
            (clamped to ``len(objects)``).
        zipf_s: skew of object selection.  0 (default) is uniform;
            larger values concentrate accesses on the first objects
            (weight of the k-th object proportional to
            ``1 / (k+1)**zipf_s``) — the standard hot-spot/contention
            knob.

    Write values are unique across the whole workload (drawn from one
    shared counter), so histories recorded from these programs always
    have derivable reads-from relations.

    Every weighted draw — the program family, and a skewed object
    pick — goes through one helper that :func:`random_serial_history`
    shares: it bisects weights accumulated once per call, and equals
    ``random.choices`` by construction (one ``rng.random()`` per draw,
    the same arithmetic), so a seed draws the same workload either
    way.
    """
    if not objects:
        raise WorkloadError("need at least one object")
    if zipf_s < 0:
        raise WorkloadError("zipf_s must be non-negative")
    mix = mix or WorkloadMix()
    entries = mix.entries()
    names = [name for name, _w in entries]
    rng = random.Random(seed)
    kinds = _WeightedDraws(rng, (w for _name, w in entries))
    value_counter = itertools.count(1)
    span = max(1, min(span, len(objects)))
    object_list = list(objects)
    try:
        picks = _WeightedDraws(
            rng,
            (1.0 / (rank + 1) ** zipf_s for rank in range(len(object_list))),
        )
    except OverflowError:
        raise WorkloadError(
            f"zipf_s={zipf_s} overflows the weight of one of "
            f"{len(object_list)} objects"
        ) from None

    def pick_one() -> str:
        if zipf_s == 0:
            return rng.choice(object_list)
        return object_list[picks.index()]

    def pick_objs(k: int) -> List[str]:
        k = min(k, len(object_list))
        if zipf_s == 0:
            return rng.sample(object_list, k=k)
        return picks.sample(object_list, k)

    def make_program(kind: str) -> MProgram:
        if kind == "read":
            return read_reg(pick_one())
        if kind == "write":
            return write_reg(pick_one(), next(value_counter))
        if kind == "m_read":
            return m_read(pick_objs(span))
        if kind == "m_assign":
            return m_assign(
                {obj: next(value_counter) for obj in pick_objs(span)}
            )
        if kind == "dcas":
            o1, o2 = pick_objs(2) if len(objects) >= 2 else (objects[0],) * 2
            if o1 == o2:
                return write_reg(o1, next(value_counter))
            # Expected values are guesses; most DCAS attempts fail,
            # exercising the no-write path of a conservative update.
            return dcas(
                o1,
                o2,
                rng.randint(0, 3),
                rng.randint(0, 3),
                next(value_counter),
                next(value_counter),
            )
        if kind == "transfer":
            o1, o2 = pick_objs(2) if len(objects) >= 2 else (objects[0],) * 2
            if o1 == o2:
                return read_reg(o1)
            return transfer(o1, o2, rng.randint(1, 5))
        if kind == "audit":
            return balance_total(pick_objs(span))
        if kind == "sum":
            o1, o2 = pick_objs(2) if len(objects) >= 2 else (objects[0],) * 2
            if o1 == o2:
                return read_reg(o1)
            return sum_of(o1, o2)
        raise WorkloadError(f"unknown program kind {kind!r}")

    return [
        [make_program(names[kinds.index()]) for _ in range(ops_per_process)]
        for _pid in range(n_processes)
    ]


# ----------------------------------------------------------------------
# Abstract-history generators (no simulation)
# ----------------------------------------------------------------------


#: ``HistoryShape.distribution`` -> zipf skew of object selection.
#: 0 is uniform; higher values concentrate accesses on low-indexed
#: objects, matching the program-workload ``zipf_s`` knob.
DISTRIBUTION_SKEW: Dict[str, float] = {
    "uniform": 0.0,
    "zipfian": 1.0,
    "hotspot": 1.5,
}


@dataclass(frozen=True)
class HistoryShape:
    """Parameters of a random abstract history.

    Attributes:
        n_processes: processes issuing m-operations.
        n_objects: number of shared objects (named ``x0 ... x{k-1}``).
        n_mops: total m-operations.
        reads_per_mop: external reads per m-operation (upper bound).
        writes_per_mop: writes per m-operation (upper bound).
        query_fraction: fraction of m-operations that only read.
        distribution: object-selection skew — one of
            :data:`DISTRIBUTION_SKEW`.  The default ``"uniform"`` is
            byte-identical to the pre-knob generator for every seed.
    """

    n_processes: int = 3
    n_objects: int = 3
    n_mops: int = 9
    reads_per_mop: int = 2
    writes_per_mop: int = 2
    query_fraction: float = 0.4
    distribution: str = "uniform"


def _object_picker(rng: random.Random, distribution: str):
    """A ``pick(pool, k)`` closure honouring the distribution knob.

    The uniform path delegates straight to ``rng.sample`` — the exact
    call the generators made before the knob existed, so uniform
    histories are byte-identical per seed.  Skewed paths do weighted
    sampling without replacement with the draw helper of
    ``random_workloads``, its rank weights accumulated once per pool
    size.
    """
    skew = DISTRIBUTION_SKEW.get(distribution)
    if skew is None:
        raise WorkloadError(
            f"unknown distribution {distribution!r}; expected one of "
            f"{tuple(DISTRIBUTION_SKEW)}"
        )
    if skew == 0.0:
        return lambda pool, k: rng.sample(pool, k=k)

    ranked: Dict[int, _WeightedDraws] = {}

    def pick(pool: Sequence[str], k: int) -> List[str]:
        draws = ranked.get(len(pool))
        if draws is None:
            draws = ranked[len(pool)] = _WeightedDraws(
                rng, (1.0 / (rank + 1) ** skew for rank in range(len(pool)))
            )
        return draws.sample(pool, k)

    return pick


def random_serial_history(
    shape: HistoryShape, *, seed: int = 0
) -> History:
    """A random history that is m-linearizable *by construction*.

    m-operations are generated against a single evolving store, one at
    a time, with disjoint, strictly increasing intervals — the
    generation order itself is a legal linearization respecting real
    time, so every consistency condition holds.
    """
    rng = random.Random(seed)
    pick = _object_picker(rng, shape.distribution)
    objects = [f"x{i}" for i in range(shape.n_objects)]
    store: Dict[str, int] = {obj: 0 for obj in objects}
    value_counter = itertools.count(1)
    mops: List[MOperation] = []
    clock = 0.0
    for uid in range(1, shape.n_mops + 1):
        process = rng.randrange(shape.n_processes)
        is_query = rng.random() < shape.query_fraction
        ops: List[Operation] = []
        n_reads = rng.randint(1, max(1, shape.reads_per_mop))
        for obj in pick(objects, min(n_reads, len(objects))):
            ops.append(read(obj, store[obj]))
        if not is_query:
            n_writes = rng.randint(1, max(1, shape.writes_per_mop))
            for obj in pick(objects, min(n_writes, len(objects))):
                value = next(value_counter)
                ops.append(write(obj, value))
                store[obj] = value
        inv = clock + rng.uniform(0.1, 0.5)
        resp = inv + rng.uniform(0.1, 0.5)
        clock = resp
        mops.append(
            MOperation(
                uid=uid,
                process=process,
                ops=tuple(ops),
                inv=inv,
                resp=resp,
                name=f"op{uid}",
            )
        )
    return History.from_mops(mops)


def random_partitioned_history(
    shape: HistoryShape, *, seed: int = 0
) -> History:
    """A random *object-partitioned* history (the D 4.10 family input).

    Like :func:`random_serial_history` — serial generation against an
    evolving store, so the history is m-linearizable by construction —
    but each process owns a private object namespace ``x{p}_{k}``
    (``shape.n_objects`` objects per process) and every m-operation
    touches only its issuing process's objects.  The result therefore
    satisfies the object-partitioned certificate
    (:func:`repro.analysis.static.certify_partitioned_history`), which
    lowers the check to the linear scan of :mod:`repro.core.plan`:
    object groups never interact, so each process's update chain
    orders everything its reads can see.
    """
    rng = random.Random(seed)
    pick = _object_picker(rng, shape.distribution)
    namespaces = [
        [f"x{p}_{k}" for k in range(shape.n_objects)]
        for p in range(shape.n_processes)
    ]
    store: Dict[str, int] = {
        obj: 0 for objects in namespaces for obj in objects
    }
    value_counter = itertools.count(1)
    mops: List[MOperation] = []
    clock = 0.0
    for uid in range(1, shape.n_mops + 1):
        process = rng.randrange(shape.n_processes)
        objects = namespaces[process]
        is_query = rng.random() < shape.query_fraction
        ops: List[Operation] = []
        n_reads = rng.randint(1, max(1, shape.reads_per_mop))
        for obj in pick(objects, min(n_reads, len(objects))):
            ops.append(read(obj, store[obj]))
        if not is_query:
            n_writes = rng.randint(1, max(1, shape.writes_per_mop))
            for obj in pick(objects, min(n_writes, len(objects))):
                value = next(value_counter)
                ops.append(write(obj, value))
                store[obj] = value
        inv = clock + rng.uniform(0.1, 0.5)
        resp = inv + rng.uniform(0.1, 0.5)
        clock = resp
        mops.append(
            MOperation(
                uid=uid,
                process=process,
                ops=tuple(ops),
                inv=inv,
                resp=resp,
                name=f"op{uid}",
            )
        )
    return History.from_mops(mops)


def stretch_history(
    history: History, *, seed: int = 0, slack: float = 5.0
) -> History:
    """Randomly widen intervals while keeping process order.

    The identity of every m-operation (operations, reads-from) is
    unchanged, and per-process sequencing is preserved, so the result
    remains m-sequentially consistent whenever the input was (the same
    witness works).  Real-time order, however, loses edges and *gains
    none*, so the result is still m-linearizable too — the point of
    stretching is to create overlap so that the exact checker faces
    real branching.  To obtain histories that are m-SC but **not**
    m-lin, combine with :func:`shift_process` (which re-times one
    process's operations wholesale, possibly re-ordering them against
    other processes' responses).
    """
    rng = random.Random(seed)
    epsilon = 1e-9
    new_mops: List[MOperation] = []
    for proc in history.processes:
        seq = history.subhistory(proc)
        prev_resp: Optional[float] = None
        for idx, mop in enumerate(seq):
            assert mop.inv is not None and mop.resp is not None
            # Widen only: inv may move earlier (but not before the
            # previous same-process response), resp may move later
            # (but not past the next same-process invocation).  This
            # guarantees inv_new <= inv_old and resp_new >= resp_old,
            # so the real-time order can only lose edges.
            inv = mop.inv - rng.uniform(0, slack)
            if prev_resp is not None:
                inv = max(inv, prev_resp + epsilon)
            inv = min(inv, mop.inv)
            resp = mop.resp + rng.uniform(0, slack)
            if idx + 1 < len(seq):
                next_inv = seq[idx + 1].inv
                assert next_inv is not None
                resp = min(resp, next_inv - epsilon)
            resp = max(resp, mop.resp)
            prev_resp = resp
            new_mops.append(mop.with_times(inv, resp))
    return History.from_mops(
        new_mops, reads_from=history.reads_from_map
    )


def shift_process(
    history: History, process: int, offset: float
) -> History:
    """Translate one process's intervals by ``offset`` in time.

    Process subhistories and reads-from are untouched, so
    m-sequential consistency is invariant under this transformation;
    real-time order is not, so shifting a reader far later than the
    writes it read typically breaks m-linearizability (its reads
    become stale with respect to newer committed writes).
    """
    new_mops = []
    for mop in history.mops:
        if mop.process == process:
            assert mop.inv is not None and mop.resp is not None
            new_mops.append(mop.with_times(mop.inv + offset, mop.resp + offset))
        else:
            new_mops.append(mop)
    return History.from_mops(new_mops, reads_from=history.reads_from_map)


def permute_uids(history: History, *, seed: int = 0) -> History:
    """Relabel m-operation uids by a random permutation.

    Semantically a no-op (admissibility and every consistency
    condition are invariant under relabelling), but it removes the
    accidental alignment between uid order and generation order that
    lets a depth-first checker walk straight to a witness — useful
    for stressing search behaviour.
    """
    rng = random.Random(seed)
    old_uids = [m.uid for m in history.mops]
    shuffled = old_uids[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(old_uids, shuffled))
    mapping[history.init.uid] = history.init.uid
    new_mops = [
        MOperation(
            uid=mapping[m.uid],
            process=m.process,
            ops=m.ops,
            inv=m.inv,
            resp=m.resp,
            name=m.name,
        )
        for m in history.mops
    ]
    reads_from = {
        (mapping[reader], obj): mapping[writer]
        for (reader, obj), writer in history.reads_from_map.items()
    }
    return History.from_mops(new_mops, reads_from=reads_from)


def corrupt_history(
    history: History, *, seed: int = 0
) -> Optional[History]:
    """Rewire one reads-from edge to another writer, if possible.

    Picks a read whose object has at least two distinct writers and
    redirects it to a different writer (fixing the read's value to
    match).  The result frequently violates m-sequential consistency;
    tests assert the checker *detects* a violation whenever the exact
    search confirms one, not that every corruption is inconsistent.

    Returns None when the history has no rewirable read.
    """
    rng = random.Random(seed)
    writers_by_obj: Dict[str, List[int]] = {}
    for mop in history.all_mops:
        for obj in mop.external_writes:
            writers_by_obj.setdefault(obj, []).append(mop.uid)
    candidates = [
        (reader_uid, obj, writer_uid)
        for (reader_uid, obj), writer_uid in history.reads_from_map.items()
        if len(set(writers_by_obj.get(obj, []))) >= 2
    ]
    if not candidates:
        return None
    reader_uid, obj, old_writer = rng.choice(candidates)
    alternatives = [
        uid
        for uid in writers_by_obj[obj]
        if uid not in (old_writer, reader_uid)
    ]
    if not alternatives:
        return None
    return rewire_read(history, reader_uid, obj, rng.choice(alternatives))


def corruption_kind(history: History, twin: History) -> str:
    """Whether a :func:`corrupt_history` twin of ``history`` reads a
    ``"stale"`` writer (older than the one it replaced, by uid: the
    issue order of :func:`random_serial_history`; an overwriter then
    sits between them, D 4.6) or a ``"future"`` one (newer: the update
    order runs against the read, a cycle)."""
    original = history.reads_from_map
    ((key, writer),) = [
        (key, writer)
        for key, writer in twin.reads_from_map.items()
        if original.get(key) != writer
    ]
    return "future" if writer > original[key] else "stale"


def rewire_read(
    history: History, reader_uid: int, obj: str, new_writer: int
) -> History:
    """``history`` with ``reader_uid``'s external read of ``obj``
    redirected to ``new_writer`` (the read's value fixed to match)."""
    new_value = history[new_writer].external_writes[obj]
    new_mops: List[MOperation] = []
    for mop in history.mops:
        if mop.uid != reader_uid:
            new_mops.append(mop)
            continue
        ops = []
        seen_write = set()
        for op in mop.ops:
            if op.is_write:
                seen_write.add(op.obj)
                ops.append(op)
            elif op.obj == obj and op.obj not in seen_write:
                ops.append(read(obj, new_value))
            else:
                ops.append(op)
        new_mops.append(
            MOperation(
                uid=mop.uid,
                process=mop.process,
                ops=tuple(ops),
                inv=mop.inv,
                resp=mop.resp,
                name=mop.name,
            )
        )
    reads_from = dict(history.reads_from_map)
    reads_from[(reader_uid, obj)] = new_writer
    return History.from_mops(new_mops, reads_from=reads_from)
