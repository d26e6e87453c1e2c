"""Why a violated verdict is violated, as the deciding pass found it.

Under the OO- or WW-constraint an inadmissible history is illegal
(Theorem 7), so a cycle in ``~H`` or one D 4.6 illegal triple is a
complete proof of a violation.  Every checker path hands one back with
its verdict (``ConsistencyVerdict.refutation``,
``LiveMonitor.violations``), read off the data that path already
holds.  Where no short proof exists in general (Theorems 1-2) the
refutation is the exhaustive search itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.history import History
from repro.core.index import HistoryIndex, condition_row
from repro.core.relations import Relation

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.admissibility import SearchStats

Pair = Tuple[int, int]

#: cycle step label -> the relation that orders the step's m-operation
#: before the next step's, as printed.
LABELS = {
    "init": "initial m-operation", "p": "process order",
    "rf": "reads-from", "t": "real time", "x": "object order",
    "extra": "supplied order", "path": "a path of the order",
}


@dataclass(frozen=True)
class Refutation:
    """The reason a consistency condition fails.

    ``kind`` says which of the other fields carries it:

    * ``"cycle"``: ``cycle``, ``(uid, label)`` steps (see
      :data:`LABELS`), the last closing back on the first;
    * ``"illegal"``: ``triple``, ``(reader, writer, overwriter)``, and
      ``obj``: the overwriter is ordered strictly between the writer
      and the reader of ``obj``;
    * ``"undelivered"``: ``undelivered``, updates that never received a
      ``~ww`` position, on which the completed ``blocked`` depends;
    * ``"search"``: ``stats`` of the exact search over an acyclic,
      legal base order: it exhausted every linear extension, or
      (``stats.nodes == 0``) the D 4.11 ``~rw`` pairs it adds before
      searching already made the order cyclic.  For a per-process
      condition ``process`` names the process whose view it searched.
    """

    kind: str
    condition: str
    cycle: Tuple[Tuple[int, str], ...] = ()
    triple: Optional[Tuple[int, int, int]] = None
    obj: Optional[str] = None
    undelivered: Tuple[int, ...] = ()
    blocked: Optional[int] = None
    stats: Optional[SearchStats] = None
    process: Optional[int] = None

    def __str__(self) -> str:
        head = f"{self.condition} violated: "
        if self.kind == "cycle":
            steps = self.cycle[1:] + self.cycle[:1]
            return head + "order cycle:" + "".join(
                f"\n  m#{uid} -> m#{nxt} [{LABELS[label]}]"
                for (uid, label), (nxt, _) in zip(self.cycle, steps)
            )
        if self.kind == "illegal":
            reader, writer, overwriter = self.triple
            return head + (
                f"illegal triple (D 4.6): m#{reader} reads {self.obj!r} "
                f"from m#{writer}, but m#{overwriter} overwrites it and is "
                "ordered strictly between them"
            )
        if self.kind == "undelivered":
            missing = ", ".join(f"m#{uid}" for uid in self.undelivered)
            return head + (
                f"m#{self.blocked} completed but {missing} never received "
                "a broadcast position: the update it depends on was never "
                "delivered"
            )
        ordering = "no legal sequential ordering"
        if self.process is not None:
            ordering += (
                f" of P{self.process}'s view (every update plus "
                f"P{self.process}'s m-operations)"
            )
        if self.stats.nodes == 0:
            return head + ordering + (
                " exists (the order is acyclic and legal, but placing "
                "every read before the overwriters of its writer, D 4.11, "
                "closes a cycle)"
            )
        return head + ordering + (
            f" exists (exhaustive search explored {self.stats.nodes} "
            "states; the conflict is global rather than a single cycle "
            "or triple)"
        )


def label_cycle(
    history: History,
    condition: str,
    extra_pairs: Iterable[Pair],
    uids: List[int],
) -> Refutation:
    """The cycle ``uids`` of the condition's base order plus
    ``extra_pairs``, each edge labelled by the first generating
    relation that contains it, rotated to start at its earliest
    m-operation in ``history.uids`` order — so a cycle reads the same
    whichever pass found it."""
    real_time, objects = condition_row(condition).orders
    index = HistoryIndex.of(history)
    first = min(range(len(uids)), key=lambda k: index.positions[uids[k]])
    uids = uids[first:] + uids[:first]
    chains = index.process_chains
    rank: Dict[int, Pair] = {}  # the cycle's (process, issue position)s
    for uid in uids:
        chain = chains.get(history[uid].process, ())
        if uid in chain:
            rank[uid] = (history[uid].process, chain.index(uid))
    reads_from = history.reads_from_map
    extra = set(extra_pairs)

    def label(a: int, b: int) -> str:
        mop_a, mop_b = history[a], history[b]
        if a == history.init.uid:
            return "init"
        if rank[a][0] == rank[b][0] and rank[a] < rank[b]:
            return "p"
        if any(reads_from.get((b, obj)) == a for obj in mop_b.robjects):
            return "rf"
        if (real_time or objects and mop_a.objects & mop_b.objects) and (
            mop_a.resp < mop_b.inv
        ):
            return "t" if real_time else "x"
        return "extra" if (a, b) in extra else "path"

    steps = uids[1:] + uids[:1]
    return Refutation(
        "cycle", condition, cycle=tuple(zip(uids, map(label, uids, steps)))
    )


def refute_order(
    history: History,
    condition: str,
    base: Relation,
    extra_pairs: Tuple[Pair, ...],
) -> Optional[Refutation]:
    """A cycle of the history index's ``base``, else the first D 4.6
    illegal triple under its (cached) closure, else None.

    The cycle is the shortest one through the first cyclic position
    (:func:`_shortest_cycle`).  The triple is the first overwritten
    read with its lowest-position overwriter.
    """
    nodes = base.nodes  # the history's uids, as the index orders them
    if not base.is_acyclic():
        rows = base.closure_rows().succ
        v = next(i for i, row in enumerate(rows) if row >> i & 1)
        cycle = [nodes[i] for i in _shortest_cycle(base._succ, rows, v)]
        return label_cycle(history, condition, extra_pairs, cycle)
    hit = next(HistoryIndex.of(history)._overwritten_reads(base), None)
    if hit is None:
        return None
    reader, writer, obj, between = hit
    overwriter = nodes[(between & -between).bit_length() - 1]
    return Refutation(
        "illegal", condition, triple=(reader, writer, overwriter), obj=obj
    )


def _shortest_cycle(succ: List[int], rows: List[int], v: int) -> List[int]:
    """Positions of a shortest cycle through position ``v``, ``v``
    first: a breadth-first search over the edge masks ``succ``, one
    level at a time, kept inside ``succ*[v] & pred*[v]`` — the
    positions whose closure row (``rows``) equals ``v``'s."""
    row_v = rows[v]
    levels = [[v]]
    seen = 1 << v
    while True:
        reached = 0
        for i in levels[-1]:
            reached |= succ[i]
        if reached >> v & 1:
            break
        fresh = reached & row_v & ~seen
        seen |= fresh
        bits = bin(fresh)[:1:-1]  # bits[j] == "1" iff bit j is set
        level = []
        j = bits.find("1")
        while j >= 0:
            if rows[j] == row_v:
                level.append(j)
            j = bits.find("1", j + 1)
        levels.append(level)
    path = [v]
    for level in reversed(levels[1:]):
        path.append(next(i for i in level if succ[i] >> path[-1] & 1))
    return path[:1] + path[:0:-1]
