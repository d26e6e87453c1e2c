"""Binary relations over m-operation identifiers.

Histories in the paper are pairs ``(op(H), ~H)`` where ``~H`` is an
irreflexive transitive relation on the m-operations.  This module
provides a small relation algebra used by every definition in Sections
2-5: union, transitive closure, acyclicity, topological extension, and
linear-extension enumeration.

The implementation represents successor sets as integer bitmasks over a
fixed, ordered universe of node identifiers.  The transitive closure is
computed lazily and cached on the relation (mutation invalidates it) by
one pass over the strongly connected components in reverse topological
order, ``O(E * n/64)`` word operations over the *generating* edges, so
relations built from cover edges (per-process chains, reads-from) close
in near-linear time whether or not they are cyclic.  The same pass over
the reversed edges gives the predecessor rows (:class:`ClosureRows`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import RelationError

Pair = Tuple[int, int]


def _reachability(edges: Sequence[int]) -> Tuple[List[int], bool]:
    """Reachability rows of the digraph ``edges`` and whether it is acyclic.

    ``edges[i]`` is the bitmask of direct successors of position ``i``.
    Tarjan's algorithm (iterative) emits each strongly connected
    component after every component it reaches, so a component's row
    is the OR of its members' edges and of the finished rows behind
    them — one big-int OR per edge.  All members of a component share
    the row; in a component of several members every member has an
    in-edge from another, so the row holds their own bits too:
    self-reachability marks the cycles.
    """
    n = len(edges)
    rows = [0] * n
    number = [0] * n  # DFS discovery number, 0 = not yet visited
    low = [0] * n
    open_ = [False] * n  # on the component stack
    stack: List[int] = []
    acyclic = True
    count = 0
    for root in range(n):
        if number[root]:
            continue
        count += 1
        number[root] = low[root] = count
        open_[root] = True
        stack.append(root)
        path = [root]
        todo = [edges[root]]
        while path:
            v = path[-1]
            mask = todo[-1]
            if mask:
                bit = mask & -mask
                todo[-1] = mask ^ bit
                w = bit.bit_length() - 1
                if not number[w]:
                    count += 1
                    number[w] = low[w] = count
                    open_[w] = True
                    stack.append(w)
                    path.append(w)
                    todo.append(edges[w])
                elif open_[w] and number[w] < low[v]:
                    low[v] = number[w]
                continue
            path.pop()
            todo.pop()
            if path and low[v] < low[path[-1]]:
                low[path[-1]] = low[v]
            if low[v] != number[v]:
                continue
            # v roots a component: everything above it on the stack.
            cut = len(stack) - 1
            while stack[cut] != v:
                cut -= 1
            members = stack[cut:]
            del stack[cut:]
            acc = 0
            for w in members:
                open_[w] = False
                mask = edges[w]
                acc |= mask
                while mask:
                    bit = mask & -mask
                    acc |= rows[bit.bit_length() - 1]
                    mask ^= bit
            for w in members:
                rows[w] = acc
            if acc >> v & 1:
                acyclic = False
    return rows, acyclic


class ClosureRows:
    """Reachability rows of one edge set, by universe position.

    Bit ``j`` of ``succ[i]`` (and bit ``i`` of ``pred[j]``) is set iff
    a non-empty path leads from position ``i`` to position ``j``;
    positions on a cycle reach themselves.  ``pred`` is computed on
    first use, by the same pass over the reversed edges.  One instance
    is shared by a relation, its unmutated copies and its transitive
    closure, so rows computed through any of them serve all: read-only.
    """

    __slots__ = ("_edges", "succ", "_pred")

    def __init__(
        self,
        edges: Sequence[int],
        succ: List[int],
        pred: Optional[List[int]] = None,
    ) -> None:
        self._edges = edges  # a snapshot: the owner may be mutated later
        self.succ = succ
        self._pred = pred

    @property
    def pred(self) -> List[int]:
        if self._pred is None:
            reverse = [0] * len(self._edges)
            for i, mask in enumerate(self._edges):
                bit_i = 1 << i
                while mask:
                    low = mask & -mask
                    reverse[low.bit_length() - 1] |= bit_i
                    mask ^= low
            self._pred, _ = _reachability(reverse)
        return self._pred


class Relation:
    """An irreflexive binary relation over a fixed universe of node ids.

    The universe is fixed at construction; adding a pair with an
    unknown endpoint raises :class:`RelationError`.  Self-loops are
    rejected at :meth:`add` time (the paper's relations are
    irreflexive), but a *cycle* created by several pairs is permitted
    and detectable via :meth:`is_acyclic` — e.g. Theorem 2 notes that
    ``~H`` may be acyclic while ``H`` is not m-linearizable, so cycle
    detection is a first-class query rather than an invariant.
    """

    __slots__ = ("_nodes", "_index", "_succ", "_closure", "_acyclic")

    def __init__(self, nodes: Iterable[int], pairs: Iterable[Pair] = ()) -> None:
        self._nodes: Tuple[int, ...] = tuple(dict.fromkeys(nodes))
        self._index: Dict[int, int] = {n: i for i, n in enumerate(self._nodes)}
        if len(self._index) != len(self._nodes):  # pragma: no cover
            raise RelationError("duplicate node ids in relation universe")
        self._succ: List[int] = [0] * len(self._nodes)
        #: Cached closure rows (None until computed); the cached lists
        #: are never mutated in place, so copies may share them.
        self._closure: Optional[ClosureRows] = None
        self._acyclic: Optional[bool] = None
        for a, b in pairs:
            self.add(a, b)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[int, ...]:
        """The universe of node ids, in construction order."""
        return self._nodes

    def __len__(self) -> int:
        """Number of pairs in the relation."""
        return sum(mask.bit_count() for mask in self._succ)

    def __contains__(self, pair: Pair) -> bool:
        a, b = pair
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None:
            return False
        return bool(self._succ[ia] >> ib & 1)

    def pairs(self) -> Iterator[Pair]:
        """Iterate over all ``(a, b)`` pairs in the relation."""
        for ia, mask in enumerate(self._succ):
            a = self._nodes[ia]
            while mask:
                low = mask & -mask
                ib = low.bit_length() - 1
                yield (a, self._nodes[ib])
                mask ^= low

    def successors(self, a: int) -> Set[int]:
        """The set ``{b : a ~ b}``."""
        ia = self._require(a)
        return self._unpack(self._succ[ia])

    def predecessors(self, b: int) -> Set[int]:
        """The set ``{a : a ~ b}``."""
        ib = self._require(b)
        return {
            self._nodes[ia]
            for ia in range(len(self._nodes))
            if self._succ[ia] >> ib & 1
        }

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, a: int, b: int) -> None:
        """Add the pair ``a ~ b``; self-loops are rejected."""
        if a == b:
            raise RelationError(f"relation is irreflexive; cannot add ({a}, {b})")
        ia = self._require(a)
        ib = self._require(b)
        bit = 1 << ib
        if not self._succ[ia] & bit:
            self._closure = None
            self._acyclic = None
            self._succ[ia] |= bit

    def add_all(self, pairs: Iterable[Pair]) -> None:
        """Add every pair in ``pairs``."""
        for a, b in pairs:
            self.add(a, b)

    def discard(self, a: int, b: int) -> None:
        """Remove the pair ``a ~ b`` if present."""
        ia = self._require(a)
        ib = self._require(b)
        bit = 1 << ib
        if self._succ[ia] & bit:
            self._closure = None
            self._acyclic = None
            self._succ[ia] &= ~bit

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def copy(self) -> "Relation":
        """An independent copy sharing the same universe.

        The cached closure (if any) is carried over by reference: the
        cache list is immutable once computed, and any mutation of the
        copy invalidates its own reference without touching the
        original's.
        """
        clone = Relation(self._nodes)
        clone._succ = list(self._succ)
        clone._closure = self._closure
        clone._acyclic = self._acyclic
        return clone

    def union(self, other: "Relation") -> "Relation":
        """The union of two relations over the same universe."""
        self._check_same_universe(other)
        result = Relation(self._nodes)
        result._succ = [
            mine | theirs for mine, theirs in zip(self._succ, other._succ)
        ]
        return result

    def __or__(self, other: "Relation") -> "Relation":
        return self.union(other)

    def issubset(self, other: "Relation") -> bool:
        """True iff the order ``self`` generates is contained in the
        order ``other`` generates.

        Compares transitive closures, so the cover-edge generating sets
        the order builders return compare as the orders they stand for.
        """
        self._check_same_universe(other)
        return all(
            mine & ~theirs == 0
            for mine, theirs in zip(
                self.closure_rows().succ, other.closure_rows().succ
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._nodes == other._nodes and self._succ == other._succ

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable
        raise TypeError("Relation is unhashable")

    def transitive_closure(self) -> "Relation":
        """The transitive closure, as a new relation.

        Computed lazily and cached: repeated calls (and calls on
        :meth:`copy`-derived relations that have not been mutated)
        reuse the same successor masks.  The returned relation is its
        own closure, so chaining ``.transitive_closure()`` or asking it
        :meth:`is_acyclic` costs nothing further.
        """
        rows = self.closure_rows()
        result = Relation(self._nodes)
        result._succ = list(rows.succ)
        result._closure = rows
        result._acyclic = self._acyclic
        return result

    def closure_rows(self) -> ClosureRows:
        """The ``succ*`` / ``pred*`` rows of the transitive closure,
        computed once per edge set and cached."""
        if self._closure is None:
            edges = tuple(self._succ)
            succ, self._acyclic = _reachability(edges)
            self._closure = ClosureRows(edges, succ)
        return self._closure

    def is_acyclic(self) -> bool:
        """True iff the relation, viewed as a digraph, has no cycle."""
        if self._acyclic is None:
            # A complete topological order certifies acyclicity without
            # materialising the closure.
            if self._topo_indices() is not None:
                self._acyclic = True
            else:
                self._acyclic = False
        return self._acyclic

    def is_irreflexive_transitive(self) -> bool:
        """True iff the relation is already transitively closed and acyclic."""
        return self.is_acyclic() and self == self.transitive_closure()

    def is_total_order(self) -> bool:
        """True iff the relation is a strict total order on its universe."""
        closure = self.transitive_closure()
        if not closure.is_acyclic():
            return False
        n = len(self._nodes)
        # Acyclic, so each pair is ordered in at most one direction;
        # totality is then just a pair count.
        ordered = sum(mask.bit_count() for mask in closure._succ)
        return ordered == n * (n - 1) // 2

    def restricted_to(self, nodes: Iterable[int]) -> "Relation":
        """The restriction of the relation to a subset of its universe.

        Self-pairs are dropped: the transitive closure of a *cyclic*
        relation carries self-reachability internally, and a
        restriction of it should remain a (possibly cyclic) relation
        rather than fail.
        """
        keep = set(nodes)
        result = Relation(n for n in self._nodes if n in keep)
        for a, b in self.pairs():
            if a in keep and b in keep and a != b:
                result.add(a, b)
        return result

    # ------------------------------------------------------------------
    # Linear extensions
    # ------------------------------------------------------------------

    def _topo_indices(self) -> Optional[List[int]]:
        """Kahn's algorithm over node *indices*; None when cyclic.

        Ties broken by universe order, so the result is deterministic.
        """
        n = len(self._nodes)
        indegree = [0] * n
        for mask in self._succ:
            m = mask
            while m:
                low = m & -m
                indegree[low.bit_length() - 1] += 1
                m ^= low
        ready = [i for i in range(n) if indegree[i] == 0]
        order: List[int] = []
        while ready:
            i = ready.pop(0)
            order.append(i)
            mask = self._succ[i]
            while mask:
                low = mask & -mask
                j = low.bit_length() - 1
                indegree[j] -= 1
                if indegree[j] == 0:
                    ready.append(j)
                mask ^= low
        if len(order) != n:
            return None
        return order

    def topological_order(self) -> Optional[List[int]]:
        """One linear extension of the relation, or None if cyclic.

        Kahn's algorithm; ties broken by universe order, so the result
        is deterministic.
        """
        order = self._topo_indices()
        if order is None:
            return None
        return [self._nodes[i] for i in order]

    def linear_extensions(self, limit: Optional[int] = None) -> Iterator[List[int]]:
        """Enumerate linear extensions (topological sorts) of the relation.

        Exponentially many in general; ``limit`` caps the number
        yielded.  Used only by brute-force cross-validation tests.
        """
        n = len(self._nodes)
        preds = [0] * n
        for ia, mask in enumerate(self._succ):
            m = mask
            while m:
                low = m & -m
                preds[low.bit_length() - 1] |= 1 << ia
                m ^= low

        count = 0

        def extend(done_mask: int, prefix: List[int]) -> Iterator[List[int]]:
            nonlocal count
            if limit is not None and count >= limit:
                return
            if len(prefix) == n:
                count += 1
                yield list(prefix)
                return
            for i in range(n):
                if done_mask >> i & 1:
                    continue
                if preds[i] & ~done_mask:
                    continue
                prefix.append(self._nodes[i])
                yield from extend(done_mask | (1 << i), prefix)
                prefix.pop()
                if limit is not None and count >= limit:
                    return

        yield from extend(0, [])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require(self, node: int) -> int:
        idx = self._index.get(node)
        if idx is None:
            raise RelationError(f"node {node} is not in the relation universe")
        return idx

    def _check_same_universe(self, other: "Relation") -> None:
        if self._nodes != other._nodes:
            raise RelationError(
                "relations are defined over different universes"
            )

    def _unpack(self, mask: int) -> Set[int]:
        result: Set[int] = set()
        while mask:
            low = mask & -mask
            result.add(self._nodes[low.bit_length() - 1])
            mask ^= low
        return result

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a}->{b}" for a, b in self.pairs())
        return f"Relation({len(self._nodes)} nodes: {pairs})"


def relation_from_sequence(sequence: Sequence[int]) -> Relation:
    """A strict total order relation agreeing with ``sequence``.

    Built from the ``n - 1`` cover edges of the chain and closed once,
    rather than materialising all ``n(n-1)/2`` pairs by hand; the
    result carries its own closure cache, so downstream
    ``transitive_closure()`` / ``is_acyclic()`` calls are free.
    """
    if len(set(sequence)) != len(sequence):
        raise RelationError("sequence contains duplicate node ids")
    rel = Relation(sequence)
    for a, b in zip(sequence, sequence[1:]):
        rel.add(a, b)
    return rel.transitive_closure()
