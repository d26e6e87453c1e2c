"""The paper's consistency conditions (Section 2.3) and their checker.

Every condition is a row of :data:`repro.core.index.CONDITIONS`:
admissibility with respect to ``~p ∪ ~rf``, joined by ``~t``
(**m-linearizability**), by ``~x`` (**m-normality**: two
non-overlapping m-operations are ordered only if they share an
object) or by neither (**m-sequential consistency**), judged over the
whole history or — **m-causal consistency** — over each process's
view.  :func:`check_condition` decides any row; the named checkers
are one-line aliases of it.

Each condition is checked by one of three methods:

* ``"exact"`` — the branch-and-bound of
  :mod:`repro.core.admissibility` (ground truth; worst-case
  exponential, per Theorems 1 and 2), once per view for a
  per-process row.
* ``"constrained"`` — the Theorem-7 polynomial path, the forward scan
  of :func:`repro.core.plan.run_scan`: *requires* the history to
  satisfy the OO- or WW-constraint, under which legality is necessary
  and sufficient for admissibility.  The scan itself sees WW along
  the update chain it finds; otherwise the mask tests of
  :func:`~repro.core.constraints.satisfies_ww` /
  :func:`~repro.core.constraints.satisfies_oo` against the closure of
  ``~H`` decide, and :class:`ConstraintNotSatisfied` is raised when
  both fail.  Under
  the constraint every process's view is constrained too, and each
  view's reads are the whole history's, so a per-process row's
  verdict *is* that of the whole-history row with its orders.
* ``"auto"`` (default) — use the constrained path when the constraint
  holds, fall back to exact search otherwise.

Every checker also accepts a ``certificate`` — a static proof from
:mod:`repro.analysis.static.prover` that the workload can only emit
OO-/WW-constrained histories.  A certificate replaces the dynamic
constraint test with an O(n) structural audit that also yields the
forward scan's update chain for the rules that bind one; the audit
is trust-but-verify — a mismatch raises
:class:`~repro.errors.InvalidCertificate` rather than risking an
unsound Theorem-7 shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.core.admissibility import SearchStats, check_admissible
from repro.core.constraints import satisfies_oo, satisfies_ww
from repro.core.history import History
from repro.core.index import HistoryIndex, condition_row
from repro.core.plan import check_window, run_scan
from repro.core.refutation import Refutation, refute_order
from repro.core.relations import Relation
from repro.errors import InvalidCertificate, PlanRefused, ReproError
from repro.obs import get_tracer

#: Checker method names accepted by the public functions.
METHODS = ("auto", "exact", "constrained")


class ConstraintNotSatisfied(ReproError):
    """The constrained (Theorem 7) checker was invoked on a history
    whose base order satisfies neither the OO- nor the WW-constraint."""


@dataclass
class ConsistencyVerdict:
    """Result of a consistency check.

    Attributes:
        holds: whether the consistency condition is satisfied.
        condition: the :data:`~repro.core.index.CONDITIONS` row
            checked, by name.
        method_used: ``"exact"`` or ``"constrained"``.
        witness: a legal linearization (uids) when available.  The
            constrained path produces one via the extended relation's
            topological order; the exact path returns the search
            witness (none for a per-process row: each view has its
            own).
        stats: exact-search statistics, summed over the views of a
            per-process row (zeroed for constrained runs).
        certificate: rule name of the static constraint certificate
            that replaced the dynamic constraint phase, or None when
            the constraint was (or would have been) checked
            dynamically.
        refutation: why the condition fails, as the deciding pass
            found it (:mod:`repro.core.refutation`); None exactly when
            it holds.
    """

    holds: bool
    condition: str
    method_used: str
    witness: Optional[List[int]] = None
    stats: SearchStats = field(default_factory=SearchStats)
    certificate: Optional[str] = None
    refutation: Optional[Refutation] = None

    def __bool__(self) -> bool:
        return self.holds


def _check(
    history: History,
    condition: str,
    *,
    method: str = "auto",
    node_limit: Optional[int] = None,
    extra_pairs: Iterable[Tuple[int, int]] = (),
    certificate=None,
    window: Optional[int] = None,
) -> ConsistencyVerdict:
    row = condition_row(condition)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    check_window(window)
    # A per-process row searches each view; otherwise one search.
    search = _check_views if row.per_process else _check_exact

    tracer = get_tracer()
    with tracer.span(
        f"check.{condition}", method=method, mops=len(history.mops)
    ):
        # One shared index per history: the base order, its closure
        # and the writer and constraint masks are computed at most once
        # no matter how many checkers run on this history.
        with tracer.span("check.index"):
            index = HistoryIndex.of(history)
            extra = _normalize_extra(extra_pairs)

        if method == "exact":
            if window is not None:
                raise PlanRefused(
                    "the exact admissibility search has no windowed "
                    "form; drop window"
                )
            # The exact search needs no constraint verdicts.
            base = index.base_relation(condition, extra)
            return search(history, condition, base, extra, node_limit)

        # A static certificate (repro.analysis.static.prover) replaces
        # the dynamic constraint phase: Theorem 7's precondition was
        # proved from the workload, so only the O(n) structural audit
        # runs here — never the constraint tests below — and it hands
        # back the update chain the forward scan walks, if it binds one.
        cert = (
            certificate
            if getattr(certificate, "unlocks_theorem7", False)
            else None
        )
        chain = None
        if cert is not None:
            with tracer.span("check.certificate"):
                try:
                    chain = cert.chain_for(history, extra)
                except InvalidCertificate as exc:
                    raise InvalidCertificate(
                        f"{cert.rule} certificate rejected for the "
                        f"{condition} check: {exc}"
                    ) from None

        with tracer.span("check.plan"):
            # ~t and extra_pairs order m-operations across processes,
            # carrying a reader's mark out of its own segment of an
            # object-partitioned chain; a window needs one total chain.
            if (
                chain is not None
                and cert.rule == "object-partitioned"
                and (row.real_time or extra or window is not None)
            ):
                chain = None
            if window is not None and chain is None:
                got = cert.rule if cert is not None else "no certificate"
                raise PlanRefused(
                    "a bounded lookback (window) needs a certificate "
                    f"binding a total update chain; got {got}"
                )

        with tracer.span(
            "check.scan", chain=None if chain is None else len(chain)
        ):
            result = run_scan(
                history, condition, chain, extra_pairs=extra, window=window
            )

        if cert is None and not result.ww:
            # Neither a certificate nor the scan's own update chain
            # proves the constraint: the scan's verdict stands only if
            # the closure of ~H satisfies OO (or WW, when ~H is cyclic).
            base = index.base_relation(condition, extra)
            with tracer.span("check.closure"):
                closure = base.transitive_closure()
            with tracer.span("check.constraints"):
                constrained_ok = satisfies_ww(
                    history, closure
                ) or satisfies_oo(history, closure)
            if not constrained_ok:
                if method == "constrained":
                    raise ConstraintNotSatisfied(
                        "history does not satisfy the OO- or WW-constraint "
                        f"under the {condition} order; the Theorem-7 fast "
                        "path does not apply"
                    )
                return search(history, condition, base, extra, node_limit)

        return ConsistencyVerdict(
            holds=result.holds,
            condition=condition,
            method_used="constrained",
            witness=result.witness,
            certificate=None if cert is None else cert.rule,
            refutation=result.refutation,
        )


def _check_exact(
    history: History,
    condition: str,
    base: Relation,
    extra: Tuple[Tuple[int, int], ...],
    node_limit: Optional[int],
) -> ConsistencyVerdict:
    """The exact search.  A violation its pre-checks caught (cyclic or
    illegal base order) is refuted from the closure they share with
    ``base``; any other is the search's own."""
    with get_tracer().span("check.exact"):
        base.closure_rows()  # cached on base, so the search's copy shares it
        result = check_admissible(history, base, node_limit=node_limit)
    refutation = None
    if not result.admissible:
        stats = result.stats
        if stats.pruned_cyclic or stats.pruned_illegal:
            refutation = refute_order(history, condition, base, extra)
        refutation = refutation or Refutation(
            "search", condition, stats=stats
        )
    return ConsistencyVerdict(
        holds=result.admissible,
        condition=condition,
        method_used="exact",
        witness=result.witness,
        stats=result.stats,
        refutation=refutation,
    )


def _check_views(
    history: History,
    condition: str,
    base: Relation,
    extra: Tuple[Tuple[int, int], ...],
    node_limit: Optional[int],
) -> ConsistencyVerdict:
    """The exact search of a per-process row.  A cycle or illegal read
    of the whole order lies in some view, so one :func:`refute_order`
    pass refutes it; otherwise each process's view — every update plus
    the process's own m-operations, as a position mask over the whole
    history and its order — is searched in turn, and the first
    inadmissible one is the refutation."""
    stats = SearchStats()
    index = HistoryIndex.of(history)
    pos = index.positions
    updates = sum(1 << pos[uid] for uid in index.update_uids)
    with get_tracer().span("check.views"):
        refutation = refute_order(history, condition, base, extra)
        for proc in history.processes if refutation is None else ():
            view = sum(1 << pos[uid] for uid in index.process_chains[proc])
            result = check_admissible(
                history, base, view=updates | view, node_limit=node_limit
            )
            stats.nodes += result.stats.nodes
            stats.memo_hits += result.stats.memo_hits
            stats.dead_ends += result.stats.dead_ends
            if not result.admissible:
                refutation = Refutation(
                    "search", condition, stats=result.stats, process=proc
                )
                break
    return ConsistencyVerdict(
        holds=refutation is None,
        condition=condition,
        method_used="exact",
        stats=stats,
        refutation=refutation,
    )


def _normalize_extra(
    extra_pairs: Iterable[Tuple[int, int]]
) -> Tuple[Tuple[int, int], ...]:
    """Sorted, deduplicated, irreflexive — a stable index cache key."""
    return tuple(sorted({(a, b) for a, b in extra_pairs if a != b}))


def check_condition(
    history: History, condition: str, **kwargs
) -> ConsistencyVerdict:
    """Check the :data:`~repro.core.index.CONDITIONS` row named
    ``condition`` — the single entry point the CLI and the run
    pipeline share.

    Keyword arguments (every row honours each of them):

    * ``method`` — ``"auto"`` (default), ``"exact"`` or
      ``"constrained"`` (module docstring).
    * ``node_limit`` — bound on the exact search's expanded nodes
      (per view for a per-process row), raising
      :class:`~repro.core.admissibility.SearchBudgetExceeded`.
    * ``extra_pairs`` — implementation-level synchronization edges
      added to the base order, typically a protocol run's recorded
      ``~ww`` delivery order (D 5.3), under which the order satisfies
      the WW-constraint and the check runs in polynomial time
      (Theorem 7).  The check then becomes *sufficient* rather than
      exact: admissibility w.r.t. a larger order implies the
      condition, but not conversely.
    * ``certificate`` — a static constraint certificate: it spares
      the constraint test, and one whose shape yields an update chain
      hands the forward scan of :mod:`repro.core.plan` that chain.
    * ``window`` — a positive int (else :class:`ValueError`): bounds
      that scan's lookback to so many chain positions, refusing
      (never deciding wrongly) with
      :class:`~repro.errors.WindowExceeded` when a read reaches
      further back, and with :class:`~repro.errors.PlanRefused` when
      no certificate binds a total update chain to measure along.

    A row joined by ``~t`` or ``~x`` requires a timed history.
    """
    return _check(history, condition, **kwargs)


def check_m_sequential_consistency(history: History, **kwargs):
    """``check_condition(history, "m-sc", ...)``: admissibility w.r.t.
    process orders and the reads-from relation (Section 2.3).  With
    single-operation m-operations it is Lamport's sequential
    consistency."""
    return check_condition(history, "m-sc", **kwargs)


def check_m_linearizability(history: History, **kwargs):
    """``check_condition(history, "m-lin", ...)``: every m-operation
    appears to take effect at an instant between its invocation and
    response (Section 2.3)."""
    return check_condition(history, "m-lin", **kwargs)


def check_m_normality(history: History, **kwargs):
    """``check_condition(history, "m-norm", ...)``: like
    m-linearizability, but non-overlapping m-operations are ordered
    only when they share an object (Section 2.3)."""
    return check_condition(history, "m-norm", **kwargs)


def check_m_causal_consistency(history: History, **kwargs):
    """``check_condition(history, "m-causal", ...)``: every process's
    view is admissible w.r.t. the causal order ``~p ∪ ~rf``."""
    return check_condition(history, "m-causal", **kwargs)


def is_m_sequentially_consistent(history: History, **kwargs) -> bool:
    """Boolean shorthand for :func:`check_m_sequential_consistency`."""
    return check_condition(history, "m-sc", **kwargs).holds


def is_m_linearizable(history: History, **kwargs) -> bool:
    """Boolean shorthand for :func:`check_m_linearizability`."""
    return check_condition(history, "m-lin", **kwargs).holds


def is_m_normal(history: History, **kwargs) -> bool:
    """Boolean shorthand for :func:`check_m_normality`."""
    return check_condition(history, "m-norm", **kwargs).holds


def is_m_causally_consistent(history: History, **kwargs) -> bool:
    """Boolean shorthand for :func:`check_m_causal_consistency`."""
    return check_condition(history, "m-causal", **kwargs).holds
