"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core import History, make_mop, read, write
from repro.runtime import FaultSpec, RunSpec, VerifyPolicy


@pytest.fixture
def fig2_history():
    """The Figure-2 history H1 (see repro.workloads.paper_figures)."""
    from repro.workloads import figure2_h1

    return figure2_h1()


def chaos_spec(
    protocol, seed, *, n=4, ops=5, verify=VerifyPolicy(), **faults
):
    """One chaos run as a spec: ``seed`` seeds the cluster, the
    workload (``seed + 1``) and the fault plan alike; ``faults`` are
    :class:`~repro.runtime.FaultSpec` fields."""
    return RunSpec(
        protocol=protocol,
        n=n,
        ops=ops,
        seed=seed,
        verify=verify,
        faults=FaultSpec(seed=seed, **faults),
    )


def simple_history(specs, *, reads_from=None, initial_values=None):
    """Terse history builder for tests.

    ``specs`` is a list of ``(uid, process, ops, inv, resp)`` or
    ``(uid, process, ops)`` tuples, with ops given as strings like
    ``"r x 0"`` / ``"w y 2"`` separated by commas.
    """
    mops = []
    for spec in specs:
        if len(spec) == 5:
            uid, process, ops_text, inv, resp = spec
        else:
            uid, process, ops_text = spec
            inv = resp = None
        ops = []
        for token in ops_text.split(","):
            kind, obj, value = token.split()
            value = int(value) if value.lstrip("-").isdigit() else value
            ops.append(read(obj, value) if kind == "r" else write(obj, value))
        mops.append(
            make_mop(uid, process, ops, inv=inv, resp=resp, name=f"m{uid}")
        )
    return History.from_mops(
        mops, reads_from=reads_from, initial_values=initial_values
    )


def view_history(history, proc):
    """``proc``'s view — every update plus ``proc``'s own
    m-operations — as a history of its own, reads-from cut down to its
    readers: the route the exact m-causal check once took per view."""
    keep = {m.uid for m in history.mops if m.is_update or m.process == proc}
    return History.from_mops(
        [m for m in history.mops if m.uid in keep],
        initial_values=dict(history.init.external_writes),
        reads_from={
            key: writer
            for key, writer in history.reads_from_map.items()
            if key[0] in keep
        },
    )


def ww_chain(history):
    """Updates chained in issue order — a ``~ww`` the valid history
    agrees with (``random_serial_history`` issues by increasing uid)."""
    updates = [m.uid for m in history.mops if m.is_update]
    return tuple(zip(updates, updates[1:]))


def twins(history):
    """``{"valid": h, "stale": ..., "future": ...}``: a
    ``random_serial_history`` and two ``corrupt_history`` twins, one
    reading an older writer than it should, one a newer one."""
    from repro.workloads import corrupt_history, corruption_kind

    found = {"valid": history}
    for seed in range(64):
        twin = corrupt_history(history, seed=seed)
        if twin is None:
            continue
        found.setdefault(corruption_kind(history, twin), twin)
        if len(found) == 3:
            return found
    raise AssertionError(f"no stale and future twin found: {sorted(found)}")
