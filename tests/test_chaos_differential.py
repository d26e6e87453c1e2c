"""Differential check of the verdict on faulty histories.

``execute`` gives a fault run one batch verdict (the certified scan,
under the spec's ``VerifyPolicy``).  The two other deciders of the
same question — the streaming monitor replayed over the finished run
and the uncertified closure checker — are compared with it here, on
every finished run of the chaos sweeps: crash and partition schedules,
their negative controls included, so violating histories are covered
as well as clean ones.  On a violating run the scan's, the closure's
and the monitor's refutations must each pass the independent checker
of ``tests/core/test_refutation.py``.

A tier-1 subset runs unmarked; the full sweeps are marked ``chaos``.
"""

import pytest

from repro.analysis.static import certify_run
from repro.core import check_condition, verify_stream
from repro.runtime import execute
from tests.conftest import chaos_spec
from tests.core.test_refutation import accepts
from tests.test_chaos_msc import _recovery
from tests.test_chaos_partition import CONTROL_SEEDS

#: protocol -> seeds of its crash sweep (``tests/test_chaos_*.py``).
CRASH_SWEEPS = {"msc": 50, "mlin": 50, "aggregate": 10, "server": 10}


def _split_brain(seed):
    return chaos_spec(
        "msc", seed, ops=10, partition=True, quorum_aware=False
    )


SMOKE = [
    chaos_spec("msc", 0),
    chaos_spec("mlin", 1, recovery="snapshot"),
    chaos_spec("aggregate", 0),
    chaos_spec("server", 1),
    chaos_spec("msc", 1, ops=8, partition=True),
    chaos_spec("mlin", 1, ops=8, partition=True),
    chaos_spec("msc", 1, recover=False),
    _split_brain(CONTROL_SEEDS[0]),
]

SWEEP = [
    chaos_spec(protocol, seed, recovery=_recovery(seed))
    for protocol, seeds in CRASH_SWEEPS.items()
    for seed in range(seeds)
]
SWEEP += [
    chaos_spec(protocol, seed, recover=False)
    for protocol in CRASH_SWEEPS
    for seed in range(3)
]
SWEEP += [
    chaos_spec(protocol, seed, ops=10, partition=True)
    for protocol in ("msc", "mlin")
    for seed in range(12)
]
SWEEP += [
    chaos_spec("aggregate", seed, ops=8, partition=True)
    for seed in range(6)
]
# Every split-brain seed of the first 16, not only the pinned controls.
SWEEP += [_split_brain(seed) for seed in range(16)]


def _label(spec):
    faults = spec.faults
    kind = "partition" if faults.partition else "crash"
    control = "" if faults.recover and faults.quorum_aware else "-control"
    return f"{spec.protocol}-{kind}{control}-{spec.seed}"


@pytest.mark.parametrize(
    "spec",
    [pytest.param(spec, id=_label(spec)) for spec in SMOKE]
    + [
        pytest.param(spec, id=f"sweep-{_label(spec)}", marks=pytest.mark.chaos)
        for spec in SWEEP
    ],
)
def test_stream_closure_and_scan_agree_on_faulty_runs(spec):
    artifact = execute(spec)
    result = artifact.result
    if result is None:
        # The run itself failed (lost operations): no history to judge.
        assert artifact.failure is not None
        return
    (verdict,) = artifact.verdicts
    stream = verify_stream(result, condition=verdict.condition)
    closure = check_condition(
        result.history, verdict.condition, extra_pairs=result.ww_pairs()
    )
    assert stream.consistent == closure.holds == verdict.holds, (
        artifact.summary()
    )
    if verdict.holds:
        return
    # Each refutation, batch or streamed, checks out from the definitions.
    ww = result.ww_pairs()
    scan = check_condition(
        result.history, verdict.condition, extra_pairs=ww,
        certificate=certify_run(result) if verdict.certificate else None,
    )
    for refutation in [scan.refutation, closure.refutation, *stream.violations]:
        assert accepts(
            result.history, verdict.condition, refutation, ww,
            result.ww_sequence,
        ), refutation
