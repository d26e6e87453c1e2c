"""Verdict fidelity of the certified forward scan at corpus scale.

The acceptance bar for the engine: on the same randomized corpus the
monolithic checker is validated against
(``tests/core/test_index_crossval.py``), the certified scan — over a
delivery chain or over an object-partitioned history's process
chains — and its windowed form must return **byte-identical**
verdicts — same ``holds``, same witness list, not merely
equi-satisfiable — plus the refusal paths must refuse rather than
mis-answer.
"""

from __future__ import annotations

import pytest

from repro.analysis.static import (
    certify_chain,
    certify_partitioned_history,
)
from repro.core import check_condition, rw_pairs
from repro.core.index import HistoryIndex
from repro.errors import PlanRefused, WindowExceeded
from repro.workloads import (
    HistoryShape,
    corrupt_history,
    random_partitioned_history,
    random_serial_history,
)
from tests.core.test_index_crossval import (
    CONDITIONS,
    CORPUS,
    _legal_by_replay,
)


def chain_and_ww(history):
    chain = [m.uid for m in history.mops if m.is_update]
    return chain, tuple(zip(chain, chain[1:]))


def partitioned_corpus(minimum=40):
    """Clean + corrupted object-partitioned histories."""
    histories = []
    shapes = [
        HistoryShape(n_processes=2, n_objects=2, n_mops=10),
        HistoryShape(n_processes=3, n_objects=2, n_mops=14),
        HistoryShape(n_processes=4, n_objects=1, n_mops=16),
    ]
    seed = 0
    while len(histories) < minimum:
        for shape in shapes:
            clean = random_partitioned_history(shape, seed=seed)
            histories.append(clean)
            bad = corrupt_history(clean, seed=seed)
            if bad is not None:
                histories.append(bad)
        seed += 1
    return histories


PARTITIONED_CORPUS = partitioned_corpus()


@pytest.mark.parametrize("condition", CONDITIONS)
def test_certified_scan_is_byte_identical(condition):
    for _label, history in CORPUS:
        chain, ww = chain_and_ww(history)
        cert = certify_chain(history, chain)
        scan = check_condition(
            history,
            condition,
            method="constrained",
            extra_pairs=ww,
            certificate=cert,
        )
        closure = check_condition(
            history, condition, method="constrained", extra_pairs=ww
        )
        assert scan.holds == closure.holds
        assert scan.witness == closure.witness


@pytest.mark.parametrize("condition", CONDITIONS)
def test_windowed_none_is_byte_identical(condition):
    for _label, history in CORPUS[::4]:
        chain, ww = chain_and_ww(history)
        cert = certify_chain(history, chain)
        windowed = check_condition(
            history,
            condition,
            method="constrained",
            extra_pairs=ww,
            certificate=cert,
            window=None,
        )
        closure = check_condition(
            history, condition, method="constrained", extra_pairs=ww
        )
        assert windowed.holds == closure.holds
        assert windowed.witness == closure.witness


@pytest.mark.parametrize("condition", CONDITIONS)
def test_wide_window_is_byte_identical(condition):
    for _label, history in CORPUS[::4]:
        chain, ww = chain_and_ww(history)
        cert = certify_chain(history, chain)
        windowed = check_condition(
            history,
            condition,
            method="constrained",
            extra_pairs=ww,
            certificate=cert,
            window=len(history.mops) + 1,
        )
        closure = check_condition(
            history, condition, method="constrained", extra_pairs=ww
        )
        assert windowed.holds == closure.holds
        assert windowed.witness == closure.witness


@pytest.mark.parametrize("condition", CONDITIONS)
def test_partitioned_default_equals_closure(condition):
    """The default path on a certified object-partitioned history —
    the scan over its process chains under m-sc / m-norm, the closure
    under m-lin — equals the uncertified closure path byte for byte,
    clean and corrupted."""
    verdicts = set()
    for history in PARTITIONED_CORPUS:
        cert = certify_partitioned_history(history)
        default = check_condition(
            history, condition, method="constrained", certificate=cert
        )
        mono = check_condition(
            history, condition, method="constrained"
        )
        assert default.holds == mono.holds
        assert default.witness == mono.witness
        if default.holds:
            assert _legal_by_replay(history, default.witness)
        verdicts.add(default.holds)
    assert verdicts == {True, False}


def test_partitioned_with_extra_pairs_gets_the_closure_verdict():
    """Extra pairs cross the partitions: the certificate still spares
    the constraint phase, the verdict is the closure's."""
    for history in PARTITIONED_CORPUS[::3]:
        cert = certify_partitioned_history(history)
        _chain, ww = chain_and_ww(history)
        for condition in CONDITIONS:
            certified = check_condition(
                history, condition, method="constrained",
                certificate=cert, extra_pairs=ww,
            )
            mono = check_condition(
                history, condition, method="constrained", extra_pairs=ww
            )
            assert certified.holds == mono.holds
            assert certified.witness == mono.witness


def contended_corpus():
    """Few hot objects, many writers each, clean + near-violating:
    where the ``~rw`` cover is far smaller than the D 4.11 pair set."""
    histories = []
    for seed in range(6):
        shape = HistoryShape(
            n_processes=4, n_objects=3, n_mops=40 + 10 * seed,
            query_fraction=0.5, distribution="hotspot",
        )
        clean = random_serial_history(shape, seed=seed)
        histories.append(clean)
        for twin in range(3):
            bad = corrupt_history(clean, seed=seed + 100 * twin)
            if bad is not None:
                histories.append(bad)
    return histories


CONTENDED_CORPUS = contended_corpus()


@pytest.mark.parametrize("condition", CONDITIONS)
def test_contended_histories_agree_on_every_path(condition):
    verdicts = set()
    for history in CONTENDED_CORPUS:
        chain, ww = chain_and_ww(history)
        cert = certify_chain(history, chain)
        common = dict(method="constrained", extra_pairs=ww)
        closure = check_condition(history, condition, **common)
        certified = dict(common, certificate=cert)
        for verdict in (
            check_condition(history, condition, **certified),
            check_condition(
                history, condition,
                window=len(history.mops) + 1, **certified,
            ),
        ):
            assert verdict.holds == closure.holds
            assert verdict.witness == closure.witness
        if closure.holds:
            assert _legal_by_replay(history, closure.witness)
        verdicts.add(closure.holds)
    assert verdicts == {True, False}


def full_rw_witness(history, condition, extra_pairs):
    """The Theorem 7 witness by the book: FIFO-Kahn over ``~H`` plus
    the *whole* D 4.11 pair set — what the cover must reproduce."""
    index = HistoryIndex.of(history)
    extended = index.base_relation(condition, tuple(extra_pairs)).copy()
    for pair in rw_pairs(history, extended.transitive_closure()):
        extended.add(*pair)
    return extended.topological_order()


def test_cover_witness_equals_full_rw_pair_set_witness():
    held = 0
    serial = [history for _label, history in CORPUS] + CONTENDED_CORPUS
    cases = [(history, chain_and_ww(history)[1]) for history in serial]
    cases += [(history, ()) for history in PARTITIONED_CORPUS]
    for history, ww in cases:
        for condition in CONDITIONS:
            verdict = check_condition(
                history, condition, method="constrained", extra_pairs=ww
            )
            if verdict.holds:
                held += 1
                assert verdict.witness == full_rw_witness(
                    history, condition, ww
                )
    assert held > 300


class TestRefusalPaths:
    """Refusals are errors, never wrong verdicts."""

    def test_windowed_without_chain_certificate(self):
        history = CORPUS[0][1]
        with pytest.raises(PlanRefused):
            check_condition(history, "m-sc", window=8)

    def test_tiny_window_raises_window_exceeded(self):
        # Find a corpus history whose reads genuinely span more than
        # one position; window=1 must refuse it.
        for _label, history in CORPUS:
            chain, ww = chain_and_ww(history)
            if len(chain) < 4:
                continue
            cert = certify_chain(history, chain)
            try:
                check_condition(
                    history,
                    "m-sc",
                    method="constrained",
                    extra_pairs=ww,
                    certificate=cert,
                    window=1,
                )
            except WindowExceeded:
                return
        pytest.fail("no corpus history triggered a window refusal")

    def test_exact_method_refuses_engine_modes(self):
        history = PARTITIONED_CORPUS[0]
        cert = certify_partitioned_history(history)
        with pytest.raises(PlanRefused):
            check_condition(
                history,
                "m-sc",
                method="exact",
                certificate=cert,
                window=8,
            )
