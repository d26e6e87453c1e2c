"""The workload constraint prover: rules, refusals, audits, checker skip.

Covers every certification rule (D 4.8/4.9/4.10 via the module's
soundness arguments), the paper workloads the repo certifies
statically, and the checker integration: a certificate swaps the
dynamic ``check.constraints`` phase for the ``check.certificate``
audit on the way to the Theorem-7 path, where an uncertified check
skips that phase only when its scan finds the WW update chain.
"""

import pytest

from repro.analysis.static import (
    ConstraintCertificate,
    ProgramProfile,
    WorkloadSpec,
    certify_chain,
    certify_run,
    certify_spec,
    certify_workloads,
    sample_history,
)
from repro.core.consistency import (
    check_m_linearizability,
    check_m_sequential_consistency,
)
from repro.errors import CertificationRefused, InvalidCertificate
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.objects.multimethods import m_assign, read_reg, write_reg
from repro.protocols.mlin import mlin_cluster
from repro.protocols.msc import msc_cluster
from repro.workloads import figure2_h1, scenario_workloads


def profile(name, may_write, objects):
    return ProgramProfile(
        name=name,
        may_write=may_write,
        objects=frozenset(objects) if objects is not None else None,
    )


def spec_of(processes, sync="none"):
    return WorkloadSpec(
        processes=tuple(tuple(seq) for seq in processes), sync=sync
    )


class TestRules:
    def test_read_only_certifies_oo(self):
        spec = spec_of(
            [
                [profile("q1", False, ["x"])],
                [profile("q2", False, ["x", "y"])],
            ]
        )
        cert = certify_spec(spec)
        assert cert.constraint == "oo" and cert.rule == "read-only"
        assert cert.unlocks_theorem7

    def test_single_updater_certifies_ww(self):
        spec = spec_of(
            [
                [profile("w", True, ["x"]), profile("w2", True, ["y"])],
                [profile("q", False, ["x", "y"])],
            ]
        )
        cert = certify_spec(spec)
        assert cert.constraint == "ww" and cert.rule == "single-updater"
        assert cert.unlocks_theorem7

    def test_object_partitioned_certifies_oo(self):
        spec = spec_of(
            [
                [profile("w1", True, ["x"])],
                [profile("w2", True, ["y"])],
            ]
        )
        cert = certify_spec(spec)
        assert cert.constraint == "oo"
        assert cert.rule == "object-partitioned"

    def test_total_update_order_certifies_ww_and_requires_chain(self):
        spec = spec_of(
            [
                [profile("w1", True, ["x"])],
                [profile("w2", True, ["x"])],
            ],
            sync="total-update-order",
        )
        cert = certify_spec(spec)
        assert cert.constraint == "ww"
        assert cert.rule == "total-update-order"
        assert cert.requires_chain and cert.chain is None
        bound = cert.with_chain([1, 2])
        assert bound.chain == (1, 2)

    def test_disjoint_writers_only_reaches_wo(self):
        # Writers are disjoint but both read "shared": conflicts exist
        # across processes, so only the WO-constraint is provable.
        spec = spec_of(
            [
                [profile("w1", True, ["x", "shared"])],
                [profile("w2", True, ["y", "shared"])],
            ]
        )
        with pytest.raises(CertificationRefused):
            certify_spec(spec)
        # Write-disjointness requires the write sets themselves to be
        # disjoint; model the reads as separate query programs.
        spec = spec_of(
            [
                [
                    profile("w1", True, ["x"]),
                    profile("q1", False, ["shared"]),
                ],
                [
                    profile("w2", True, ["y"]),
                    profile("q2", False, ["shared"]),
                ],
            ]
        )
        cert = certify_spec(spec)
        assert cert.constraint == "wo"
        assert cert.rule == "disjoint-writers"
        assert not cert.unlocks_theorem7

    def test_refusal_on_overlapping_writers(self):
        spec = spec_of(
            [
                [profile("w1", True, ["x"])],
                [profile("w2", True, ["x"])],
            ]
        )
        with pytest.raises(CertificationRefused, match="overlapping"):
            certify_spec(spec)

    def test_refusal_on_unknown_footprints(self):
        spec = spec_of(
            [
                [profile("w1", True, None)],
                [profile("w2", True, ["x"])],
            ]
        )
        with pytest.raises(CertificationRefused, match="static_objects"):
            certify_spec(spec)

    def test_unknown_constraint_rejected(self):
        with pytest.raises(InvalidCertificate):
            ConstraintCertificate(constraint="xx", rule="r")


class TestPaperWorkloads:
    def test_scenario_workload_certifies_single_updater_ww(self):
        cert = certify_workloads(scenario_workloads(10))
        assert cert.constraint == "ww" and cert.rule == "single-updater"

    def test_figure2_chain_certifies(self):
        history, _ = figure2_h1()
        cert = certify_chain(history, [1, 3, 4])
        assert cert.constraint == "ww"
        assert cert.rule == "total-update-order"
        assert cert.chain == (1, 3, 4)

    def test_figure2_incomplete_chain_refused(self):
        history, _ = figure2_h1()
        with pytest.raises(CertificationRefused, match="never appeared"):
            certify_chain(history, [1, 3])

    def test_mixed_library_workload_certifies(self):
        workloads = [
            [write_reg("x", 1), m_assign({"x": 4, "y": 3})],
            [read_reg("x"), read_reg("y")],
        ]
        cert = certify_workloads(workloads)
        assert cert.rule == "single-updater"

    def test_multi_writer_needs_protocol_promise(self):
        workloads = [
            [write_reg("x", 1)],
            [write_reg("x", 2)],
        ]
        with pytest.raises(CertificationRefused):
            certify_workloads(workloads)
        cert = certify_workloads(workloads, sync="total-update-order")
        assert cert.rule == "total-update-order"


class TestAudit:
    def test_single_updater_audit_rejects_multi_writer_history(self):
        run = sample_history(
            spec_of(
                [
                    [profile("w1", True, ["x"])],
                    [profile("w2", True, ["y"])],
                ]
            ),
            seed=1,
        )
        cert = ConstraintCertificate(constraint="ww", rule="single-updater")
        with pytest.raises(InvalidCertificate, match="span processes"):
            cert.chain_for(run.history)

    def test_chain_audit_requires_extra_pairs(self):
        history, _ = figure2_h1()
        cert = certify_chain(history, [1, 3, 4])
        assert cert.chain_for(history, [(1, 3), (3, 4)]) == (1, 3, 4)
        with pytest.raises(InvalidCertificate, match="extra_pairs"):
            cert.chain_for(history, [(1, 3)])

    def test_checker_raises_invalid_certificate_on_mismatch(self):
        run = sample_history(
            spec_of(
                [
                    [profile("w1", True, ["x"])],
                    [profile("w2", True, ["y"])],
                ]
            ),
            seed=2,
        )
        forged = ConstraintCertificate(constraint="ww", rule="single-updater")
        with pytest.raises(InvalidCertificate):
            check_m_sequential_consistency(
                run.history, certificate=forged
            )

    def test_wo_certificate_never_trusted_by_checker(self):
        # WO does not unlock Theorem 7; the checker must ignore it and
        # run the dynamic phase (no InvalidCertificate even though the
        # audit would fail on this history).
        run = sample_history(
            spec_of(
                [
                    [profile("w1", True, ["x"])],
                    [profile("w2", True, ["y"])],
                ]
            ),
            seed=3,
        )
        wo_cert = ConstraintCertificate(
            constraint="wo", rule="disjoint-writers"
        )
        verdict = check_m_sequential_consistency(
            run.history, certificate=wo_cert
        )
        assert verdict.certificate is None


class TestCheckerSkip:
    """The measurable skip: span evidence + verdict equivalence."""

    @pytest.fixture
    def run_and_cert(self):
        cluster = msc_cluster(3, ["x", "y"], seed=7)
        result = cluster.run(scenario_workloads(6))
        return result, certify_run(result)

    def spans_for(self, check):
        tracer = Tracer()
        install_tracer(tracer)
        try:
            verdict = check()
        finally:
            uninstall_tracer()
        return verdict, [r["name"] for r in tracer.records()]

    def test_certified_check_skips_constraint_phase(self, run_and_cert):
        result, cert = run_and_cert
        verdict, names = self.spans_for(
            lambda: check_m_sequential_consistency(
                result.history,
                extra_pairs=result.ww_pairs(),
                certificate=cert,
            )
        )
        assert verdict.holds and verdict.method_used == "constrained"
        assert verdict.certificate == "total-update-order"
        assert "check.certificate" in names
        assert "check.constraints" not in names

    def test_uncertified_check_runs_constraint_phase(self, run_and_cert):
        # Without a certificate the scan finds its own update chain: a
        # WW history (the run with its ~ww pairs) needs no constraint
        # phase, an OO-only one (two processes, each writing and
        # reading its own object) does.
        from repro.core import History, make_mop, read, write

        result, _ = run_and_cert
        verdict, names = self.spans_for(
            lambda: check_m_sequential_consistency(
                result.history, extra_pairs=result.ww_pairs()
            )
        )
        assert verdict.certificate is None
        assert "check.constraints" not in names
        assert "check.certificate" not in names
        oo_only = History.from_mops(
            [
                make_mop(1, 0, [write("x", 1)]),
                make_mop(2, 1, [write("y", 2)]),
                make_mop(3, 0, [read("x", 1)]),
            ],
            reads_from={(3, "x"): 1},
        )
        verdict, names = self.spans_for(
            lambda: check_m_sequential_consistency(oo_only)
        )
        assert verdict.holds and verdict.method_used == "constrained"
        assert "check.constraints" in names
        assert "check.certificate" not in names

    def test_equivalence_certified_vs_dynamic(self, run_and_cert):
        result, cert = run_and_cert
        certified = check_m_sequential_consistency(
            result.history,
            extra_pairs=result.ww_pairs(),
            certificate=cert,
        )
        dynamic = check_m_sequential_consistency(
            result.history, extra_pairs=result.ww_pairs()
        )
        assert certified.holds == dynamic.holds
        assert certified.method_used == dynamic.method_used == "constrained"

    def test_mlin_protocol_run_certifies_too(self):
        cluster = mlin_cluster(3, ["x", "y"], seed=11)
        result = cluster.run(scenario_workloads(4))
        cert = certify_run(result)
        verdict = check_m_linearizability(
            result.history,
            extra_pairs=result.ww_pairs(),
            certificate=cert,
        )
        assert verdict.holds
        assert verdict.certificate == "total-update-order"
