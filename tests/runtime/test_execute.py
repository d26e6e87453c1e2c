"""The execute() pipeline: determinism, verification, fault policy."""

import gc
import json

import pytest

from repro.core.history import History
from repro.core.index import HistoryIndex
from repro.errors import MalformedHistoryError
from repro.protocols.base import Cluster
from repro.protocols.recorder import HistoryRecorder
from repro.sim.network import Network
from repro.runtime import (
    FaultPolicyError,
    FaultSpec,
    InvalidSpecError,
    RunSpec,
    VerifyPolicy,
    execute,
    protocol_names,
    protocol_registry,
)


def small(protocol, **changes):
    defaults = {"ops": 3, "seed": 1}
    defaults.update(changes)
    return RunSpec(protocol=protocol, **defaults)


class TestDeterminism:
    @pytest.mark.parametrize("protocol", ["msc", "mlin", "server"])
    def test_same_spec_same_history_hash(self, protocol):
        spec = small(protocol)
        first = execute(spec)
        second = execute(spec)
        assert first.ok, first.summary()
        assert first.history_hash == second.history_hash
        assert first.duration == second.duration

    def test_different_seeds_differ(self):
        a = execute(small("msc", seed=1))
        b = execute(small("msc", seed=2))
        assert a.history_hash != b.history_hash


class TestEveryProtocolExecutes:
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_registered_protocol_runs_clean(self, protocol):
        artifact = execute(small(protocol))
        assert artifact.failure is None, artifact.summary()
        assert artifact.completed == artifact.expected
        # Protocols with a declared condition must also verify.
        if artifact.condition is not None:
            assert artifact.verdicts, artifact.summary()
            assert artifact.ok, artifact.summary()


class TestVerification:
    def test_certificate_fast_path_for_total_order_protocols(self):
        for protocol in ("msc", "mlin"):
            artifact = execute(small(protocol))
            (verdict,) = artifact.verdicts
            assert verdict.holds
            assert verdict.certificate == "total-update-order", (
                artifact.summary()
            )

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_total_update_order_iff_certificate_eligible(self, protocol):
        # The registry flag is the one source of the sync promise.
        eligible = protocol_registry()[protocol].capabilities
        certificates = [
            v.certificate for v in execute(RunSpec(protocol=protocol)).verdicts
        ]
        assert (certificates == ["total-update-order"]) == (
            eligible.certificate_eligible
        ), certificates

    def test_certificate_off_uses_dynamic_phase(self):
        spec = small("msc", verify=VerifyPolicy(certificate="off"))
        (verdict,) = execute(spec).verdicts
        assert verdict.holds and verdict.certificate is None

    def test_causal_protocol_checks_m_causal(self):
        (verdict,) = execute(small("causal")).verdicts
        assert verdict.condition == "m-causal" and verdict.holds

    def test_condition_override(self):
        spec = small("mlin", verify=VerifyPolicy(condition="m-sc"))
        (verdict,) = execute(spec).verdicts
        assert verdict.condition == "m-sc" and verdict.holds

    def test_verification_can_be_disabled(self):
        artifact = execute(small("msc", verify=VerifyPolicy(enabled=False)))
        assert artifact.verdicts == [] and artifact.ok

    def test_undeclared_condition_skips_verification(self):
        artifact = execute(small("local"))
        assert artifact.condition is None and artifact.verdicts == []


class TestSpecPolicy:
    def test_unknown_option_rejected_with_declared_set(self):
        spec = small("msc", options={"reply_relevant_only": True})
        with pytest.raises(InvalidSpecError, match="does not take"):
            execute(spec)

    def test_declared_option_accepted(self):
        spec = small("mlin", options={"reply_relevant_only": True})
        assert execute(spec).ok

    def test_faults_require_crash_tolerance(self):
        spec = small("causal", faults=FaultSpec(seed=0))
        with pytest.raises(FaultPolicyError, match="crash-recovery"):
            execute(spec)

    def test_scenario_workload_pins_the_shape(self):
        artifact = execute(
            RunSpec(protocol="msc", workload="scenario", n=9, seed=1)
        )
        assert artifact.n == 3 and artifact.objects == ("x", "y")
        assert artifact.ok, artifact.summary()


class TestFaultyRuns:
    def test_faulty_run_routes_through_chaos(self):
        spec = RunSpec(
            protocol="server", n=4, ops=4, seed=3, faults=FaultSpec(seed=3)
        )
        artifact = execute(spec)
        assert artifact.ok, artifact.summary()
        assert artifact.chaos is not None
        assert artifact.chaos.crashes and artifact.chaos.restarts
        assert artifact.completed == artifact.expected
        (verdict,) = artifact.verdicts
        assert verdict.condition == "m-lin" and verdict.holds

    @pytest.mark.parametrize("seed", range(4))
    def test_partition_run_of_a_protocol_without_condition(self, seed):
        # writeall declares no condition and taps no ~ww order: no
        # in-run monitor is armed, so no audit can fail its run.
        spec = RunSpec(
            protocol="writeall", n=4, ops=6, seed=seed,
            faults=FaultSpec(seed=seed, partition=True),
        )
        artifact = execute(spec)
        assert artifact.ok, artifact.summary()
        assert artifact.completed == artifact.expected == 24
        assert artifact.chaos.audits == []

    def test_negative_control_fails_loudly(self):
        spec = RunSpec(
            protocol="msc",
            n=4,
            ops=4,
            seed=0,
            faults=FaultSpec(seed=0, recover=False),
        )
        artifact = execute(spec)
        assert not artifact.ok
        assert (
            artifact.failure is not None
            or artifact.completed < artifact.expected
            or artifact.violations
        )


class TestArtifact:
    def test_artifact_serializes_with_history(self, tmp_path):
        artifact = execute(small("mlin"))
        path = tmp_path / "artifact.json"
        artifact.save(str(path))
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert payload["protocol"] == "mlin"
        assert payload["history"]["mops"]
        assert payload["spec"] == artifact.spec.to_dict()
        assert payload["history_hash"] == artifact.history_hash

    def test_observability_toggles(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        spec = small(
            "msc", tracing=True, trace_path=str(trace), metrics=True
        )
        artifact = execute(spec)
        assert artifact.trace_spans > 0
        assert trace.exists()
        assert artifact.metrics
        assert artifact.summary().startswith("msc/random")


def _live(*kinds) -> int:
    return sum(isinstance(obj, kinds) for obj in gc.get_objects())


def test_a_finished_cluster_is_not_a_reference_cycle():
    """A process that executes many specs (the serve daemon) frees
    each run's cluster, its network and atomic broadcast, and its
    checked history with that history's index, as soon as the artifact
    is dropped, not at the next full cyclic collection."""
    objects = tuple(f"x{i}" for i in range(8))
    specs = [
        RunSpec(
            protocol=("msc", "mlin")[seed % 2], workload="zipfian", n=6,
            objects=objects, ops=20, seed=seed,
        )
        for seed in range(10)
    ] + [
        small(protocol, faults=FaultSpec(seed=2, partition=True))
        for protocol in ("msc", "mlin")
    ]
    gc.collect()
    kinds = (Cluster,), (History, HistoryIndex), (Network,)
    before = [_live(*group) for group in kinds]
    gc.disable()
    try:
        for spec in specs:
            assert execute(spec).ok
        live = [_live(*group) for group in kinds]
    finally:
        gc.enable()
    assert live == before


def local_zipfian(seed):
    """The no-replication control on a skewed workload: replicas never
    hear each other's writes, so a read may name a writer that never
    wrote the value it returned."""
    return RunSpec(
        protocol="local", workload="zipfian", n=6,
        objects=tuple(f"x{i}" for i in range(8)), ops=20, seed=seed,
    )


class TestIllFormedHistories:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_control_returns_its_ill_formed_history_as_a_violation(
        self, seed
    ):
        artifact = execute(local_zipfian(seed))
        assert not artifact.ok
        assert artifact.completed == artifact.expected
        assert artifact.verdicts == [] and artifact.history_hash == ""
        (violation,) = artifact.violations
        assert violation.startswith("recorded history: MalformedHistoryError: ")
        assert json.loads(artifact.to_json())["violations"] == [violation]

    def test_a_protocol_with_a_guarantee_still_raises(self, monkeypatch):
        def ill_formed(recorder, initial_values):
            raise MalformedHistoryError("no such writer")

        monkeypatch.setattr(HistoryRecorder, "build_history", ill_formed)
        with pytest.raises(MalformedHistoryError, match="no such writer"):
            execute(small("msc"))
        assert execute(small("local")).violations == [
            "recorded history: MalformedHistoryError: no such writer"
        ]
