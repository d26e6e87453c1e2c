"""RunSpec codec: every spec survives the JSON round trip unchanged."""

import pytest

from repro.runtime import (
    FaultSpec,
    InvalidSpecError,
    LatencySpec,
    RunSpec,
    VerifyPolicy,
)
from repro.sim.faults import CrashEvent, DelaySpike, FaultPlan
from repro.sim.latency import (
    AsymmetricLatency,
    ExponentialLatency,
    FixedLatency,
    UniformLatency,
)

SPECS = [
    RunSpec(protocol="msc"),
    RunSpec(protocol="mlin", options={"reply_relevant_only": True}),
    RunSpec(
        protocol="aw",
        n=5,
        objects=("a", "b"),
        ops=9,
        seed=42,
        latency=LatencySpec("exponential", (1.0, 0.05)),
        options={"delta": 3.5},
    ),
    RunSpec(
        protocol="server",
        workload="hotspot",
        faults=FaultSpec(seed=7, recovery="snapshot"),
        settle=2.5,
        max_events=10_000,
    ),
    RunSpec(
        protocol="aggregate",
        faults=FaultSpec(
            plan=FaultPlan(
                seed=3,
                drop_prob=0.1,
                dup_prob=0.05,
                crashes=(CrashEvent(pid=1, at=4.0, restart_after=2.0),),
                spikes=(DelaySpike(at=6.0, duration=1.0, factor=4.0),),
            )
        ),
    ),
    RunSpec(
        protocol="causal",
        tracing=True,
        trace_path="/tmp/trace.jsonl",
        metrics=True,
        verify=VerifyPolicy(condition="m-causal", certificate="off"),
    ),
    RunSpec(
        protocol="local",
        verify=VerifyPolicy(enabled=False),
        latency=LatencySpec("fixed", (1.0,)),
    ),
    RunSpec(
        protocol="msc",
        workload="hotspot",
        verify=VerifyPolicy(method="constrained", use_ww=False),
    ),
    RunSpec(
        protocol="msc",
        verify=VerifyPolicy(window=256),
    ),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.protocol)
def test_json_round_trip_is_identity(spec):
    assert RunSpec.from_json(spec.to_json()) == spec


def test_save_load_round_trip(tmp_path):
    spec = SPECS[3]
    path = tmp_path / "spec.json"
    spec.save(str(path))
    assert RunSpec.load(str(path)) == spec


def test_options_order_insensitive_equality():
    a = RunSpec(protocol="aw", options={"delta": 2.0})
    b = RunSpec(protocol="aw", options=(("delta", 2.0),))
    assert a == b
    assert a.options_dict() == {"delta": 2.0}


def test_with_replaces_fields():
    spec = RunSpec(protocol="msc", seed=1)
    other = spec.with_(seed=2)
    assert other.seed == 2 and other.protocol == "msc"
    assert spec.seed == 1


class TestValidation:
    def test_protocol_required(self):
        with pytest.raises(InvalidSpecError, match="protocol"):
            RunSpec.from_dict({"n": 3})

    def test_unknown_fields_rejected(self):
        with pytest.raises(InvalidSpecError, match="wrokload"):
            RunSpec.from_dict({"protocol": "msc", "wrokload": "random"})

    @pytest.mark.parametrize(
        "section, field",
        [
            # the two retired engine knobs: rejected, not reinterpreted
            ("verify", "mode"),
            ("verify", "workers"),
            ("verify", "windw"),
            ("latency", "parms"),
            ("faults", "sede"),
        ],
    )
    def test_unknown_nested_fields_rejected(self, section, field):
        with pytest.raises(
            InvalidSpecError, match=f"unknown {section} field.*{field}"
        ):
            RunSpec.from_dict({"protocol": "msc", section: {field: 1}})

    def test_malformed_json_rejected(self):
        with pytest.raises(InvalidSpecError, match="not valid JSON"):
            RunSpec.from_json("{nope")
        with pytest.raises(InvalidSpecError, match="object"):
            RunSpec.from_json("[1, 2]")

    def test_shape_bounds(self):
        with pytest.raises(InvalidSpecError, match="n must be positive"):
            RunSpec(protocol="msc", n=0)
        with pytest.raises(InvalidSpecError, match="ops"):
            RunSpec(protocol="msc", ops=-1)

    def test_unknown_latency_kind(self):
        with pytest.raises(InvalidSpecError, match="latency kind"):
            LatencySpec("warp", (1.0,))

    def test_bad_latency_arity(self):
        with pytest.raises(InvalidSpecError, match="rejected params"):
            LatencySpec("fixed", (1.0, 2.0, 3.0)).build()

    def test_unknown_recovery_mode(self):
        with pytest.raises(InvalidSpecError, match="recovery"):
            FaultSpec(recovery="pray")

    def test_verify_policy_bounds(self):
        with pytest.raises(InvalidSpecError, match="method"):
            VerifyPolicy(method="guess")
        with pytest.raises(InvalidSpecError, match="certificate"):
            VerifyPolicy(certificate="maybe")

    def test_verify_policy_condition_is_a_table_row(self):
        with pytest.raises(InvalidSpecError, match="'m-causal'"):
            RunSpec.from_dict(
                {"protocol": "msc", "verify": {"condition": "m-foo"}}
            )
        assert VerifyPolicy(condition="m-causal").condition == "m-causal"

    def test_verify_policy_engine_knobs(self):
        with pytest.raises(InvalidSpecError, match="window"):
            VerifyPolicy(window=0)

    @pytest.mark.parametrize(
        "data",
        [
            {"n": "3"},
            {"n": True},
            {"ops": 2.5},
            {"seed": "x"},
            {"max_events": None},
            {"verify": {"window": "3"}},
            {"verify": {"window": True}},
            {"verify": {"window": 2.5}},
        ],
    )
    def test_malformed_numbers_are_spec_errors(self, data):
        # A wrong type is refused as a spec error, never a TypeError,
        # and a bool never passes for an int.
        with pytest.raises(InvalidSpecError):
            RunSpec.from_dict({"protocol": "msc", **data})

    def test_verify_policy_engine_defaults(self):
        policy = VerifyPolicy()
        assert policy.window is None
        assert not {"mode", "workers"} & set(policy.to_dict())


class TestLatencySpec:
    @pytest.mark.parametrize(
        "model",
        [
            UniformLatency(0.2, 2.0),
            FixedLatency(1.0),
            ExponentialLatency(1.5, 0.1),
            AsymmetricLatency(0.5, 0.2, 2, 3.0),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_of_build_round_trip(self, model):
        spec = LatencySpec.of(model)
        rebuilt = LatencySpec.of(spec.build())
        assert rebuilt == spec
        assert LatencySpec.from_dict(spec.to_dict()) == spec

    def test_of_none_is_default(self):
        assert LatencySpec.of(None) == LatencySpec()
        model = LatencySpec.of(None).build()
        assert isinstance(model, UniformLatency)
        assert (model.low, model.high) == (0.5, 1.5)
