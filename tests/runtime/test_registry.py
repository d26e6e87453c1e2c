"""Registry integrity: one spec per protocol, accurate capabilities.

The runtime layer's core invariant is that the registry is the *only*
protocol table: every ``*_cluster`` factory the protocols package
exports is registered exactly once, and every registered factory is
exported.  Capability flags are the contract the chaos harness, the
static prover and the CLI build on, so they are pinned here.
"""

import pytest

import repro.protocols as protocols
from repro.errors import ReproError
from repro.runtime import (
    Capabilities,
    ProtocolSpec,
    UnknownProtocolError,
    UnknownWorkloadError,
    crash_tolerant_protocols,
    get_protocol,
    get_workload,
    protocol_names,
    protocol_registry,
    register_protocol,
    resolve_protocol,
    workload_names,
    workload_registry,
)


def exported_factories():
    """Every ``*_cluster`` callable the protocols package exports."""
    return {
        name: getattr(protocols, name)
        for name in protocols.__all__
        if name.endswith("_cluster")
    }


class TestProtocolRegistry:
    def test_every_cluster_export_registered_exactly_once(self):
        factories = exported_factories()
        registered = {
            id(spec.factory): name
            for name, spec in protocol_registry().items()
        }
        for export_name, factory in factories.items():
            owners = [
                name
                for name, spec in protocol_registry().items()
                if spec.factory is factory
            ]
            assert len(owners) == 1, (
                f"{export_name} registered {len(owners)} times: {owners}"
            )
        # ... and nothing is registered that is not exported.
        exported_ids = {id(f) for f in factories.values()}
        for name, spec in protocol_registry().items():
            assert id(spec.factory) in exported_ids, (
                f"protocol {name!r} registers a non-exported factory"
            )
        assert len(registered) == len(factories)

    def test_registered_names(self):
        assert protocol_names() == (
            "aggregate",
            "aw",
            "causal",
            "local",
            "lock",
            "mlin",
            "msc",
            "server",
            "traditional",
            "writeall",
        )

    def test_conditions_match_the_paper(self):
        conditions = {
            name: spec.condition
            for name, spec in protocol_registry().items()
        }
        assert conditions == {
            "msc": "m-sc",
            "mlin": "m-lin",
            "aggregate": "m-lin",
            "server": "m-lin",
            "lock": "m-lin",
            "aw": "m-sc",
            "causal": "m-causal",
            # deliberately weaker baselines/controls declare nothing
            "local": None,
            "traditional": None,
            "writeall": None,
        }

    def test_capability_flags(self):
        registry = protocol_registry()
        crash = {
            n for n, s in registry.items() if s.capabilities.crash_tolerant
        }
        cert = {
            n
            for n, s in registry.items()
            if s.capabilities.certificate_eligible
        }
        query = {
            n
            for n, s in registry.items()
            if s.capabilities.query_optimizable
        }
        assert crash == {"msc", "mlin", "aggregate", "server"}
        assert cert == {"msc", "mlin"}
        assert query == {"mlin"}
        assert set(crash_tolerant_protocols()) == crash

    def test_chaos_needs_at_least_four_protocols(self):
        assert len(crash_tolerant_protocols()) >= 4

    def test_reregistering_same_spec_is_idempotent(self):
        spec = get_protocol("msc")
        assert register_protocol(spec) is spec
        assert protocol_registry()["msc"] == spec

    def test_conflicting_registration_rejected(self):
        spec = get_protocol("msc")
        imposter = ProtocolSpec(
            name="msc",
            factory=spec.factory,
            condition="m-lin",  # disagrees with the registered spec
        )
        with pytest.raises(ReproError, match="registered twice"):
            register_protocol(imposter)
        assert get_protocol("msc") == spec

    def test_condition_outside_the_table_rejected(self):
        spec = ProtocolSpec(
            name="mystery", factory=get_protocol("msc").factory,
            condition="m-foo",
        )
        with pytest.raises(ReproError, match="unknown condition 'm-foo'"):
            register_protocol(spec)
        assert "mystery" not in protocol_registry()

    def test_unknown_protocol_error_names_the_registry(self):
        with pytest.raises(UnknownProtocolError, match="msc"):
            get_protocol("paxos")

    def test_resolve_accepts_names_and_factories(self):
        by_name = resolve_protocol("mlin")
        by_factory = resolve_protocol(protocols.mlin_cluster)
        assert by_name is by_factory
        with pytest.raises(UnknownProtocolError):
            resolve_protocol(lambda n, objects, **kw: None)


class TestWorkloadRegistry:
    def test_registered_names(self):
        assert workload_names() == (
            "blind",
            "hotspot",
            "random",
            "scenario",
            "zipfian",
        )

    def test_unknown_workload_error(self):
        with pytest.raises(UnknownWorkloadError, match="random"):
            get_workload("adversarial")

    def test_scenario_pins_its_shape(self):
        scenario = get_workload("scenario")
        assert scenario.fixed_n == 3
        assert scenario.fixed_objects == ("x", "y")
        assert scenario.shape(7, ("a", "b", "c")) == (3, ("x", "y"))

    def test_free_workloads_keep_the_requested_shape(self):
        random = get_workload("random")
        assert random.shape(5, ["p", "q"]) == (5, ("p", "q"))

    def test_builders_produce_per_process_programs(self):
        for name, spec in workload_registry().items():
            n, objects = spec.shape(3, ("x", "y"))
            workloads = spec.builder(n, objects, 2, 7)
            assert len(workloads) == n, name
            assert sum(len(w) for w in workloads) > 0, name


def test_capabilities_default_to_nothing():
    caps = Capabilities()
    assert not caps.crash_tolerant
    assert not caps.certificate_eligible
    assert not caps.query_optimizable
