"""Cross-validation: static certificates vs. the dynamic constraint code.

Every certificate the prover emits is checked against
:mod:`repro.core.constraints` on concrete histories: 240 sampled
spec-conforming histories plus real protocol runs.  The claimed
constraint must hold dynamically on every one, and the certified
checker verdict must equal the uncertified one.  Refused specs are
shown to genuinely emit unconstrained histories — the prover's
refusals are not over-caution.
"""

import pytest

from repro.analysis.static import (
    ProgramProfile,
    WorkloadSpec,
    certify_history,
    certify_run,
    certify_spec,
    sample_history,
)
from repro.analysis.static.prover import RULES
from repro.core.consistency import check_condition
from repro.core.constraints import satisfies_oo, satisfies_ww
from repro.core.index import HistoryIndex
from repro.errors import CertificationRefused
from repro.protocols.mlin import mlin_cluster
from repro.protocols.msc import msc_cluster
from repro.workloads import scenario_workloads


def profile(name, may_write, objects):
    return ProgramProfile(
        name=name, may_write=may_write, objects=frozenset(objects)
    )


def spec_of(processes, sync="none"):
    return WorkloadSpec(
        processes=tuple(tuple(seq) for seq in processes), sync=sync
    )


#: Certifiable spec shapes, one per prover rule that unlocks Theorem 7.
CERTIFIABLE_SPECS = {
    "read-only": spec_of(
        [
            [profile("q1", False, ["x", "y"])] * 2,
            [profile("q2", False, ["y", "z"])] * 2,
            [profile("q3", False, ["x", "z"])],
        ]
    ),
    "single-updater": spec_of(
        [
            [profile("w", True, ["x", "y"])] * 3,
            [profile("q1", False, ["x"])] * 2,
            [profile("q2", False, ["y"])] * 2,
        ]
    ),
    "object-partitioned": spec_of(
        [
            [profile("w1", True, ["x"]), profile("q1", False, ["x"])],
            [profile("w2", True, ["y"]), profile("q2", False, ["y"])],
            [profile("w3", True, ["z"])] * 2,
        ]
    ),
    "total-update-order": spec_of(
        [
            [profile("w1", True, ["x", "y"])] * 2,
            [profile("w2", True, ["x"])] * 2,
            [profile("q", False, ["x", "y"])],
        ],
        sync="total-update-order",
    ),
}

SEEDS = range(60)

DYNAMIC_CHECKS = {"ww": satisfies_ww, "oo": satisfies_oo}


def closure_for(history, extra=()):
    extra = tuple(sorted({(a, b) for a, b in extra if a != b}))
    index = HistoryIndex.of(history)
    return index.base_relation("m-sc", extra).transitive_closure()


@pytest.mark.parametrize("rule", sorted(CERTIFIABLE_SPECS))
def test_certificates_confirmed_dynamically_on_sampled_histories(rule):
    """240 histories total (4 specs x 60 seeds): the certified
    constraint holds under the dynamic implementation on every one."""
    spec = CERTIFIABLE_SPECS[rule]
    cert = certify_spec(spec)
    assert cert.rule == rule
    dynamic = DYNAMIC_CHECKS[cert.constraint]
    for seed in SEEDS:
        run = sample_history(spec, seed=seed)
        bound = (
            cert.with_chain(run.chain) if cert.requires_chain else cert
        )
        # Raises InvalidCertificate if the sample lacks the shape.
        bound.chain_for(run.history, run.extra_pairs)
        closure = closure_for(run.history, run.extra_pairs)
        assert dynamic(run.history, closure), (
            f"{cert.constraint}-constraint violated dynamically for "
            f"{rule} seed {seed}"
        )


@pytest.mark.parametrize("rule", sorted(CERTIFIABLE_SPECS))
@pytest.mark.parametrize("condition", ["m-sc", "m-norm"])
def test_certified_verdict_equals_dynamic_verdict(rule, condition):
    """Certified and uncertified pipelines agree on every sample."""
    spec = CERTIFIABLE_SPECS[rule]
    cert = certify_spec(spec)
    for seed in range(12):
        run = sample_history(spec, seed=seed)
        bound = (
            cert.with_chain(run.chain) if cert.requires_chain else cert
        )
        certified = check_condition(
            run.history,
            condition,
            extra_pairs=run.extra_pairs,
            certificate=bound,
        )
        dynamic = check_condition(
            run.history, condition, extra_pairs=run.extra_pairs
        )
        assert certified.holds == dynamic.holds, f"{rule} seed {seed}"
        assert certified.certificate == rule
        assert dynamic.certificate is None


@pytest.mark.parametrize("factory", [msc_cluster, mlin_cluster])
@pytest.mark.parametrize("seed", [0, 7, 21])
def test_protocol_runs_cross_validate(factory, seed):
    """Real cluster runs: certify_run's claim holds dynamically and
    the certified verdict matches the uncertified one."""
    cluster = factory(3, ["x", "y"], seed=seed)
    result = cluster.run(scenario_workloads(4))
    cert = certify_run(result)
    closure = closure_for(result.history, result.ww_pairs())
    assert satisfies_ww(result.history, closure)
    certified = check_condition(
        result.history,
        "m-sc",
        extra_pairs=result.ww_pairs(),
        certificate=cert,
    )
    dynamic = check_condition(
        result.history, "m-sc", extra_pairs=result.ww_pairs()
    )
    assert certified.holds == dynamic.holds


def test_refused_spec_emits_unconstrained_history():
    """Negative control: a spec the prover refuses really can produce
    histories that satisfy neither the WW- nor the OO-constraint."""
    spec = spec_of(
        [
            [profile("w1", True, ["x", "y"])] * 2,
            [profile("w2", True, ["x", "y"])] * 2,
        ]
    )
    with pytest.raises(CertificationRefused):
        certify_spec(spec)
    unconstrained = 0
    for seed in SEEDS:
        run = sample_history(spec, seed=seed)
        closure = closure_for(run.history)
        if not satisfies_ww(run.history, closure) and not satisfies_oo(
            run.history, closure
        ):
            unconstrained += 1
    assert unconstrained > 0, (
        "every sampled history happened to be constrained; the "
        "refusal would be vacuous on this spec"
    )


@pytest.mark.parametrize(
    "rule", ["read-only", "single-updater", "object-partitioned"]
)
def test_history_rule_is_at_least_the_spec_rule(rule):
    """One table for workloads and histories: a history drawn from a
    structurally certified spec certifies by the same or a stronger
    (earlier) rule, and both certificates pass their audit on it."""
    spec = CERTIFIABLE_SPECS[rule]
    cert = certify_spec(spec)
    strength = list(RULES)
    for seed in range(50):
        history = sample_history(spec, seed=seed).history
        found = certify_history(history)
        assert strength.index(found.rule) <= strength.index(rule), seed
        cert.chain_for(history)
        found.chain_for(history)


def test_refusal_is_not_overcautious_for_certifiable_specs():
    """Sanity: none of the certifiable specs raise."""
    for rule, spec in CERTIFIABLE_SPECS.items():
        assert certify_spec(spec).rule == rule
