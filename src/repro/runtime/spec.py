"""Declarative run specifications — ``RunSpec`` and its JSON codec.

A :class:`RunSpec` is a complete, serializable description of one
protocol run: which protocol and workload, the cluster shape, the
seeds, the latency model, an optional fault plan, observability
toggles and the verification policy.  ``from_json(to_json(spec)) ==
spec`` holds for every spec, so runs can be stored, shipped and
replayed bit-for-bit (``python -m repro run SPEC.json``).

The executable half lives in :mod:`repro.runtime.execute`; this
module is pure data.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.index import CONDITIONS
from repro.core.plan import check_window
from repro.core.serialize import canonical_json
from repro.errors import ReproError
from repro.sim.faults import (
    CrashEvent,
    DelaySpike,
    FaultPlan,
    HealEvent,
    PartitionEvent,
)
from repro.sim.latency import (
    AsymmetricLatency,
    ExponentialLatency,
    FixedLatency,
    LatencyModel,
    UniformLatency,
)

__all__ = [
    "FaultSpec",
    "InvalidSpecError",
    "LatencySpec",
    "RunSpec",
    "VerifyPolicy",
    "fault_plan_from_dict",
    "fault_plan_to_dict",
]


class InvalidSpecError(ReproError):
    """The spec (or its JSON form) is malformed."""


def _canonical_value(value: Any) -> Any:
    """JSON data normalized for hashing.

    Integral floats collapse to ints (a spec file saying ``"settle":
    0`` and the in-memory default ``0.0`` are the same spec), tuples
    become lists, and mapping keys become strings — so two
    semantically identical specs always canonicalize to the same
    bytes regardless of which surface built them.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        return int(value) if value.is_integer() else value
    if isinstance(value, int):
        return value
    if isinstance(value, Mapping):
        return {
            str(key): _canonical_value(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item) for item in value]
    raise InvalidSpecError(
        f"value {value!r} ({type(value).__name__}) has no canonical "
        "JSON form"
    )


def _is_int(value: Any) -> bool:
    """An int, and not a bool: JSON ``true`` is no count or seed."""
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_unknown(cls, section: str, data: Mapping[str, Any]) -> None:
    """A spec section names only fields of its dataclass: a misspelt
    or retired key is an error, never a silently ignored setting."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidSpecError(
            f"unknown {section} field(s): {sorted(unknown)}"
        )


@dataclass(frozen=True)
class LatencySpec:
    """A serializable latency-model description.

    ``kind`` selects the :mod:`repro.sim.latency` class; ``params``
    are its positional constructor arguments:

    * ``uniform(low, high)`` — the default, the paper's reordering
      channel;
    * ``fixed(delay)``;
    * ``exponential(mean_delay, floor)``;
    * ``asymmetric(base, jitter, slow_node, slow_extra)``.
    """

    kind: str = "uniform"
    params: Tuple[float, ...] = (0.5, 1.5)

    _BUILDERS = {
        "uniform": UniformLatency,
        "fixed": FixedLatency,
        "exponential": ExponentialLatency,
        "asymmetric": lambda base, jitter, slow_node, slow_extra: (
            AsymmetricLatency(base, jitter, int(slow_node), slow_extra)
        ),
    }

    def __post_init__(self) -> None:
        if self.kind not in self._BUILDERS:
            raise InvalidSpecError(
                f"unknown latency kind {self.kind!r}; expected one of "
                f"{sorted(self._BUILDERS)}"
            )
        object.__setattr__(self, "params", tuple(self.params))

    def build(self) -> LatencyModel:
        """Instantiate the concrete latency model."""
        try:
            return self._BUILDERS[self.kind](*self.params)
        except TypeError as exc:
            raise InvalidSpecError(
                f"latency {self.kind!r} rejected params {self.params}: "
                f"{exc}"
            ) from None

    @classmethod
    def of(cls, model: Optional[LatencyModel]) -> "LatencySpec":
        """Describe a concrete latency model (None = the default)."""
        if model is None:
            return cls()
        if isinstance(model, UniformLatency):
            return cls("uniform", (model.low, model.high))
        if isinstance(model, FixedLatency):
            return cls("fixed", (model.delay,))
        if isinstance(model, ExponentialLatency):
            return cls("exponential", (model.mean_delay, model.floor))
        if isinstance(model, AsymmetricLatency):
            return cls(
                "asymmetric",
                (model.base, model.jitter, model.slow_node,
                 model.slow_extra),
            )
        raise InvalidSpecError(
            f"latency model {type(model).__name__} has no spec form"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LatencySpec":
        _reject_unknown(cls, "latency", data)
        return cls(**data)


def fault_plan_to_dict(plan: FaultPlan) -> Dict[str, Any]:
    """A :class:`~repro.sim.faults.FaultPlan` as plain JSON data."""
    return asdict(plan)


def fault_plan_from_dict(data: Mapping[str, Any]) -> FaultPlan:
    """Rebuild a :class:`~repro.sim.faults.FaultPlan` from JSON data."""
    return FaultPlan(
        seed=data.get("seed", 0),
        drop_prob=data.get("drop_prob", 0.0),
        dup_prob=data.get("dup_prob", 0.0),
        crashes=tuple(
            CrashEvent(
                pid=c["pid"],
                at=c["at"],
                restart_after=c.get("restart_after"),
            )
            for c in data.get("crashes", ())
        ),
        spikes=tuple(
            DelaySpike(
                at=s["at"], duration=s["duration"], factor=s["factor"]
            )
            for s in data.get("spikes", ())
        ),
        partitions=tuple(
            PartitionEvent(
                at=p["at"],
                links=tuple(
                    (link[0], link[1]) for link in p.get("links", ())
                ),
                symmetric=p.get("symmetric", True),
                duration=p.get("duration"),
            )
            for p in data.get("partitions", ())
        ),
        heals=tuple(
            HealEvent(
                at=h["at"],
                links=(
                    None
                    if h.get("links") is None
                    else tuple(
                        (link[0], link[1]) for link in h["links"]
                    )
                ),
                symmetric=h.get("symmetric", True),
            )
            for h in data.get("heals", ())
        ),
    )


@dataclass(frozen=True)
class FaultSpec:
    """Fault injection for a run.

    What the protocol must support follows the resolved plan: crash
    events need a crash-tolerant protocol, partition events a
    partition-tolerant one (``repro.runtime.crash_tolerant_protocols()``
    / ``partition_tolerant_protocols()``).

    Attributes:
        seed: seeds :meth:`~repro.sim.faults.FaultPlan.random` when no
            explicit ``plan`` is given.
        horizon: virtual-time spread of the generated plan.
        recovery: ``"replay"`` (re-deliver the log) or ``"snapshot"``
            (peer state transfer).
        recover: False = negative control; crashes become permanent
            and the run is *expected* to fail.
        failover_delay: sequencer failure-detection delay.
        plan: explicit fault plan, overriding the seeded draw.
        partition: draw the seeded plan from
            :meth:`~repro.sim.faults.FaultPlan.random_partition`
            (link-level partition schedule) instead of the crash
            schedule; requires a partition-tolerant protocol.
        quorum_aware: False = partition negative control (quorum
            safeguards stripped; a split-brain is *expected* and must
            be caught by the checkers).
        degraded: minority-side sequencer behaviour, ``"defer"`` or
            ``"refuse"``.
        detector_period / detector_timeout: heartbeat interval and
            initial silence threshold of the failure detector (armed
            whenever the plan contains partitions).
        ack_timeout / retry_backoff / retry_jitter / max_retries: the
            reliable shim's retransmission schedule — serialized so a
            replayed spec reproduces every ``DeliveryTimeout``
            bit-for-bit.
    """

    seed: int = 0
    horizon: float = 40.0
    recovery: str = "replay"
    recover: bool = True
    failover_delay: float = 4.0
    plan: Optional[FaultPlan] = None
    partition: bool = False
    quorum_aware: bool = True
    degraded: str = "defer"
    detector_period: float = 1.0
    detector_timeout: float = 3.5
    ack_timeout: float = 4.0
    retry_backoff: float = 2.0
    retry_jitter: float = 0.25
    max_retries: int = 40

    def __post_init__(self) -> None:
        if self.recovery not in ("replay", "snapshot"):
            raise InvalidSpecError(
                f"unknown recovery mode {self.recovery!r}; expected "
                "'replay' or 'snapshot'"
            )
        if self.degraded not in ("defer", "refuse"):
            raise InvalidSpecError(
                f"unknown degraded mode {self.degraded!r}; expected "
                "'defer' or 'refuse'"
            )
        # Settings no run can succeed under are refused here, not
        # queued: the shim's ranges are the ones ``Network`` enforces.
        try:
            rules = (
                (self.horizon > 0, "horizon > 0"),
                (self.failover_delay >= 0, "failover_delay >= 0"),
                (self.detector_period > 0, "detector_period > 0"),
                (
                    self.detector_timeout > self.detector_period,
                    "detector_timeout > detector_period",
                ),
                (self.ack_timeout > 0, "ack_timeout > 0"),
                (self.retry_backoff >= 1, "retry_backoff >= 1"),
                (self.retry_jitter >= 0, "retry_jitter >= 0"),
                (self.max_retries >= 0, "max_retries >= 0"),
            )
        except TypeError as exc:
            raise InvalidSpecError(
                f"fault spec has a non-numeric setting: {exc}"
            ) from None
        for ok, rule in rules:
            if not ok:
                raise InvalidSpecError(f"fault spec needs {rule}")

    def resolve(self, n: int) -> FaultPlan:
        """The plan a run of ``n`` processes arms: the explicit
        ``plan`` or the seeded draw, restartless when ``recover`` is
        off."""
        plan = self.plan
        if plan is None:
            draw = (
                FaultPlan.random_partition
                if self.partition
                else FaultPlan.random
            )
            plan = draw(self.seed, n, horizon=self.horizon)
        return plan if self.recover else plan.without_restarts()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "horizon": self.horizon,
            "recovery": self.recovery,
            "recover": self.recover,
            "failover_delay": self.failover_delay,
            "plan": (
                None if self.plan is None else fault_plan_to_dict(self.plan)
            ),
            "partition": self.partition,
            "quorum_aware": self.quorum_aware,
            "degraded": self.degraded,
            "detector_period": self.detector_period,
            "detector_timeout": self.detector_timeout,
            "ack_timeout": self.ack_timeout,
            "retry_backoff": self.retry_backoff,
            "retry_jitter": self.retry_jitter,
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        _reject_unknown(cls, "faults", data)
        plan = data.get("plan")
        return cls(
            **{
                **data,
                "plan": None if plan is None else fault_plan_from_dict(plan),
            }
        )


@dataclass(frozen=True)
class VerifyPolicy:
    """What to check after the run, and how.

    Attributes:
        enabled: run the consistency checkers at all.
        condition: the :data:`~repro.core.index.CONDITIONS` row to
            check; None = the protocol's declared strongest condition
            (skip verification when the protocol declares none).
        method: checker selection (``auto``/``exact``/``constrained``),
            forwarded to :func:`repro.core.check_condition`.
        use_ww: feed the run's recorded ``~ww`` synchronization order
            as ``extra_pairs`` (the Theorem-7 fast path).
        certificate: ``"auto"`` = ask the static prover to certify
            the workload and hand the checkers the resulting
            :class:`~repro.analysis.static.prover.ConstraintCertificate`
            (falling back silently when it refuses); ``"off"`` = always
            use the dynamic constraint phase.
        window: ``~ww`` lookback depth of the certified scan,
            forwarded to :func:`repro.core.check_condition` (which
            raises :class:`~repro.errors.PlanRefused` when no
            certificate binds a total update chain) — also the
            bounded-memory ``window`` of the in-run
            :class:`~repro.core.monitor.LiveMonitor` when faults are
            armed.
    """

    enabled: bool = True
    condition: Optional[str] = None
    method: str = "auto"
    use_ww: bool = True
    certificate: str = "auto"
    window: Optional[int] = None

    def __post_init__(self) -> None:
        if self.condition is not None and self.condition not in CONDITIONS:
            raise InvalidSpecError(
                f"unknown condition {self.condition!r}; expected one of "
                f"{tuple(CONDITIONS)}"
            )
        if self.method not in ("auto", "exact", "constrained"):
            raise InvalidSpecError(
                f"unknown check method {self.method!r}"
            )
        if self.certificate not in ("auto", "off"):
            raise InvalidSpecError(
                f"certificate policy must be 'auto' or 'off', got "
                f"{self.certificate!r}"
            )
        try:
            check_window(self.window)
        except ValueError as exc:
            raise InvalidSpecError(str(exc)) from None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "condition": self.condition,
            "method": self.method,
            "use_ww": self.use_ww,
            "certificate": self.certificate,
            "window": self.window,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VerifyPolicy":
        _reject_unknown(cls, "verify", data)
        return cls(**data)


@dataclass(frozen=True)
class RunSpec:
    """A complete, declarative description of one protocol run.

    Seeding convention (shared by the demo CLI and the benchmark
    report): the cluster's randomness uses ``seed``, the workload
    generator uses ``seed + 1``, and the network is internally seeded
    ``seed + 1`` by the cluster — one integer reproduces the run.
    """

    protocol: str
    workload: str = "random"
    n: int = 3
    objects: Tuple[str, ...] = ("x", "y", "z")
    ops: int = 5
    seed: int = 0
    latency: LatencySpec = LatencySpec()
    faults: Optional[FaultSpec] = None
    tracing: bool = False
    trace_path: Optional[str] = None
    metrics: bool = False
    verify: VerifyPolicy = VerifyPolicy()
    settle: float = 0.0
    max_events: int = 5_000_000
    #: Protocol-specific factory keywords (sorted key/value pairs so
    #: specs stay hashable and order-insensitively equal); the keys
    #: must appear in the protocol's ``ProtocolSpec.options``.
    options: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        options = self.options
        if isinstance(options, Mapping):
            options = options.items()
        object.__setattr__(
            self, "options", tuple(sorted((k, v) for k, v in options))
        )
        for name in ("n", "ops", "seed", "max_events"):
            if not _is_int(value := getattr(self, name)):
                raise InvalidSpecError(f"{name} must be an int, got {value!r}")
        if self.n <= 0:
            raise InvalidSpecError("n must be positive")
        if self.ops < 0:
            raise InvalidSpecError("ops must be non-negative")

    def options_dict(self) -> Dict[str, Any]:
        """The protocol options as a plain keyword dict."""
        return dict(self.options)

    def with_(self, **changes) -> "RunSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # JSON codec
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "workload": self.workload,
            "n": self.n,
            "objects": list(self.objects),
            "ops": self.ops,
            "seed": self.seed,
            "latency": self.latency.to_dict(),
            "faults": (
                None if self.faults is None else self.faults.to_dict()
            ),
            "tracing": self.tracing,
            "trace_path": self.trace_path,
            "metrics": self.metrics,
            "verify": self.verify.to_dict(),
            "settle": self.settle,
            "max_events": self.max_events,
            "options": dict(self.options),
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    # Canonical form — the serving layer's cache key
    # ------------------------------------------------------------------

    def canonical_dict(self) -> Dict[str, Any]:
        """The spec as normalized JSON data (defaults materialized).

        Every field appears (dataclass defaults are filled in at
        construction), ``options`` are already key-sorted, and values
        are normalized via :func:`_canonical_value` — so two specs
        that execute identically produce identical canonical dicts no
        matter how sparsely their JSON source spelled them.
        """
        return _canonical_value(self.to_dict())

    def canonical_json(self) -> str:
        """The canonical dict as compact, key-sorted JSON text."""
        return canonical_json(self.canonical_dict())

    def spec_hash(self) -> str:
        """SHA-256 of :meth:`canonical_json` — the served artifact's key.

        Semantically identical specs (field order, materialized
        defaults, int/float spellings) hash identically; any change
        that could alter the run's outcome changes the hash.
        """
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")
        ).hexdigest()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        if "protocol" not in data:
            raise InvalidSpecError("run spec needs a 'protocol'")
        _reject_unknown(cls, "run-spec", data)
        faults = data.get("faults")
        return cls(
            protocol=data["protocol"],
            workload=data.get("workload", "random"),
            n=data.get("n", 3),
            objects=tuple(data.get("objects", ("x", "y", "z"))),
            ops=data.get("ops", 5),
            seed=data.get("seed", 0),
            latency=LatencySpec.from_dict(data.get("latency", {})),
            faults=None if faults is None else FaultSpec.from_dict(faults),
            tracing=data.get("tracing", False),
            trace_path=data.get("trace_path"),
            metrics=data.get("metrics", False),
            verify=VerifyPolicy.from_dict(data.get("verify", {})),
            settle=data.get("settle", 0.0),
            max_events=data.get("max_events", 5_000_000),
            options=tuple(
                sorted(data.get("options", {}).items())
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpecError(f"run spec is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise InvalidSpecError("run spec JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "RunSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")
