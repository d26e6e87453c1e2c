"""One pass of one workload, run in a fresh child process.

A pass is: set up (imports, inputs, for serve-mix the daemon and its
warm pool), one untimed warm-up item, then whole cycles over the item
set until the time budget is spent.  GC stays enabled; ``gc.collect()``
runs before each item so no item pays for its predecessor's garbage.
The pass prints one JSON object on its last stdout line.

Item judging and metric extraction happen outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.metrics import LatencySummary
from repro.analysis.static.prover import certify_run
from repro.core import check_condition, history_from_json, save_history
from repro.errors import ReproError
from repro.obs import Tracer, install_tracer, uninstall_tracer
from repro.runtime import RunSpec, VerifyPolicy, execute, history_hash
from repro.serve import ControlPlane, ServeClient, ServeClientError, ServeConfig
from repro.workloads import corrupt_history

from benchmarks.e2e import ROOT, probes, workloads
from benchmarks.e2e.calib import HostSpeed
from benchmarks.e2e.spans import Spans, busy, self_times, tapped

Sample = Dict[str, Any]

#: Scratch space inside the checkout (git-ignored).
WORK = ROOT / ".bench_e2e"

#: Network counter -> per-layer metric (summed over the item set).
NET_COUNTERS = {
    "net.sent": "sim.network.sent",
    "net.delivered": "sim.network.delivered",
    "net.total_size": "sim.network.bytes_est",
    "net.dropped": "sim.network.dropped",
    "net.retransmitted": "sim.network.retransmitted",
    "net.lost_to_partition": "sim.network.lost_to_partition",
    "net.sent_by_kind{kind=abc-req}": "abcast.sequencer.requests",
    "net.sent_by_kind{kind=abc-seq}": "abcast.sequencer.seq_msgs",
    "net.sent_by_kind{kind=query}": "protocols.mlin.query_msgs",
    "net.size_by_kind{kind=query-resp}": "protocols.mlin.query_resp_bytes_est",
}
CHAOS_COUNTERS = {
    "failovers": "abcast.failovers",
    "degraded": "abcast.degraded",
    "partitions": "sim.faults.partitions",
    "audits": "sim.chaos.audits",
}
SPAN_SECONDS = {
    "runtime.execute": "runtime.execute_s",
    "runtime.workload_build": "runtime.workload_build_s",
    "runtime.cluster_build": "runtime.cluster_build_s",
    "runtime.history_hash": "runtime.history_hash_s",
    "runtime.artifact_json": "runtime.artifact_json_s",
    "sim.run": "sim.run_s",
    "analysis.static.prover.certify": "analysis.static.prover.certify_s",
    "core.consistency.check": "core.consistency.check_s",
    "core.index.build": "core.index.build_s",
    "core.plan.certificate": "core.plan.certificate_s",
    "core.plan.plan": "core.plan.plan_s",
    "core.plan.scan": "core.plan.scan_s",
    "core.serialize.load": "core.serialize.load_s",
}


def _p50(values: List[float]) -> Optional[float]:
    return LatencySummary.of(values).p50 if values else None


def _sample(
    item: str, cycle: int, wall: float, cpu: float, speed: float, **fields: Any
) -> Sample:
    """One timed item; ``wall_s``/``cpu_s`` are at reference host speed
    (see :mod:`benchmarks.e2e.calib`), ``raw_wall_s`` is as clocked."""
    return {
        "item": item, "cycle": cycle, "wall_s": wall * speed,
        "cpu_s": cpu * speed, "raw_wall_s": wall, "host_speed": speed,
        "mops": 0, "failed": None, "exact": {}, "counts": {},
        "program_tracer": False, **fields,
    }


def _norm(samples: List[Sample]) -> float:
    """Scaled / raw wall over ``samples``: the factor for span times."""
    raw = sum(s["raw_wall_s"] for s in samples)
    return sum(s["wall_s"] for s in samples) / raw if raw else 1.0


class Pass:
    """What the three pass drivers share.

    A driver sets up in ``__init__``, then serves ``warm_up()``,
    ``run_cycle(cycle)`` (samples plus their wall and CPU seconds at
    reference host speed), ``layers(samples)`` for a traced pass and
    ``close()``.
    """

    #: Cycles a pass makes at least (a traced sim pass: two).
    min_cycles = 1
    #: Whether timed items run under the taps of :mod:`spans`.
    tapped = False

    def __init__(self, workload, job: Dict[str, Any], spans: Spans) -> None:
        self.workload = workload
        self.spans = spans
        self.traced = job["traced"]
        self.seed = job["seed"]
        self.count = workload.smoke_count if job["smoke"] else workload.count
        self.host = HostSpeed()
        self.items: List[tuple] = []

    def run_cycle(self, cycle: int) -> Tuple[List[Sample], float, float]:
        samples = [self._run_item(cycle, *item) for item in self.items]
        return (
            samples,
            sum(s["wall_s"] for s in samples),
            sum(s["cpu_s"] for s in samples),
        )

    def peak_rss_mb(self) -> float:
        """Max RSS of the process doing the work: this one."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class SimPass(Pass):
    """``RunSpec -> execute -> artifact JSON`` per item."""

    tapped = True

    def __init__(self, workload, job: Dict[str, Any], spans: Spans) -> None:
        super().__init__(workload, job, spans)
        self.items = workload.specs(self.seed, self.count)
        if workload.screened:
            self.items = _screen(workload, self.seed, len(self.items))
        # A traced pass runs the item set twice: cycle 0 under the
        # benchmark's taps only, which gives the layer times, and
        # cycle 1 with the program's own tracer switched on as well,
        # which gives its check.* phase spans and what that tracer
        # costs (it slows cluster.run far too much to time layers).
        self.min_cycles = 2 if self.traced else 1
        self.trace_spans = 0
        self.trace_dropped = 0

    def warm_up(self) -> None:
        # Same protocol, workload and checker path as item 0 at an
        # eighth of its length: code paths and interned tables are
        # warm, the item set itself is untouched.
        _item, spec = self.items[0]
        execute(spec.with_(ops=max(2, spec.ops // 8))).to_json()

    def _run_item(self, cycle: int, item: str, spec: RunSpec) -> Sample:
        spans = self.spans
        spans.set_item(item, cycle)
        program_tracer = self.traced and cycle == 1
        if program_tracer:
            spec = spec.with_(tracing=True, metrics=True)
        artifact = None
        failed: Optional[str] = None
        speed = self.host.now()
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with spans.span("item"):
            try:
                with spans.span("runtime.execute"):
                    artifact = execute(spec)
                with spans.span("runtime.artifact_json"):
                    artifact.to_json()
            except Exception as exc:  # an item that raised is a failed item
                failed = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        sample = _sample(
            item, cycle, wall, cpu, (speed + self.host.now()) / 2,
            failed=failed, program_tracer=program_tracer,
        )
        if artifact is not None:
            self._judge(artifact, sample)
        return sample

    def _judge(self, artifact, sample: Sample) -> None:
        verdict = artifact.verdicts[0] if artifact.verdicts else None
        if not artifact.ok:
            sample["failed"] = artifact.failure or (
                artifact.violations[0] if artifact.violations else "not ok"
            )
        elif verdict is None:
            sample["failed"] = "no verdict returned"
        sample["mops"] = artifact.completed
        counters = artifact.net_stats.get("counters", {})
        exact = sample["exact"] = {
            "history_hash": artifact.history_hash,
            "completed": artifact.completed,
            "holds": verdict.holds if verdict else None,
            "method": verdict.method if verdict else None,
            "certificate": verdict.certificate if verdict else None,
            "sent": counters.get("net.sent", 0),
        }
        result = artifact.result
        if result is not None:
            exact["query_rt_p50"] = _p50(result.latencies(updates=False))
            exact["update_rt_p50"] = _p50(result.latencies(updates=True))
            if artifact.chaos is not None:
                done = sorted(rec.resp for rec in result.recorder.records)
                exact["max_stall"] = max(
                    (b - a for a, b in zip([0.0] + done, done)), default=None
                )
        if not self.traced:
            return
        counts = sample["counts"]
        for counter, name in NET_COUNTERS.items():
            counts[name] = counters.get(counter, 0)
        counts["protocols.recorder.records"] = artifact.completed
        chaos = artifact.net_stats.get("chaos", {})
        for key, name in CHAOS_COUNTERS.items():
            counts[name] = chaos.get(key, 0)
        detector = artifact.net_stats.get("detector", {})
        counts["sim.detector.suspicions"] = detector.get("suspicions", 0)
        counts["sim.detector.false_suspicions"] = detector.get(
            "false_suspicions", 0
        )
        if artifact.tracer is not None:
            self.spans.adopt_check_phases(artifact.tracer.records())
            self.trace_spans += artifact.tracer.finished
            self.trace_dropped += artifact.tracer.evicted

    def layers(self, samples: List[Sample]) -> Dict[str, float]:
        # Layer times from cycle 0 (taps only); the adopted check.*
        # phases exist only in cycle 1.  One cycle of each.
        first_cycle = [s for s in samples if s["cycle"] == 0]
        rows = [r for r in self.spans.rows if r["cycle"] == 0]
        out = _span_seconds(rows, _norm(first_cycle))
        out.update(
            _span_seconds(
                [r for r in self.spans.rows if r.get("adopted")],
                _norm([s for s in samples if s["cycle"] == 1]),
            )
        )
        for sample in first_cycle:
            for name, value in sample["counts"].items():
                out[name] = out.get(name, 0) + value
        false_suspicions = out.pop("sim.detector.false_suspicions", 0)
        suspicions = out.get("sim.detector.suspicions", 0)
        out["sim.detector.false_suspect_rate"] = (
            false_suspicions / suspicions if suspicions else 0.0
        )
        out["sim.kernel.events"] = sum(
            r.get("events", 0) for r in rows if r["name"] == "sim.run"
        )
        if out.get("sim.run_s"):
            out["sim.kernel.events_per_s"] = (
                out["sim.kernel.events"] / out["sim.run_s"]
            )
        mops = {s["item"]: s["mops"] for s in first_cycle}
        scanned = sum(
            mops.get(r["item"], 0) for r in self.spans.rows
            if r["name"] == "core.plan.scan"
        )
        if out.get("core.plan.scan_s"):
            out["core.plan.scan_mops_per_s"] = scanned / out["core.plan.scan_s"]
        out["obs.trace_spans"] = self.trace_spans
        out["obs.trace_dropped"] = self.trace_dropped
        per_item = {
            name: value / len(first_cycle) for name, value in out.items()
        }
        out.update(
            probes.run_probes(self.workload.name, self.items[0][1], per_item)
        )
        return out


class OfflinePass(Pass):
    """History file -> ``history_from_json`` -> uncertified check.

    Items are ``(item id, path, ~ww pairs, expected holds)``.
    """

    def __init__(self, workload, job: Dict[str, Any], spans: Spans) -> None:
        super().__init__(workload, job, spans)
        self.dir = WORK / f"offline-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        try:
            for index, (_item, spec) in enumerate(
                workload.specs(self.seed, self.count)
            ):
                self._record(f"h{index}", spec)
        except BaseException:
            self.close()
            raise

    def _record(self, name: str, spec: RunSpec) -> None:
        """Record one history (verification off) and its two twins.

        ``corrupt_history`` rewires one read to another writer.  A
        *stale* twin reads an older writer (caught by the legality
        scan), a *future* twin a newer one (caught as a cycle, after a
        far costlier closure) — one of each keeps the item mix, and so
        the timing, the same for every seed.  A twin is kept only if
        the certified scan, an independent route through ``core``,
        already calls it violated.
        """
        result = execute(spec).result
        pairs = result.ww_pairs()
        position = {uid: i for i, uid in enumerate(result.ww_sequence)}
        certificate = certify_run(result)
        history = result.history
        self._write(f"{name}-valid", history, pairs, True)
        wanted = {"stale", "future"}
        for corruption in range(64):
            if not wanted:
                return
            twin = corrupt_history(history, seed=corruption)
            if twin is None:
                continue
            (key,) = [
                k for k, writer in twin.reads_from_map.items()
                if history.reads_from_map.get(k) != writer
            ]
            old = position.get(history.reads_from_map[key], -1)
            new = position.get(twin.reads_from_map[key], -1)
            kind = "future" if new > old else "stale"
            if kind not in wanted:
                continue
            oracle = check_condition(
                twin, "m-sc", extra_pairs=pairs, certificate=certificate
            )
            if oracle.holds:
                continue
            wanted.discard(kind)
            self._write(f"{name}-{kind}", twin, pairs, False)
        raise RuntimeError(f"{name}: no violating {sorted(wanted)} twin found")

    def _write(self, item: str, history, pairs, holds: bool) -> None:
        path = self.dir / f"{item}.json"
        with self.spans.span("core.serialize.dump"):
            save_history(history, str(path))
        self.items.append((item, path, pairs, holds))

    def warm_up(self) -> None:
        # The cheapest item that still runs load + closure + legality.
        item = next(i for i in self.items if i[0].endswith("-stale"))
        check_condition(
            history_from_json(item[1].read_text("utf-8")), "m-sc",
            extra_pairs=item[2],
        )

    def _run_item(
        self, cycle: int, item: str, path: Path, pairs, holds: bool
    ) -> Sample:
        spans = self.spans
        spans.set_item(item, cycle)
        tracer = Tracer() if self.traced else None
        history = verdict = None
        failed: Optional[str] = None
        speed = self.host.now()
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if tracer is not None:
            install_tracer(tracer)
        try:
            with spans.span("item"):
                with spans.span("core.serialize.load"):
                    history = history_from_json(path.read_text("utf-8"))
                with spans.span("core.consistency.check", expect_holds=holds):
                    verdict = check_condition(
                        history, "m-sc", extra_pairs=pairs
                    )
        except Exception as exc:  # an item that raised is a failed item
            failed = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                uninstall_tracer()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            spans.adopt_check_phases(tracer.records())
        exact: Dict[str, Any] = {}
        if verdict is not None:
            if verdict.holds != holds:
                failed = (
                    f"verdict holds={verdict.holds}, expected holds={holds}"
                )
            exact = {
                "history_hash": history_hash(history),
                "completed": len(history.mops),
                "holds": verdict.holds,
                "method": verdict.method_used,
                "certificate": verdict.certificate,
            }
        return _sample(
            item, cycle, wall, cpu, (speed + self.host.now()) / 2,
            mops=exact.get("completed", 0), failed=failed, exact=exact,
            program_tracer=self.traced,
        )

    def layers(self, samples: List[Sample]) -> Dict[str, float]:
        rows = self.spans.rows
        norm = _norm(samples)
        out = _span_seconds(rows, norm)
        out["core.serialize.dump_s"] = norm * busy(rows, "core.serialize.dump")
        for holds, name in (
            (True, "core.consistency.uncertified_check_s"),
            (False, "core.consistency.violation_check_s"),
        ):
            out[name] = norm * sum(
                r["end"] - r["start"] for r in rows
                if r["name"] == "core.consistency.check"
                and r.get("expect_holds") is holds
            )
        out.update(probes.run_probes(self.workload.name, None, {}))
        return out

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class ServePass(Pass):
    """HTTP submissions to a real ``python -m repro serve`` subprocess.

    Clients go through the program's own :class:`ServeClient`, which
    opens one connection per request, as its users do.  (Keep-alive
    connections stall ~40 ms per exchange on Nagle + delayed ACK,
    because the daemon writes header and body separately — measured
    while building this, left for a later issue.)
    """

    POLL_S = 0.002
    #: Submissions between two host-speed readings.
    CHUNK = 100

    def __init__(self, workload, job: Dict[str, Any], spans: Spans) -> None:
        super().__init__(workload, job, spans)
        self.submissions = (
            workloads.SERVE_SMOKE_SUBMISSIONS if job["smoke"]
            else workloads.SERVE_SUBMISSIONS
        )
        self.pool = workload.specs(self.seed, self.count)
        self.dir = WORK / f"serve-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        self.daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--workers", "2",
                "--port", "0", "--store", str(self.dir / "store"),
            ],
            env=env, cwd=str(ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            self._discover()
            # Warm the pool: every pool spec executes once, so timed
            # draws from it are verdict-cache hits.
            self._drive(
                [(name, name, spec, None) for name, spec in self.pool], cycle=-1
            )
        except BaseException:
            self.close()
            raise
        self.metrics_before: Dict[str, Any] = {}
        self.metrics_after: Dict[str, Any] = {}

    def _discover(self) -> None:
        """Wait for ``serve.json`` (the ``--port 0`` discovery file)."""
        endpoint = self.dir / "store" / "serve.json"
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if self.daemon.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.daemon.returncode}"
                )
            try:
                url = json.loads(endpoint.read_text("utf-8"))["url"]
            except (OSError, ValueError, KeyError):
                time.sleep(0.02)  # not written or half written yet
                continue
            self.client = ServeClient(url, timeout=60.0)
            if self.client.wait_healthy(deadline - time.monotonic()):
                return
        raise RuntimeError("repro serve did not come up within 30 s")

    def warm_up(self) -> None:
        name, spec = self.pool[0]
        self._drive([(name, name, spec, "cached")], cycle=-1)

    def _plan(self, cycle: int) -> List[Tuple[str, str, RunSpec, str]]:
        """One cycle of ``(slot, spec name, spec, expected outcome)``:
        exactly the hit share from the pool, the rest never-seen
        seeds, shuffled by ``--seed``."""
        rng = random.Random(self.seed * 7919 + cycle)
        cold = self.workload.specs(
            self.seed + 10_000 + cycle * self.submissions,
            self.submissions - int(self.submissions * workloads.SERVE_HIT_SHARE),
        )
        draws = [(name, spec, "queued") for name, spec in cold]
        while len(draws) < self.submissions:
            draws.append(rng.choice(self.pool) + ("cached",))
        rng.shuffle(draws)
        return [
            (f"c{cycle}-{slot}", *draw) for slot, draw in enumerate(draws)
        ]

    def run_cycle(self, cycle: int) -> Tuple[List[Sample], float, float]:
        plan = self._plan(cycle)
        if cycle == 0:
            self.metrics_before = self.client.metrics()
        # The reference loop must not compete with the daemon and the
        # clients for the two cores, so host speed is read between
        # chunks of submissions (about a second each), not during them.
        samples: List[Sample] = []
        wall = cpu = 0.0
        before = self.host.measure()
        for start in range(0, len(plan), self.CHUNK):
            cpu0 = self._daemon_cpu()
            wall0 = time.perf_counter()
            chunk = self._drive(plan[start:start + self.CHUNK], cycle)
            chunk_wall = time.perf_counter() - wall0
            chunk_cpu = self._daemon_cpu() - cpu0
            after = self.host.measure()
            speed = (before + after) / 2
            before = after
            wall += chunk_wall * speed
            cpu += chunk_cpu * speed
            for sample in chunk:
                sample["wall_s"] *= speed
                sample["host_speed"] = speed
                sample["counts"] = {
                    name: value * speed
                    for name, value in sample["counts"].items()
                }
            samples.extend(chunk)
        self.metrics_after = self.client.metrics()
        return samples, wall, cpu

    def _drive(self, plan, cycle: int) -> List[Sample]:
        """Closed loop: each client sends its next submission only
        after holding the previous one's artifact."""
        lanes: List[List[Sample]] = [[] for _ in range(workloads.SERVE_CLIENTS)]
        errors: List[BaseException] = []

        def client(lane: int) -> None:
            try:
                for entry in plan[lane::workloads.SERVE_CLIENTS]:
                    lanes[lane].append(self._submit(cycle, *entry))
            except BaseException as exc:  # surfaced by the joining thread
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(lane,), daemon=True)
            for lane in range(workloads.SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [sample for lane in lanes for sample in lane]

    def _submit(self, cycle, item, name, spec, expect) -> Sample:
        spans = self.spans
        spans.set_item(item, cycle)
        run: Dict[str, Any] = {}
        failed: Optional[str] = None
        outcome = None
        wall0 = time.perf_counter()
        with spans.span("item"):
            try:
                with spans.span("serve.http.submit"):
                    submitted = self.client.submit(spec)
                outcome = submitted["outcome"]
                if outcome == "cached":
                    run = {"status": "cached", "artifact": submitted["artifact"]}
                else:
                    with spans.span("serve.http.wait"):
                        run = self.client.wait(
                            submitted["run_id"], poll_interval=self.POLL_S
                        )
            except ServeClientError as exc:  # HTTP error/refusal/timeout
                failed = str(exc)
        wall = time.perf_counter() - wall0
        artifact = run.get("artifact") or {}
        if failed is None:
            if run.get("status") not in ("done", "cached"):
                failed = f"run {run.get('status')}: {run.get('error')}"
            elif not artifact.get("ok"):
                failed = "artifact not ok"
            elif expect is not None and outcome != expect:
                failed = f"outcome {outcome}, expected {expect}"
        verdicts = artifact.get("verdicts") or [{}]
        counts = {}
        if outcome == "queued" and run.get("started_at") is not None:
            counts = {
                "serve.queue.wait_s": run["started_at"] - run["submitted_at"],
                "serve.run_s": run["run_seconds"],
            }
        # Latency is per slot; exact values are pinned per spec name.
        # Scaled to reference host speed once the phase is over.
        return _sample(
            item, cycle, wall, 0.0, 1.0,
            pin=name, mops=artifact.get("completed", 0), failed=failed,
            outcome=outcome, counts=counts,
            exact={
                "history_hash": artifact.get("history_hash"),
                "completed": artifact.get("completed"),
                "holds": verdicts[0].get("holds"),
                "method": verdicts[0].get("method"),
                "certificate": verdicts[0].get("certificate"),
                "outcome": outcome,
            },
        )

    def _daemon_cpu(self) -> float:
        """utime + stime of the daemon process, from ``/proc``."""
        stat = Path(f"/proc/{self.daemon.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Max RSS of the process doing the work: the daemon."""
        for line in Path(f"/proc/{self.daemon.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def layers(self, samples: List[Sample]) -> Dict[str, float]:
        def median(values: List[float]) -> float:
            return statistics.median(values) if values else 0.0

        def walls(outcome: str) -> List[float]:
            return [s["wall_s"] for s in samples if s["outcome"] == outcome]

        def counted(key: str) -> List[float]:
            # Queue wait and run time exist for executed runs only.
            return [s["counts"][key] for s in samples if key in s["counts"]]

        before = self.metrics_before["serve"]["cache"]
        after = self.metrics_after["serve"]["cache"]
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        out = {
            "serve.http.cached_rt_s": median(walls("cached")),
            "serve.http.cold_rt_s": median(walls("queued")),
            "serve.queue.wait_s": median(counted("serve.queue.wait_s")),
            "serve.run_s": median(counted("serve.run_s")),
            "serve.cache.hit_rate": hits / lookups if lookups else 0.0,
            "serve.store.artifact_bytes": self.metrics_after["serve"]["store"]
            .get("bytes", 0),
            "serve.plane.cached_submit_s": (
                self._plane_probe() * self.host.measure()
            ),
        }
        out["serve.http.overhead_s"] = (
            out["serve.http.cached_rt_s"] - out["serve.plane.cached_submit_s"]
        )
        return out

    def _plane_probe(self) -> float:
        """In-process ``ControlPlane.submit`` on a cached spec: the
        cache path with no HTTP in front of it."""
        plane = ControlPlane(
            ServeConfig(store_dir=str(self.dir / "probe-store"), workers=1)
        )
        plane.start()
        try:
            data = self.pool[0][1].to_dict()
            record, _outcome = plane.submit(data)
            plane.wait(record.run_id)
            walls = []
            for _ in range(200):
                start = time.perf_counter()
                _record, outcome = plane.submit(data)
                walls.append(time.perf_counter() - start)
                if outcome != "cached":
                    raise RuntimeError(f"probe submit was {outcome}")
            return statistics.median(walls)
        finally:
            plane.stop()

    def close(self) -> None:
        if self.daemon.poll() is None:
            self.daemon.send_signal(signal.SIGINT)
            try:
                self.daemon.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
        shutil.rmtree(self.dir, ignore_errors=True)


#: Event budget of a screening dry run; a partition-chaos item fires
#: about 7k events, a livelocked one would spend the default 5M.
SCREEN_EVENTS = 60_000


def _screen(workload, seed: int, wanted: int) -> List[Tuple[str, RunSpec]]:
    """The first ``wanted`` candidate specs whose dry run completes.

    Candidates are screened in groups sharing an id suffix (one fault
    seed: its msc and its mlin spec), so the protocol mix stays even.
    """
    groups: Dict[str, List[Tuple[str, RunSpec]]] = {}
    for item, spec in workload.specs(seed, wanted + 8):
        groups.setdefault(item.split("-", 1)[1], []).append((item, spec))
    kept: List[Tuple[str, RunSpec]] = []
    for members in groups.values():
        if len(kept) >= wanted:
            return kept[:wanted]
        if all(_completes(spec) for _item, spec in members):
            kept.extend(members)
    raise RuntimeError(
        f"{workload.name}: only {len(kept)} of {wanted} candidate specs "
        "complete"
    )


def _completes(spec: RunSpec) -> bool:
    dry = spec.with_(
        verify=VerifyPolicy(enabled=False), max_events=SCREEN_EVENTS
    )
    try:
        return execute(dry).ok
    except ReproError:
        return False


def _span_seconds(rows: List[Dict[str, Any]], norm: float) -> Dict[str, float]:
    """Busy seconds, at reference host speed, for every span that maps
    to a metric (a traced pass makes exactly one cycle of each kind,
    so: per cycle)."""
    out: Dict[str, float] = {}
    for span_name, metric in SPAN_SECONDS.items():
        seconds = busy(rows, span_name)
        if seconds:
            out[metric] = seconds * norm
    return out


PASSES = {"sim": SimPass, "offline": OfflinePass, "serve": ServePass}


def run_pass(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one pass; returns the JSON-ready result."""
    workload = workloads.get(job["workload"])
    spans = Spans(workload.name, enabled=job["traced"])
    driver = PASSES[workload.kind](workload, job, spans)
    try:
        driver.warm_up()
        # Taps go in after set-up, so only timed items are tapped.
        taps = (
            tapped(spans) if job["traced"] and driver.tapped
            else contextlib.nullcontext()
        )
        with taps:
            result = _measure(driver, job)
        if job["traced"]:
            result["layers"] = driver.layers(result["samples"])
    finally:
        driver.close()
    if job["traced"]:
        spans.write_jsonl(job["spans_path"])
        # Cycle 0 only: for sim workloads the one without the
        # program's tracer (so none of its adopted phases either), for
        # the others the only one.
        norm = _norm(result["samples"][: result["per_cycle"]])
        result["self_times"] = {
            name: seconds * norm
            for name, seconds in self_times(
                [
                    r for r in spans.rows
                    if r["item"] is not None and r["cycle"] == 0
                ]
            ).items()
        }
    return result


def _measure(driver, job: Dict[str, Any]) -> Dict[str, Any]:
    raw_setup_s = time.time() - job["spawned_at"]
    setup_s = raw_setup_s * driver.host.measure()
    samples: List[Sample] = []
    walls: List[float] = []
    cpus: List[float] = []
    started = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        cycle_samples, wall, cpu = driver.run_cycle(len(walls))
        samples.extend(cycle_samples)
        walls.append(wall)
        cpus.append(cpu)
        now = time.perf_counter()
        # Whole cycles only: start another one if it should still fit.
        # A traced pass runs its fixed cycles and nothing more.
        fits = now - started + (now - cycle_start) <= job["budget_s"]
        if len(walls) >= driver.min_cycles and (job["traced"] or not fits):
            break
    return {
        "workload": job["workload"],
        "traced": job["traced"],
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "host_speed": statistics.median(driver.host.readings),
        "cycles": len(walls),
        "per_cycle": len(samples) // len(walls),
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "peak_rss_mb": driver.peak_rss_mb(),
        "samples": samples,
    }
