"""Self-test of the benchmark (not part of tier-1).

Run explicitly: ``python -m pytest benchmarks/e2e -q`` (~1 min).  It
runs the real command at ``--smoke`` scale, so it also fails if a tap
target, a counter or the ``repro serve`` CLI the benchmark relies on
has moved.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import ROOT
from benchmarks.e2e import metrics as M
from benchmarks.e2e.cli import RUN_SECONDS
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]


def _smoke(tmp_path_factory, *flags: str):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    started = time.monotonic()
    done = subprocess.run(
        [*RUN, "--smoke", "--out", str(out), *flags],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text("utf-8")), done.stdout, elapsed


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _smoke(tmp_path_factory, "--trace")


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return _smoke(tmp_path_factory)


def test_smoke_completes_within_budget(traced, plain):
    assert traced[0]["correct"] and plain[0]["correct"]
    assert plain[2] < 30, f"--smoke took {plain[2]:.1f} s"
    assert set(traced[0]["workloads"]) == {w.name for w in WORKLOADS}


def test_declared_metrics_are_well_formed():
    names = [m.name for m in (*M.END_TO_END, *M.PER_LAYER)]
    assert len(names) == len(set(names))
    for metric in (*M.END_TO_END, *M.PER_LAYER):
        assert NAME.fullmatch(metric.name), metric.name
        assert UNIT.fullmatch(metric.unit), (metric.name, metric.unit)
        assert metric.better in ("lower", "higher")
    for metric in M.END_TO_END:
        assert 0 <= metric.bound <= 0.25
    for workload in WORKLOADS:
        assert NAME.fullmatch(workload.name)
        assert len(workload.why) <= 200 and "\n" not in workload.why


def test_every_metric_appears_where_it_applies(traced):
    document, stdout, _elapsed = traced
    emitted_layers = set()
    for workload in WORKLOADS:
        row = document["workloads"][workload.name]
        expected = {
            m.name for m in M.END_TO_END if M.applies(m, workload.name)
        }
        assert set(row["end_to_end"]) == expected, workload.name
        for name in expected:
            assert f"{name} " in stdout and M.unit_of(name) in stdout
        emitted_layers |= set(row["per_layer"])
    declared = {m.name for m in M.PER_LAYER}
    assert emitted_layers == declared, emitted_layers ^ declared


def test_benchmark_json_names_what_the_runner_emits():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert manifest == M.manifest(WORKLOADS, RUN_SECONDS)
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in manifest["end_to_end"]
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_line(trace):
    done = subprocess.run(
        [*RUN, "--workload", "partition-chaos", "--seed", "5", "--seconds",
         "1", "--trace", str(trace), "--smoke"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == M.contract_names(bool(trace))
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == M.unit_of(name)
        if not trace:
            assert entry["value"] > 0, name


def test_exact_metrics_repeat_across_runs(traced, plain):
    for workload in WORKLOADS:
        first = traced[0]["workloads"][workload.name]["end_to_end"]
        second = plain[0]["workloads"][workload.name]["end_to_end"]
        for metric in M.END_TO_END:
            if metric.exact and metric.name in first:
                assert first[metric.name] == second[metric.name], (
                    workload.name, metric.name,
                )
