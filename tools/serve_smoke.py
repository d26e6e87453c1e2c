"""Serve-smoke: a real ``repro serve`` subprocess, end to end.

CI's ``serve-smoke`` job (and ``make serve-smoke``) executes this
script: it launches ``python -m repro serve --port 0`` as a genuine
subprocess — the exact entry point users get, not an in-process
shortcut — discovers the ephemeral port through the daemon's
``<store>/serve.json`` endpoint file, then drives one small RunSpec
per registered protocol through :class:`repro.serve.ServeClient`.

Assertions, any of which fail the job:

* every protocol's run completes with a ``done``/``ok`` artifact,
  awaited with the waiting ``GET /v1/runs/<id>?wait=`` (no polling);
* every protocol's ``GET /v1/artifacts/<spec hash>`` body is the
  store's file, byte for byte;
* resubmitting every spec answers ``cached`` — the artifact store
  round-trips over HTTP;
* ``/metrics`` reports a positive cache hit rate and one executed
  run per protocol.

The daemon's request audit log and every fetched artifact (its
canonical bytes) land in ``--out-dir`` (default ``serve-smoke/``) for
CI upload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runtime import RunSpec, protocol_names  # noqa: E402
from repro.serve import ServeClient  # noqa: E402


def _discover_url(store: Path, deadline: float) -> str:
    endpoint_file = store / "serve.json"
    while time.monotonic() < deadline:
        if endpoint_file.exists():
            try:
                return json.loads(endpoint_file.read_text())["url"]
            except (ValueError, KeyError):
                pass  # partially written; retry
        time.sleep(0.05)
    raise RuntimeError(f"daemon never wrote {endpoint_file}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir",
        default="serve-smoke",
        help="directory for request log + artifacts (default serve-smoke/)",
    )
    parser.add_argument("--ops", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = out_dir / "store"

    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--store",
            str(store),
            "--workers",
            "2",
        ],
        cwd=str(REPO_ROOT),
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    failures = []
    try:
        url = _discover_url(store, time.monotonic() + 30.0)
        client = ServeClient(url, timeout=30.0)
        if not client.wait_healthy(30.0):
            print(f"[serve-smoke] {url} never became healthy", file=sys.stderr)
            return 1
        print(f"[serve-smoke] daemon up at {url} (pid {daemon.pid})")

        names = protocol_names()
        specs = [
            RunSpec(protocol=name, ops=args.ops, seed=args.seed)
            for name in names
        ]

        # Round 1: every protocol executes to a done/ok artifact, and
        # the daemon serves the stored file's bytes as they are.
        for spec in specs:
            submitted = client.submit(spec)
            run = client.wait(submitted["run_id"], timeout=args.timeout)
            ok = run["status"] == "done" and run["artifact"]["ok"]
            print(f"[serve-smoke] {spec.protocol}: {run['status']}")
            if not ok:
                failures.append(f"{spec.protocol}: {run.get('error')}")
                continue
            key = submitted["spec_hash"]
            with urllib.request.urlopen(
                f"{url}/v1/artifacts/{key}", timeout=30.0
            ) as response:
                body = response.read()
            if body != (store / "artifacts" / f"{key}.json").read_bytes():
                failures.append(
                    f"{spec.protocol}: served artifact is not the "
                    "store's file"
                )
            (out_dir / f"{spec.protocol}.artifact.json").write_bytes(body)

        # Round 2: byte-for-byte resubmission must answer from cache.
        for spec in specs:
            again = client.submit(spec)
            if again["outcome"] != "cached":
                failures.append(
                    f"{spec.protocol}: resubmission was "
                    f"{again['outcome']!r}, expected 'cached'"
                )
        print(f"[serve-smoke] {len(specs)} cached resubmissions checked")

        metrics = client.metrics()
        cache = metrics["serve"]["cache"]
        if cache["hit_rate"] <= 0:
            failures.append(f"cache hit rate {cache['hit_rate']} not > 0")
        executed = sum(
            value
            for name, value in metrics["counters"].items()
            if name.startswith("serve.runs{")
        )
        if executed != len(specs):
            failures.append(
                f"{executed} executions for {len(specs)} protocols "
                f"(cache failed to absorb resubmissions)"
            )
        (out_dir / "metrics.json").write_text(
            json.dumps(metrics, indent=2, sort_keys=True, default=str)
        )
    finally:
        daemon.terminate()
        try:
            output = daemon.communicate(timeout=10.0)[0]
        except subprocess.TimeoutExpired:
            daemon.kill()
            output = daemon.communicate()[0]
        (out_dir / "daemon.log").write_bytes(output or b"")
        audit = store / "requests.log.jsonl"
        if audit.exists():
            shutil.copy(audit, out_dir / "requests.log.jsonl")
        # The store itself (one artifact file per spec) stays out of the
        # uploaded payload -- the per-protocol artifact copies and the
        # audit log above are the interesting bits.
        shutil.rmtree(store, ignore_errors=True)

    if failures:
        for line in failures:
            print(f"[serve-smoke] FAILED: {line}", file=sys.stderr)
        return 1
    print(
        f"[serve-smoke] {len(protocol_names())} protocols ok -> {out_dir}/"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
