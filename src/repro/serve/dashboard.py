"""Minimal HTML dashboard for the serving daemon (``GET /``).

One dependency-free, self-contained page rendered server-side from
:meth:`ControlPlane.state_summary`: queue depth, cache hit rate,
per-protocol verdict counts, store/retention state and the most
recent runs.  The page carries a ``<meta http-equiv="refresh">`` so a
browser left open tracks a load test live without any JavaScript.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List

__all__ = ["render_dashboard"]

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2rem; color: #1a1a2e; background: #fafafa; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
table { border-collapse: collapse; margin-top: .4rem; }
th, td { border: 1px solid #cbd5e1; padding: .25rem .6rem;
         text-align: left; font-size: .85rem; }
th { background: #eef2f7; }
.tiles { display: flex; gap: 1rem; flex-wrap: wrap; margin-top: 1rem; }
.tile { border: 1px solid #cbd5e1; border-radius: 6px;
        padding: .6rem 1rem; background: #fff; min-width: 9rem; }
.tile .v { font-size: 1.4rem; font-weight: 600; }
.tile .k { font-size: .75rem; color: #64748b; }
.ok { color: #15803d; } .bad { color: #b91c1c; }
"""


def _tile(value: str, label: str, css: str = "") -> str:
    return (
        f'<div class="tile"><div class="v {css}">{html.escape(value)}'
        f'</div><div class="k">{html.escape(label)}</div></div>'
    )


def _verdict_rows(verdicts: Dict[str, int]) -> str:
    rows: List[str] = []
    for key in sorted(verdicts):
        protocol, _, outcome = key.partition("/")
        css = "ok" if outcome == "ok" else "bad"
        rows.append(
            f"<tr><td>{html.escape(protocol)}</td>"
            f'<td class="{css}">{html.escape(outcome)}</td>'
            f"<td>{verdicts[key]}</td></tr>"
        )
    if not rows:
        rows.append('<tr><td colspan="3">no runs yet</td></tr>')
    return "".join(rows)


def _recent_rows(recent: List[Dict[str, Any]]) -> str:
    rows: List[str] = []
    for info in reversed(recent):
        status = str(info.get("status"))
        css = "ok" if status in ("done", "cached") else (
            "bad" if status == "failed" else ""
        )
        seconds = info.get("run_seconds")
        rows.append(
            f"<tr><td>{html.escape(str(info.get('run_id')))}</td>"
            f"<td>{html.escape(str(info.get('protocol')))}"
            f"/{html.escape(str(info.get('workload')))}</td>"
            f"<td>{info.get('seed')}</td>"
            f'<td class="{css}">{html.escape(status)}</td>'
            f"<td>{'' if seconds is None else f'{seconds * 1000:.1f} ms'}"
            f"</td></tr>"
        )
    if not rows:
        rows.append('<tr><td colspan="5">no runs yet</td></tr>')
    return "".join(rows)


def render_dashboard(state: Dict[str, Any]) -> str:
    """The full dashboard page for one state summary."""
    cache = state.get("cache", {})
    store = state.get("store", {})
    by_status = state.get("runs_by_status", {})
    hit_rate = cache.get("hit_rate", 0.0)
    done = by_status.get("done", 0) + by_status.get("cached", 0)
    failed = by_status.get("failed", 0)
    tiles = "".join(
        [
            _tile(
                f"{state.get('queue_depth', 0)}/"
                f"{state.get('queue_capacity', 0)}",
                "queue depth",
            ),
            _tile(str(state.get("workers", 0)), "workers"),
            _tile(f"{hit_rate:.0%}", "cache hit rate"),
            _tile(str(done), "runs served", "ok"),
            _tile(str(failed), "runs failed", "bad" if failed else ""),
            _tile(str(store.get("entries", 0)), "stored artifacts"),
            _tile(str(store.get("evictions", 0)), "retention evictions"),
            _tile(f"{state.get('uptime_s', 0.0):.0f} s", "uptime"),
        ]
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="3">
<title>repro serve — verification control plane</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>repro serve — verification control plane</h1>
<div class="tiles">{tiles}</div>
<h2>Per-protocol verdicts</h2>
<table>
<tr><th>protocol</th><th>outcome</th><th>runs</th></tr>
{_verdict_rows(state.get("verdicts", {}))}
</table>
<h2>Recent runs</h2>
<table>
<tr><th>run</th><th>protocol/workload</th><th>seed</th>
<th>status</th><th>exec time</th></tr>
{_recent_rows(state.get("recent_runs", []))}
</table>
<p><a href="/metrics">/metrics</a> &middot; JSON API:
POST /v1/runs &middot; GET /v1/runs/&lt;id&gt; &middot;
GET /v1/artifacts/&lt;spec hash&gt; &middot; GET /trace/&lt;id&gt;</p>
</body>
</html>
"""
