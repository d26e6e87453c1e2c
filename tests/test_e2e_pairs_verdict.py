"""What ``tools/e2e_pairs.py`` prints: the verdict per end-to-end metric,
and the counted per-layer metrics that differ between the two trees."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "e2e_pairs.py"
_SPEC = importlib.util.spec_from_file_location("e2e_pairs", _PATH)
e2e_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(e2e_pairs)

HIGHER = {"better": "higher", "bound": 0.25}
LOWER = {"better": "lower", "bound": 0.25}
#: Ten parent runs: median 10.45, quartiles 10.225 and 10.775.
PARENT = [10.0, 11.0, 10.5, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3]


@pytest.mark.parametrize(
    "spec, change, expected",
    [
        (HIGHER, [12.0] * 10, "gain"),
        # Nine wins of ten still claim; eight do not.
        (HIGHER, [12.0] * 9 + [9.0], "gain"),
        (HIGHER, [12.0] * 8 + [9.0] * 2, "unresolved"),
        # Every pair won, but the medians are closer than the IQR.
        (HIGHER, [p + 0.01 for p in PARENT], "unresolved"),
        (HIGHER, [7.0] * 10, "worse"),
        (HIGHER, [8.0] * 10, "unresolved"),  # within the 25% bound
        (LOWER, [8.0] * 10, "gain"),
        (LOWER, [13.5] * 10, "worse"),
        # Ties count for neither side.
        (HIGHER, PARENT, "unresolved"),
    ],
)
def test_verdict_follows_the_pairs_rule(spec, change, expected):
    assert e2e_pairs.verdict(spec, PARENT, change) == expected


def test_moved_counts_names_every_counted_metric_that_differs():
    benchmark = {
        "per_layer": [
            {"name": "sim.kernel.events", "unit": "count"},
            {"name": "msgs_per_mop", "unit": "msgs"},
            {"name": "sim_update_rt_p50_t", "unit": "vt"},
            {"name": "sim.run_s", "unit": "s"},
        ]
    }

    def run(**values):
        return {
            "metrics": {name: {"value": v} for name, v in values.items()}
        }

    parent = run(**{
        "sim.kernel.events": 10, "msgs_per_mop": 4.5,
        "sim_update_rt_p50_t": 2.0, "sim.run_s": 0.3,
    })
    change = run(**{
        "sim.kernel.events": 10, "msgs_per_mop": 4.5,
        "sim_update_rt_p50_t": 2.5, "sim.run_s": 0.2,
    })
    assert e2e_pairs.moved_counts(benchmark, parent, parent) == {}
    assert e2e_pairs.moved_counts(benchmark, parent, change) == {
        "sim_update_rt_p50_t": (2.0, 2.5)
    }
