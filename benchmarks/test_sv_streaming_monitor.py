"""Experiment SV — runtime verification via the streaming monitor.

The endpoint of the Theorem-7 / Section-5 story taken one step
further than experiment SC: instead of one polynomial batch check per
run, each m-operation is verified *as it completes* in
O((reads + writes) · log n) using the broadcast positions and
cumulative marks — the paper's version-vector reasoning recast as a
monitor.

Measured shape:

* verdicts agree exactly with the batch constrained checker
  (asserted over corrupted streams in the unit suite; re-asserted on
  protocol runs here);
* total monitoring cost scales near-linearly in history size, and
  the *incremental* regime it enables — a verdict after every
  operation — would cost the batch checker a full rescan per
  operation (quadratic blow-up, measured).
"""

import statistics
import time

import pytest

from repro.core import check_m_sequential_consistency
from repro.core.monitor import verify_stream
from repro.protocols import msc_cluster
from repro.workloads import random_workloads

OBJECTS = ["x", "y", "z", "u", "v"]


def big_run(ops, *, n=6, seed=77):
    cluster = msc_cluster(n, OBJECTS, seed=seed)
    return cluster.run(random_workloads(n, OBJECTS, ops, seed=seed + 1))


def test_sv_agrees_with_batch_on_runs():
    for seed in range(4):
        result = big_run(8, n=4, seed=seed)
        monitor = verify_stream(result, condition="m-sc")
        batch = check_m_sequential_consistency(
            result.history, extra_pairs=result.ww_pairs()
        )
        assert monitor.consistent == batch.holds
        assert monitor.observed == len(result.recorder.records)


def test_sv_scaling_is_gentle():
    """Monitoring 4x the operations must cost well under 16x.

    Each size is timed several times, alternating, and the medians
    compared: one sample of the small run, a few milliseconds, is at
    the mercy of a single scheduler hiccup."""
    small = big_run(10)
    large = big_run(40)

    def monitor_time(result):
        start = time.perf_counter()
        verifier = verify_stream(result, condition="m-sc")
        assert verifier.consistent
        return time.perf_counter() - start

    samples = [(monitor_time(small), monitor_time(large)) for _ in range(7)]
    small_time = max(statistics.median(s for s, _l in samples), 1e-6)
    large_time = statistics.median(l for _s, l in samples)
    assert large_time < 16 * small_time


def test_sv_incremental_regime_beats_repeated_batch():
    """A verdict after every operation: monitor vs batch-per-prefix.

    The monitor pays once per operation; the batch checker would have
    to rescan the prefix each time.  Compare total costs on a
    moderate run (the gap widens with size).
    """
    result = big_run(20, n=4)
    records = sorted(result.recorder.records, key=lambda r: r.resp)

    start = time.perf_counter()
    verifier = verify_stream(result, condition="m-sc")
    monitor_total = time.perf_counter() - start
    assert verifier.consistent

    # Repeated batch: check each prefix of the history.
    from repro.core.history import History

    start = time.perf_counter()
    ww = result.ww_sequence
    for cut in range(5, len(records) + 1, 5):
        prefix_records = records[:cut]
        uids = {r.uid for r in prefix_records}
        mops = [
            m for m in result.history.mops if m.uid in uids
        ]
        reads_from = {
            key: writer
            for key, writer in result.history.reads_from_map.items()
            if key[0] in uids and (writer in uids or writer == 0)
        }
        prefix = History.from_mops(
            mops,
            initial_values=dict(result.history.init.external_writes),
            reads_from=reads_from,
        )
        prefix_ww = [u for u in ww if u in uids]
        pairs = list(zip(prefix_ww, prefix_ww[1:]))
        assert check_m_sequential_consistency(
            prefix, extra_pairs=pairs
        ).holds
    batch_total = time.perf_counter() - start

    # Even at 1/5th the verdict frequency, repeated batch costs more.
    assert batch_total > monitor_total


@pytest.mark.parametrize("ops", [10, 20, 40])
def test_sv_benchmark_monitor(benchmark, ops):
    result = big_run(ops)
    verifier = benchmark(lambda: verify_stream(result, condition="m-sc"))
    assert verifier.consistent
