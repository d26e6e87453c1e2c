"""Unit tests for workload and abstract-history generators (S18)."""

import hashlib

import pytest

from repro.core import (
    check_condition,
    is_m_linearizable,
    is_m_sequentially_consistent,
)
from repro.core.serialize import history_to_json
from repro.errors import WorkloadError
from repro.workloads import (
    BLIND_MIX,
    HistoryShape,
    WorkloadMix,
    corrupt_history,
    corruption_kind,
    random_serial_history,
    random_workloads,
    shift_process,
    stretch_history,
)


class TestProgramWorkloads:
    def test_shape(self):
        wl = random_workloads(3, ["x", "y"], 5, seed=0)
        assert len(wl) == 3
        assert all(len(progs) == 5 for progs in wl)

    def test_deterministic(self):
        a = random_workloads(2, ["x"], 4, seed=7)
        b = random_workloads(2, ["x"], 4, seed=7)
        assert [[p.name for p in progs] for progs in a] == [
            [p.name for p in progs] for progs in b
        ]

    def test_different_seeds_differ(self):
        a = random_workloads(2, ["x", "y"], 8, seed=1)
        b = random_workloads(2, ["x", "y"], 8, seed=2)
        assert [[p.name for p in progs] for progs in a] != [
            [p.name for p in progs] for progs in b
        ]

    def test_blind_mix_has_no_read_modify_write(self):
        wl = random_workloads(
            3, ["x", "y"], 20, seed=0, mix=BLIND_MIX
        )
        for progs in wl:
            for prog in progs:
                assert not prog.name.startswith(("dcas", "transfer", "sum"))

    def test_empty_objects_rejected(self):
        with pytest.raises(WorkloadError):
            random_workloads(2, [], 3)

    def test_all_zero_mix_rejected(self):
        mix = WorkloadMix(
            read=0, write=0, m_read=0, m_assign=0, dcas=0, transfer=0,
            audit=0, sum=0,
        )
        with pytest.raises(WorkloadError):
            random_workloads(2, ["x"], 3, mix=mix)

    def test_single_object_never_generates_multiobject_dcas(self):
        wl = random_workloads(
            2,
            ["x"],
            30,
            seed=3,
            mix=WorkloadMix(read=0, write=0, dcas=5, transfer=5, sum=5,
                            m_read=0, m_assign=0, audit=0),
        )
        # With one object, multi-object kinds degrade to single-object
        # programs rather than self-conflicting nonsense.
        for progs in wl:
            for prog in progs:
                assert prog.static_objects == {"x"}


class TestSerialHistories:
    #: sha256 of ``history_to_json`` per distribution, seeds 0-4,
    #: recorded before the skewed picker cached its weights.
    PINNED = {
        "uniform": (
            "cdda3c47dc96968bf1f068b1ce76eadbe52ac4a43ad6b21e6b3d4576112a7353",
            "23d64a3a10b729c71e687853f23afc383d3b09e9f7ceb30e1a4fe900078a8ffc",
            "6afd3315fa00fde6c28ca51dd34e3d3408bf82fb719a920b590017072aa8120c",
            "55dd54a1693f69a3858f0db55b873fb59264d96dde705f0004d2e6cbfec0253a",
            "8e22cf5f8615fbfeab9759537c6e40b4d2214390f495be55e6e7b52375470b83",
        ),
        "zipfian": (
            "f26c126f26c0c2b762bf0fd05ffad32fd80b60b3a7582e2df99280b13524fd68",
            "c5482a5412f3762bd48e763e6d2d0714de533077e690e39cfa77e840aae75983",
            "a9fbc1206c0d6e16039161988f497ee153fe1b31c362edfb1fc5056b61d6890a",
            "f4b9606b7b8c2e5ab323221fb7b1e833b16a9a3efe225421c5d33c3d2ac90bc9",
            "8fda3b8895977e30f5f10a8a84e80096be76234afaa6aab8e70edabed369290b",
        ),
        "hotspot": (
            "9945d02e9530f6da1381af70a4279fcd7511ddb89de083cd220c0f9043725414",
            "739ec166b9b93e97be5618d0440ead1e544e52bd959e87fd37b698592457069e",
            "1b03ff61b6243bb3b020ef3f0b164fb10067673fd0e9d040a5d471f4366f8600",
            "cc3a11a97ed074a460f3278e4ce66b0233fa1b39a023204efb2a9cfe9d7ec156",
            "5aa65caeaf1fa42fc6017da5c09b89e38c0628daa2fea880280f42ab15d8badc",
        ),
    }

    def test_is_m_linearizable_by_construction(self):
        shape = HistoryShape(n_mops=8)
        for seed in range(5):
            h = random_serial_history(shape, seed=seed)
            assert is_m_linearizable(h, method="exact")

    def test_shape_respected(self):
        shape = HistoryShape(n_processes=4, n_objects=2, n_mops=10)
        h = random_serial_history(shape, seed=0)
        assert len(h) == 10
        assert h.objects <= {"x0", "x1"}
        assert set(h.processes) <= set(range(4))

    def test_deterministic(self):
        shape = HistoryShape()
        a = random_serial_history(shape, seed=3)
        b = random_serial_history(shape, seed=3)
        assert a.equivalent_to(b)

    def test_query_fraction_zero_all_updates(self):
        shape = HistoryShape(n_mops=10, query_fraction=0.0)
        h = random_serial_history(shape, seed=1)
        assert all(m.is_update for m in h.mops)

    def test_histories_are_pinned_per_distribution_and_seed(self):
        for distribution, digests in self.PINNED.items():
            shape = HistoryShape(
                n_processes=4, n_objects=12, n_mops=60,
                distribution=distribution,
            )
            for seed, digest in enumerate(digests):
                text = history_to_json(random_serial_history(shape, seed=seed))
                assert hashlib.sha256(text.encode()).hexdigest() == digest, (
                    distribution, seed,
                )


class TestTransformations:
    def test_stretch_preserves_identity(self):
        h = random_serial_history(HistoryShape(n_mops=6), seed=2)
        s = stretch_history(h, seed=5)
        assert s.equivalent_to(h)

    def test_stretch_only_widens(self):
        h = random_serial_history(HistoryShape(n_mops=6), seed=2)
        s = stretch_history(h, seed=5)
        for mop in h.mops:
            stretched = s[mop.uid]
            assert stretched.inv <= mop.inv
            assert stretched.resp >= mop.resp

    def test_shift_moves_one_process(self):
        h = random_serial_history(HistoryShape(n_mops=6), seed=2)
        proc = h.processes[0]
        shifted = shift_process(h, proc, 100.0)
        for mop in h.mops:
            if mop.process == proc:
                assert shifted[mop.uid].inv == mop.inv + 100.0
            else:
                assert shifted[mop.uid].inv == mop.inv

    def test_shift_preserves_msc(self):
        h = random_serial_history(HistoryShape(n_mops=8), seed=4)
        shifted = shift_process(h, h.processes[-1], -55.0)
        assert is_m_sequentially_consistent(shifted, method="exact")

    def test_shift_can_break_mlin(self):
        # Deterministically construct breakage: the last process's
        # reads become stale once shifted far into the future.
        broke = False
        for seed in range(20):
            h = random_serial_history(
                HistoryShape(n_mops=8, query_fraction=0.5), seed=seed
            )
            for proc in h.processes:
                shifted = shift_process(h, proc, 1000.0)
                if not is_m_linearizable(shifted, method="exact"):
                    broke = True
                    break
            if broke:
                break
        assert broke


class TestCorruption:
    def test_corruption_changes_reads_from(self):
        h = random_serial_history(
            HistoryShape(n_mops=10, n_objects=2), seed=0
        )
        c = corrupt_history(h, seed=1)
        assert c is not None
        assert c.reads_from_map != h.reads_from_map

    def test_corrupted_values_stay_consistent(self):
        # The rewired read's value must match its new writer, so the
        # corrupted object is still a *valid* history.
        h = random_serial_history(
            HistoryShape(n_mops=10, n_objects=2), seed=0
        )
        c = corrupt_history(h, seed=1)
        for (reader, obj), writer in c.reads_from_map.items():
            assert (
                c[reader].external_reads[obj]
                == c[writer].external_writes[obj]
            )

    def test_corruption_none_when_single_writer(self):
        h = random_serial_history(
            HistoryShape(n_mops=1, n_objects=1, query_fraction=0.0),
            seed=0,
        )
        assert corrupt_history(h, seed=0) is None

    def test_corruption_kind_tells_stale_from_future(self):
        # Under the serial order a stale read has an overwriter between
        # its writer and itself, a future read closes a cycle.
        h = random_serial_history(
            HistoryShape(n_processes=3, n_objects=2, n_mops=12), seed=5
        )
        serial = list(zip(h.uids, h.uids[1:]))
        proof = {"stale": "illegal", "future": "cycle"}
        kinds = set()
        for seed in range(32):
            twin = corrupt_history(h, seed=seed)
            if twin is not None:
                kind = corruption_kind(h, twin)
                verdict = check_condition(twin, "m-sc", extra_pairs=serial)
                assert verdict.refutation.kind == proof[kind]
                kinds.add(kind)
        assert kinds == {"stale", "future"}

    def test_corruption_often_breaks_msc(self):
        broke = 0
        total = 0
        for seed in range(15):
            h = random_serial_history(
                HistoryShape(n_mops=9, n_objects=2), seed=seed
            )
            c = corrupt_history(h, seed=seed)
            if c is None:
                continue
            total += 1
            if not is_m_sequentially_consistent(c, method="exact"):
                broke += 1
        assert total > 5
        assert broke > 0
