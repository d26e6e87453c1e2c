"""The generators' weighted draws equal ``random.choices``'.

``random_workloads`` and the skewed object picker of the abstract
history generators draw through one helper that bisects weights
accumulated once.  The reference below is the ``random.choices``
generator it replaced, kept verbatim, so every program it draws — and
every error it raises — is compared on the running interpreter's
``random`` module.
"""

import itertools
import random
from typing import Dict, List, Optional, Sequence

import pytest

from repro.errors import WorkloadError
from repro.objects.multimethods import (
    balance_total,
    dcas,
    m_assign,
    m_read,
    read_reg,
    sum_of,
    transfer,
    write_reg,
)
from repro.protocols.store import MProgram
from repro.workloads import BLIND_MIX, WorkloadMix, random_workloads
from repro.workloads.generator import (
    DISTRIBUTION_SKEW,
    _object_picker,
    _WeightedDraws,
)


def reference_workloads(
    n_processes: int,
    objects: Sequence[str],
    ops_per_process: int,
    *,
    mix: Optional[WorkloadMix] = None,
    seed: int = 0,
    span: int = 2,
    zipf_s: float = 0.0,
) -> List[List[MProgram]]:
    if not objects:
        raise WorkloadError("need at least one object")
    if zipf_s < 0:
        raise WorkloadError("zipf_s must be non-negative")
    mix = mix or WorkloadMix()
    entries = mix.entries()
    names = [name for name, _w in entries]
    cum_weights = list(itertools.accumulate(w for _name, w in entries))
    rng = random.Random(seed)
    value_counter = itertools.count(1)
    span = max(1, min(span, len(objects)))
    object_list = list(objects)
    object_weights = [
        1.0 / (rank + 1) ** zipf_s for rank in range(len(object_list))
    ]
    object_cum_weights = list(itertools.accumulate(object_weights))

    def pick_one() -> str:
        if zipf_s == 0:
            return rng.choice(object_list)
        return rng.choices(object_list, cum_weights=object_cum_weights)[0]

    def pick_objs(k: int) -> List[str]:
        k = min(k, len(object_list))
        if zipf_s == 0:
            return rng.sample(object_list, k=k)
        chosen: List[str] = []
        pool = list(object_list)
        pool_weights = list(object_weights)
        for _ in range(k):
            index = rng.choices(
                range(len(pool)), weights=pool_weights
            )[0]
            chosen.append(pool.pop(index))
            pool_weights.pop(index)
        return chosen

    def make_program(kind: str) -> MProgram:
        if kind == "read":
            return read_reg(pick_one())
        if kind == "write":
            return write_reg(pick_one(), next(value_counter))
        if kind == "m_read":
            return m_read(pick_objs(span))
        if kind == "m_assign":
            return m_assign(
                {obj: next(value_counter) for obj in pick_objs(span)}
            )
        if kind == "dcas":
            o1, o2 = pick_objs(2) if len(objects) >= 2 else (objects[0],) * 2
            if o1 == o2:
                return write_reg(o1, next(value_counter))
            return dcas(
                o1,
                o2,
                rng.randint(0, 3),
                rng.randint(0, 3),
                next(value_counter),
                next(value_counter),
            )
        if kind == "transfer":
            o1, o2 = pick_objs(2) if len(objects) >= 2 else (objects[0],) * 2
            if o1 == o2:
                return read_reg(o1)
            return transfer(o1, o2, rng.randint(1, 5))
        if kind == "audit":
            return balance_total(pick_objs(span))
        if kind == "sum":
            o1, o2 = pick_objs(2) if len(objects) >= 2 else (objects[0],) * 2
            if o1 == o2:
                return read_reg(o1)
            return sum_of(o1, o2)
        raise WorkloadError(f"unknown program kind {kind!r}")

    return [
        [
            make_program(rng.choices(names, cum_weights=cum_weights)[0])
            for _ in range(ops_per_process)
        ]
        for _pid in range(n_processes)
    ]


def reference_picker(rng: random.Random, skew: float):
    ranked: Dict[int, List[float]] = {}

    def pick(pool: Sequence[str], k: int) -> List[str]:
        pool = list(pool)
        if len(pool) not in ranked:
            ranked[len(pool)] = [
                1.0 / (rank + 1) ** skew for rank in range(len(pool))
            ]
        pool_weights = list(ranked[len(pool)])
        chosen: List[str] = []
        for _ in range(k):
            index = rng.choices(
                range(len(pool)), weights=pool_weights
            )[0]
            chosen.append(pool.pop(index))
            pool_weights.pop(index)
        return chosen

    return pick


class RecordingView:
    """Reads a fixed value per object and records every write."""

    def __init__(self) -> None:
        self.writes: List[tuple] = []

    def read(self, obj: str) -> int:
        return sum(map(ord, obj)) % 5

    def write(self, obj: str, value) -> None:
        self.writes.append((obj, value))


def drawn(generate, *args, **kwargs):
    """What a generator draws: per program its name, ``may_write``,
    ``static_objects`` and the writes its body makes; or the error."""
    try:
        workloads = generate(*args, **kwargs)
    except (ValueError, OverflowError, WorkloadError) as error:
        return type(error), str(error)
    programs = []
    for program in itertools.chain.from_iterable(workloads):
        view = RecordingView()
        program.body(view)
        programs.append(
            (
                program.name,
                program.may_write,
                program.static_objects,
                tuple(view.writes),
            )
        )
    return programs


FAMILIES = ("read", "write", "m_read", "m_assign", "dcas", "transfer",
            "audit", "sum")

MIXES = [None, BLIND_MIX] + [
    WorkloadMix(**{family: float(family == only) for family in FAMILIES})
    for only in FAMILIES
] + [
    # Passes the mix's own check, but sums below zero: ``choices``
    # refuses it at the first draw.
    WorkloadMix(read=-4.0, write=1.0, m_read=0.0, m_assign=0.0, dcas=0.0,
                transfer=0.0, audit=0.0, sum=0.0),
]


def overflowed(zipf_s, n_objects):
    return f"zipf_s={zipf_s} overflows the weight of one of {n_objects} objects"


@pytest.mark.parametrize("zipf_s", [0, 1.0, 1.5, 2000])
@pytest.mark.parametrize("n_objects", [1, 2, 8, 32, 64])
@pytest.mark.parametrize("n", [1, 6, 150])
def test_programs_equal_the_choices_generator(n, n_objects, zipf_s):
    objects = [f"x{i}" for i in range(n_objects)]
    ops = 3 if n == 150 else 12
    for index, mix in enumerate(MIXES):
        seed = n * 1000 + n_objects * 10 + index
        expected = drawn(
            reference_workloads, n, objects, ops, mix=mix, seed=seed,
            zipf_s=zipf_s,
        )
        if expected[0] is OverflowError:  # (see the test below)
            expected = (WorkloadError, overflowed(zipf_s, n_objects))
        assert drawn(
            random_workloads, n, objects, ops, mix=mix, seed=seed,
            zipf_s=zipf_s,
        ) == expected, (mix, seed)


def test_tail_weights_that_overflow_raise_a_workload_error():
    # 2 ** 2000 is no float: the weight formula overflows before any
    # draw.  The reference lets the bare OverflowError out; the
    # generator says which setting caused it.
    assert drawn(reference_workloads, 2, ["x0", "x1"], 3, zipf_s=2000)[
        0
    ] is OverflowError
    raised = drawn(random_workloads, 2, ["x0", "x1"], 3, zipf_s=2000)
    assert raised == (WorkloadError, overflowed(2000, 2))
    # One object weighs 1 ** s = 1, whatever s.
    assert drawn(random_workloads, 2, ["x0"], 3, zipf_s=2000) == drawn(
        reference_workloads, 2, ["x0"], 3, zipf_s=2000
    )


@pytest.mark.parametrize("distribution", ["zipfian", "hotspot"])
def test_the_object_picker_equals_the_choices_picker(distribution):
    skew = DISTRIBUTION_SKEW[distribution]
    picks = _object_picker(random.Random(5), distribution)
    reference = reference_picker(random.Random(5), skew)
    got, expected = [], []
    for size in (1, 2, 3, 8, 33):
        pool = [f"y{i}" for i in range(size)]
        for k in range(size + 1):
            expected.append(reference(pool, k))
            got.append(picks(pool, k))
    assert got == expected


@pytest.mark.parametrize(
    "weights",
    [
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0],
        [-1.0, 0.5],
        [float("inf"), 1.0],
        [float("nan"), 1.0],
        [1e-320, 1e-320, 2.0],
        [3, 1, 4, 1, 5],
    ],
)
def test_each_draw_is_one_choices_draw_or_its_error(weights):
    def outcome(draw):
        try:
            return draw()
        except ValueError as error:
            return "ValueError", str(error)

    ours, theirs = random.Random(11), random.Random(11)
    draws = _WeightedDraws(ours, weights)
    population = list(range(len(weights)))
    for _ in range(20):
        assert outcome(draws.index) == outcome(
            lambda: theirs.choices(population, weights=weights)[0]
        )
    for k in range(len(weights) + 1):
        pool, pool_weights, expected = list(population), list(weights), []
        try:
            for _ in range(k):
                index = theirs.choices(
                    range(len(pool)), weights=pool_weights
                )[0]
                expected.append(pool.pop(index))
                pool_weights.pop(index)
        except ValueError as error:
            expected = ("ValueError", str(error))
        assert outcome(lambda: draws.sample(population, k)) == expected
    assert ours.random() == theirs.random()
