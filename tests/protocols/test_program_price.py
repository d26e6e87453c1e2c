"""A program states its wire price, and an ``abc-req`` states its
program's: both equal what the payload walk charges.

The walk (:func:`repro.sim.network.estimate_size`) stays the
definition.  A program is priced once, when it is built, as one entry
of a payload member — where an ``abc-req`` carries it — and the
request built by ``SequencerAbcast.broadcast`` and
``FailoverSequencer.broadcast`` (re-sends included) is charged from
that price without walking the program.  The walk itself never reads
the stated price: it still walks programs in ``abc-log`` entries and
anywhere near its depth cap.
"""

import copy
import inspect
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.abcast import FailoverSequencer, SequencerAbcast
from repro.objects import multimethods
from repro.objects.structures import RegisterQueue, RegisterStack
from repro.protocols.base import BaseProcess, PendingOp
from repro.protocols.store import MProgram
from repro.runtime import execute
from repro.sim.kernel import Simulator
from repro.sim.network import MAX_SIZE_DEPTH, Network, estimate_size
from repro.workloads import BLIND_MIX, random_workloads, scenario_workloads
from tests.conftest import chaos_spec

FACTORY_ARGS = {
    "read_reg": ("x",),
    "write_reg": ("x", 7),
    "dcas": ("x", "y", 0, 1, 2, 3),
    "casn": ([("x", 0, 1), ("y", 2, 3), ("zz", 4, 5)],),
    "m_assign": ({"x": 1, "long-name": 2},),
    "m_read": (["x", "y", "z"],),
    "transfer": ("a", "b", 5),
    "balance_total": (["a", "b", "c"],),
    "sum_of": ("x", "y"),
    "swap_objects": ("x", "y"),
    "fetch_add": ("x", 3),
    "compare_and_swap": ("x", 0, 1),
}


def factory_programs():
    """One program from every factory of both object modules."""
    factories = {
        name
        for name, function in inspect.getmembers(
            multimethods, inspect.isfunction
        )
        if function.__module__ == multimethods.__name__
        and inspect.signature(function).return_annotation == "MProgram"
    }
    assert factories == set(FACTORY_ARGS)
    programs = [
        getattr(multimethods, name)(*args)
        for name, args in sorted(FACTORY_ARGS.items())
    ]
    queue, stack = RegisterQueue("q", 3), RegisterStack("s", 2)
    programs += [queue.enqueue(1), queue.dequeue(), queue.size()]
    programs += [stack.push("v"), stack.pop(), stack.peek()]
    return programs


class StatefulBody:
    """A program body that is an object with state."""

    def __init__(self, state):
        self.state = state

    def __call__(self, view):
        return view.read("x")


def hand_built_programs():
    """Programs off the factories' beaten path: the walk prices them."""

    def tagged(view):
        return view.read("x")

    tagged.note = ("a", 1, [2.5, None])
    return [
        MProgram("lambda", lambda view: None, False),
        MProgram("builtin", print, True, ["x"]),
        MProgram("callable", StatefulBody({"deep": [1, [2, [3]]]}), True),
        MProgram("tagged", tagged, False, {"x", "y"}),
        MProgram(name="int-may-write", body=tagged, may_write=1),
        MProgram(("not", "a", "str"), lambda view: None, True, ("x",)),
        MProgram("int-objects", lambda view: None, True, [1, 2]),
    ]


def generated_programs():
    objects = [f"x{i}" for i in range(8)]
    programs = []
    for mix, zipf_s in ((None, 0.0), (None, 1.5), (BLIND_MIX, 1.0)):
        for workload in random_workloads(
            3, objects, 30, mix=mix, seed=4, zipf_s=zipf_s
        ):
            programs += workload
    return programs


def every_program():
    scenario = [p for programs in scenario_workloads(3) for p in programs]
    return (
        factory_programs()
        + hand_built_programs()
        + scenario
        + generated_programs()
    )


def requests(abcast_class, programs):
    """The ``abc-req`` messages ``abcast_class.broadcast`` sends for
    ``programs``, each broadcast as a process broadcasts an update."""
    network = Network(Simulator(), 2)
    abcast = abcast_class(network)
    sent = []
    network.send = lambda src, dst, message, *args: sent.append(message)
    issuer = SimpleNamespace(pid=1)
    for uid, program in enumerate(programs, 1):
        BaseProcess.broadcast_update(
            issuer, abcast, PendingOp(uid=uid, program=program, inv=0.0)
        )
    return sent


@pytest.mark.parametrize("abcast_class", [SequencerAbcast, FailoverSequencer])
def test_a_request_states_its_programs_price(abcast_class):
    programs = every_program()
    sent = requests(abcast_class, programs)
    assert len(sent) == len(programs)
    for message, program in zip(sent, programs):
        assert message.kind == "abc-req"
        assert message.payload["payload"]["program"] is program
        assert message._size is not None  # stated, not walked later
        assert message.size == estimate_size(message.payload), program


def test_the_price_is_the_walk_of_one_payload_member_entry():
    for program in every_program():
        stand_in = SimpleNamespace(**vars(program))
        member = {"program": stand_in}
        assert program.price == estimate_size({"m": member}) - sum(
            map(len, ("m", "program"))
        ) - 2 * 2, program
        assert "price" not in vars(program)
        assert copy.deepcopy(program).price == program.price


def nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


def test_the_walk_prices_programs_near_its_depth_cap():
    """A program's body's ``__dict__`` sits 3 levels below it, so
    within 3 levels of the cap the walk is cut short there: the walk,
    not the stated price, decides what such a program costs."""
    for program in factory_programs() + hand_built_programs():
        stand_in = SimpleNamespace(**vars(program))
        stateless = getattr(program.body, "__dict__", None) == {}
        for depth in range(MAX_SIZE_DEPTH - 6, MAX_SIZE_DEPTH + 2):
            walked = estimate_size(nested(program, depth))
            assert walked == estimate_size(nested(stand_in, depth))
            if depth <= MAX_SIZE_DEPTH - 4 and stateless:
                assert walked == 2 * depth + program.price
        if hasattr(program.body, "__dict__"):
            depth = MAX_SIZE_DEPTH - 3
            walked = estimate_size(nested(program, depth))
            assert walked != 2 * depth + program.price


@pytest.mark.parametrize("protocol", ["msc", "mlin", "aggregate"])
def test_fault_runs_resend_requests_at_their_stated_price(
    protocol, monkeypatch
):
    sent = []
    send = Network.send

    def spy(network, src, dst, message, *args, **kwargs):
        if message.kind == "abc-req":
            sent.append(message)
        return send(network, src, dst, message, *args, **kwargs)

    monkeypatch.setattr(Network, "send", spy)
    for seed in range(3):
        assert execute(chaos_spec(protocol, seed)).ok
    resent = [m for m, times in Counter(map(id, sent)).items() if times > 1]
    assert sent and resent
    for message in sent:
        assert message._size == estimate_size(message.payload)
