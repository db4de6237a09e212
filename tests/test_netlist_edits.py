"""The netlist edit log: versioning, subscription, inverses, replay."""

import pytest

from repro.elastic.buffers import ElasticBuffer
from repro.elastic.environment import ListSource, Sink
from repro.elastic.functional import Func
from repro.errors import NetlistError
from repro.netlist.edits import (
    ADD_NODE,
    CONNECT,
    DISCONNECT,
    REMOVE_NODE,
    NetlistEdit,
)
from repro.netlist.graph import Netlist
from repro.sim.sensitivity import topology_signature
from repro.transform.bubbles import insert_bubble


def structure(net):
    """Order-insensitive structural signature: inverse replay restores the
    wiring exactly, but a re-created channel re-enters the netlist dict at
    the end (iteration order is bookkeeping, not behaviour)."""
    nodes, channels = topology_signature(net)
    return (tuple(sorted(nodes)), tuple(sorted(channels)))


def small_net():
    net = Netlist("edits")
    net.add(ListSource("src", [1, 2, 3]))
    net.add(ElasticBuffer("eb"))
    net.add(Sink("snk"))
    net.connect("src.o", "eb.i", name="in", width=4)
    net.connect("eb.o", "snk.i", name="out", width=4)
    return net


class TestVersionAndEmission:
    def test_every_mutator_bumps_version_and_emits(self):
        net = Netlist("v")
        seen = []
        net.subscribe(seen.append)
        v0 = net.version
        net.add(ListSource("src", [1]))
        net.add(Sink("snk"))
        net.connect("src.o", "snk.i", name="ch")
        net.disconnect("ch")
        net.remove("snk")
        assert net.version == v0 + 5
        assert [e.op for e in seen] == [
            ADD_NODE, ADD_NODE, CONNECT, DISCONNECT, REMOVE_NODE,
        ]

    def test_connect_edit_carries_endpoints_and_width(self):
        net = small_net()
        seen = []
        net.subscribe(seen.append)
        net.disconnect("in")
        (edit,) = seen
        assert edit.op == DISCONNECT
        assert edit.src == ("src", "o")
        assert edit.dst == ("eb", "i")
        assert edit.width == 4

    def test_unsubscribe_stops_delivery(self):
        net = small_net()
        seen = []
        fn = net.subscribe(seen.append)
        net.unsubscribe(fn)
        net.disconnect("in")
        assert seen == []

    def test_state_changes_do_not_bump_version(self):
        net = small_net()
        v0 = net.version
        net.reset()
        net.restore(net.snapshot())
        assert net.version == v0

    def test_failed_mutation_neither_bumps_nor_emits(self):
        net = small_net()
        seen = []
        net.subscribe(seen.append)
        v0 = net.version
        with pytest.raises(NetlistError):
            net.remove("eb")          # ports still connected
        with pytest.raises(NetlistError):
            net.add(ElasticBuffer("eb"))   # duplicate name
        assert net.version == v0 and seen == []


class TestInversesAndReplay:
    def test_inverse_round_trip_restores_structure(self):
        net = small_net()
        reference = structure(net)
        edits = []
        net.subscribe(edits.append)
        insert_bubble(net, "in")
        assert structure(net) != reference
        for edit in reversed(edits):
            edit.inverse().apply(net)
        assert structure(net) == reference
        net.validate()

    def test_replay_reapplies_forward(self):
        net = small_net()
        edits = []
        fn = net.subscribe(edits.append)
        insert_bubble(net, "in")
        net.unsubscribe(fn)        # replays below would re-record
        after = structure(net)
        for edit in reversed(edits):
            edit.inverse().apply(net)
        for edit in edits:
            edit.apply(net)
        assert structure(net) == after
        net.validate()

    def test_replay_emits_to_subscribers(self):
        net = small_net()
        edits = []
        net.subscribe(edits.append)
        net.disconnect("out")
        replayed = []
        net.subscribe(replayed.append)
        net.apply_edit(edits[0].inverse())
        assert [e.op for e in replayed] == [CONNECT]

    def test_unknown_op_rejected(self):
        net = small_net()
        with pytest.raises(ValueError):
            NetlistEdit("frobnicate").apply(net)
        with pytest.raises(KeyError):
            NetlistEdit("frobnicate").inverse()


class TestCloneSemantics:
    def test_clone_does_not_carry_subscribers(self):
        net = small_net()
        seen = []
        net.subscribe(seen.append)
        dup = net.clone()
        insert_bubble(dup, "in")
        assert seen == []
        # ... and the original still reports its own edits.
        net.disconnect("out")
        assert len(seen) == 1

    def test_clone_preserves_version(self):
        net = small_net()
        insert_bubble(net, "in")
        assert net.clone().version == net.version

    def test_add_after_undo_preserves_node_object_state(self):
        """Removed nodes re-enter with their sequential state intact —
        structural undo does not clone."""
        net = Netlist("obj")
        net.add(ListSource("src", [1]))
        eb = net.add(ElasticBuffer("eb", init=(7,)))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="a")
        net.connect("eb.o", "snk.i", name="b")
        edits = []
        net.subscribe(edits.append)
        net.disconnect("a")
        net.disconnect("b")
        net.remove("eb")
        for edit in reversed(edits):
            edit.inverse().apply(net)
        assert net.nodes["eb"] is eb
        assert eb.count == 1
