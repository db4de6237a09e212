"""Unit tests for the netlist container (construction, validation, editing)."""

import pytest

from repro.elastic.buffers import ElasticBuffer
from repro.elastic.environment import ListSource, Sink
from repro.elastic.functional import Func, identity_block
from repro.errors import NetlistError
from repro.netlist.graph import Netlist
from repro.netlist.dot import to_dot


def small_net():
    net = Netlist("n")
    net.add(ListSource("src", [1]))
    net.add(ElasticBuffer("eb"))
    net.add(Sink("snk"))
    net.connect("src.o", "eb.i", name="a")
    net.connect("eb.o", "snk.i", name="b")
    return net


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = Netlist("n")
        net.add(ElasticBuffer("eb"))
        with pytest.raises(NetlistError):
            net.add(ElasticBuffer("eb"))

    def test_non_node_rejected(self):
        with pytest.raises(NetlistError):
            Netlist("n").add("not a node")

    def test_connect_infers_single_port(self):
        net = Netlist("n")
        net.add(ListSource("src", []))
        net.add(Sink("snk"))
        ch = net.connect("src", "snk", name="c")
        assert ch.producer == ("src", "o")
        assert ch.consumer == ("snk", "i")

    def test_connect_ambiguous_port_rejected(self):
        from repro.elastic.fork import EagerFork

        net = Netlist("n")
        net.add(ListSource("src", []))
        net.add(EagerFork("fork", n_outputs=2))
        net.add(Sink("a"))
        net.connect("src", "fork.i", name="c0")
        with pytest.raises(NetlistError):
            net.connect("fork", "a", name="c1")   # two free outputs

    def test_double_connect_rejected(self):
        net = small_net()
        net.add(Sink("snk2"))
        with pytest.raises(NetlistError):
            net.connect("eb.o", "snk2.i", name="c")

    def test_duplicate_channel_name_rejected(self):
        net = Netlist("n")
        net.add(ListSource("s1", []))
        net.add(ListSource("s2", []))
        net.add(Sink("k1"))
        net.add(Sink("k2"))
        net.connect("s1", "k1", name="same")
        with pytest.raises(NetlistError):
            net.connect("s2", "k2", name="same")

    def test_unknown_node_rejected(self):
        net = Netlist("n")
        with pytest.raises(NetlistError):
            net.connect("ghost.o", "ghost.i")


class TestValidation:
    def test_valid_design_passes(self):
        assert small_net().validate()

    def test_dangling_port_detected(self):
        net = Netlist("n")
        net.add(ElasticBuffer("eb"))
        with pytest.raises(NetlistError, match="dangling"):
            net.validate()


class TestEditing:
    def test_disconnect_returns_endpoints(self):
        net = small_net()
        src, dst = net.disconnect("a")
        assert src == ("src", "o")
        assert dst == ("eb", "i")
        assert "a" not in net.channels

    def test_remove_requires_disconnection(self):
        net = small_net()
        with pytest.raises(NetlistError):
            net.remove("eb")
        net.disconnect("a")
        net.disconnect("b")
        net.remove("eb")
        assert "eb" not in net.nodes

    def test_fresh_name_avoids_collisions(self):
        net = small_net()
        assert net.fresh_name("eb") == "eb_1"
        assert net.fresh_name("new") == "new"


class TestCloneAndState:
    def test_clone_is_independent(self):
        net = small_net()
        other = net.clone()
        other.nodes["eb"].count += 1
        assert net.nodes["eb"].count == 0
        assert other.nodes["eb"].count == 1

    def test_snapshot_restore(self):
        net = small_net()
        snap = net.snapshot()
        net.nodes["eb"].count += 1
        net.restore(snap)
        assert net.nodes["eb"].count == 0


class TestDot:
    def test_dot_contains_nodes_and_edges(self):
        net = small_net()
        dot = to_dot(net)
        assert "digraph" in dot
        for name in ("src", "eb", "snk"):
            assert f'"{name}"' in dot
        assert '"src" -> "eb"' in dot

    def test_dot_annotates_tokens(self):
        net = Netlist("n")
        net.add(ListSource("src", []))
        net.add(ElasticBuffer("eb", init=[1, 2]))
        net.add(Sink("snk"))
        net.connect("src", "eb.i", name="a")
        net.connect("eb.o", "snk", name="b")
        assert "●●" in to_dot(net)
