"""Unit tests for the early-evaluation multiplexor: early firing,
anti-token injection, pending kills, output kills."""

import pytest

from repro.elastic.buffers import ElasticBuffer
from repro.elastic.eemux import EarlyEvalMux
from repro.elastic.environment import KillerSink, ListSource, Sink
from repro.errors import SchedulerError
from repro.netlist.graph import Netlist

from helpers import run


def mux_net(sels, a_values, b_values, sink="sink", kill_rate=0.0,
            stall_rate=0.0, seed=0, buffered_inputs=False):
    net = Netlist("t")
    net.add(EarlyEvalMux("mux", n_inputs=2))
    net.add(ListSource("sel", list(sels)))
    net.add(ListSource("a", list(a_values)))
    net.add(ListSource("b", list(b_values)))
    if buffered_inputs:
        net.add(ElasticBuffer("eba"))
        net.add(ElasticBuffer("ebb"))
        net.connect("a.o", "eba.i", name="ca_in")
        net.connect("eba.o", "mux.i0", name="ca")
        net.connect("b.o", "ebb.i", name="cb_in")
        net.connect("ebb.o", "mux.i1", name="cb")
    else:
        net.connect("a.o", "mux.i0", name="ca")
        net.connect("b.o", "mux.i1", name="cb")
    net.connect("sel.o", "mux.s", name="cs")
    if sink == "sink":
        net.add(Sink("snk", stall_rate=stall_rate, seed=seed))
    else:
        net.add(KillerSink("snk", kill_rate=kill_rate, seed=seed))
    net.connect("mux.o", "snk.i", name="out")
    net.validate()
    return net


class TestBasics:
    def test_needs_two_inputs(self):
        with pytest.raises(ValueError):
            EarlyEvalMux("m", n_inputs=1)

    def test_selects_values(self):
        """Every firing consumes one token per side: the selected one moves
        forward, the other is annihilated — so streams stay generation-
        aligned (sel=0 takes a:10 and kills b:20; sel=1 takes b:21 and
        kills a:11; the third select starves)."""
        net = mux_net([0, 1, 0], [10, 11], [20, 21], buffered_inputs=True)
        run(net, 10)
        assert net.nodes["snk"].values == [10, 21]

    def test_bad_select_value_raises(self):
        net = mux_net([7], [1], [2])
        with pytest.raises(SchedulerError):
            run(net, 3)


class TestEarliness:
    def test_fires_without_unselected_input(self):
        """The defining feature: select=0 and input a present fire even
        though input b never produces a token."""
        net = mux_net([0, 0], [1, 2], [])
        run(net, 6)
        assert net.nodes["snk"].values == [1, 2]

    def test_stalls_when_selected_input_missing(self):
        net = mux_net([1], [5], [])
        run(net, 6)
        assert net.nodes["snk"].values == []
        assert net.nodes["sel"].emitted == 0     # select token still waiting


class TestAntiTokenInjection:
    def test_unselected_token_killed(self):
        """Firing injects an anti-token that cancels the waiting token on
        the other channel."""
        net = mux_net([0], [1], [99], buffered_inputs=True)
        run(net, 8)
        assert net.nodes["snk"].values == [1]
        # The b-side token was destroyed: source emitted it, sink never saw it.
        assert net.nodes["b"].emitted == 1
        assert net.nodes["ebb"].count <= 0

    def test_kill_waits_for_late_token(self):
        """Anti-token parked for a token that arrives later (pending kill):
        with b arriving late, the kill from the first firing must cancel
        b's first token, not its second."""
        net = mux_net([0, 1], [1, 2], [100, 200], buffered_inputs=True)
        run(net, 12)
        # sel 0 -> a's 1; kill b's 100; sel 1 -> b's 200... but kill order
        # guarantees exactly one b token dies.
        assert net.nodes["snk"].values == [1, 200]

    def test_alternating_kills_both_sides(self):
        """Each firing kills the head of the unselected stream: sel=0 takes
        a:1 (kills b:10), sel=1 takes b:20 (kills a:2), sel=0 takes a:3
        (kills b:30), final sel=1 starves."""
        net = mux_net([0, 1, 0, 1], [1, 2, 3], [10, 20, 30],
                      buffered_inputs=True)
        run(net, 15)
        assert net.nodes["snk"].values == [1, 20, 3]


class TestOutputKills:
    def test_output_anti_token_consumes_one_firing(self):
        net = mux_net([0, 0], [1, 2], [], sink="killer", kill_rate=1.0)
        run(net, 10)
        assert net.nodes["snk"].values == []
        assert net.nodes["sel"].exhausted        # both select tokens used
        assert net.nodes["a"].exhausted          # both data tokens consumed

    def test_snapshot_roundtrip(self):
        mux = EarlyEvalMux("m", n_inputs=2)
        mux.reset()
        snap = mux.snapshot()
        mux._kills = (2, 0)
        mux._pko = 1
        mux.restore(snap)
        assert mux._kills == (0, 0)
        assert mux._pko == 0
