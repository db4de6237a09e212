"""Unit tests for combinational function blocks (lazy-join control)."""

import pytest

from repro.core.shared import SharedModule
from repro.designs import DESIGNS
from repro.elastic.buffers import ElasticBuffer
from repro.elastic.environment import KillerSink, ListSource, Sink
from repro.elastic.functional import Func, const_block, identity_block
from repro.netlist.graph import Netlist
from repro.sim.engine import Simulator

from helpers import DenseSweepSimulator, run, single_node_net, sink_values


def two_input_net(a_values, b_values, fn, stall_rate=0.0, kill_rate=None, seed=0):
    net = Netlist("t")
    net.add(Func("f", fn, n_inputs=2))
    net.add(ListSource("a", list(a_values)))
    net.add(ListSource("b", list(b_values)))
    if kill_rate is None:
        net.add(Sink("snk", stall_rate=stall_rate, seed=seed))
    else:
        net.add(KillerSink("snk", kill_rate=kill_rate, seed=seed))
    net.connect("a.o", "f.i0", name="ca")
    net.connect("b.o", "f.i1", name="cb")
    net.connect("f.o", "snk.i", name="out")
    net.validate()
    return net


class TestBasics:
    def test_rejects_zero_inputs(self):
        with pytest.raises(ValueError):
            Func("f", lambda: 0, n_inputs=0)

    def test_identity_passthrough_zero_latency(self):
        net = single_node_net(identity_block("f"), in_values=[7, 8])
        run(net, 4)
        # Combinational block: transfer happens the same cycle it is offered.
        assert net.nodes["snk"].received == [(0, 7), (1, 8)]

    def test_const_block(self):
        net = single_node_net(const_block("f", 99), in_values=[1, 2, 3])
        run(net, 5)
        assert sink_values(net) == [99, 99, 99]

    def test_applies_function(self):
        net = single_node_net(Func("f", lambda x: x * 10, n_inputs=1),
                              in_values=[1, 2, 3])
        run(net, 5)
        assert sink_values(net) == [10, 20, 30]


class TestLazyJoin:
    def test_waits_for_all_inputs(self):
        """With input b arriving late, output pairs respect arrival order."""
        net = two_input_net([1, 2, 3], [10], lambda a, b: a + b)
        run(net, 6)
        assert sink_values(net) == [11]

    def test_pairs_in_order(self):
        net = two_input_net([1, 2, 3], [10, 20, 30], lambda a, b: (a, b))
        run(net, 6)
        assert sink_values(net) == [(1, 10), (2, 20), (3, 30)]

    def test_back_pressure_stalls_both_inputs(self):
        net = two_input_net([1, 2], [3, 4], lambda a, b: a + b, stall_rate=1.0)
        run(net, 6)
        assert sink_values(net) == []
        # Tokens still waiting at the sources (persistent).
        assert net.nodes["a"].emitted == 0
        assert net.nodes["b"].emitted == 0

    def test_random_stalls_lose_nothing(self):
        a = list(range(20))
        b = list(range(100, 120))
        net = two_input_net(a, b, lambda x, y: x + y, stall_rate=0.5, seed=3)
        run(net, 200)
        assert sink_values(net) == [x + y for x, y in zip(a, b)]


class TestAntiTokens:
    def test_output_kill_propagates_to_all_inputs(self):
        """One output anti-token must destroy exactly one token pair."""
        net = two_input_net([1, 2, 3], [10, 20, 30], lambda a, b: a + b,
                            kill_rate=1.0)
        run(net, 20)
        assert sink_values(net) == []       # everything killed
        # All six input tokens are gone (none left waiting).
        assert net.nodes["a"].exhausted
        assert net.nodes["b"].exhausted

    def test_kill_with_partial_inputs(self):
        """Kill arrives while only input a has tokens: a's tokens must be
        destroyed without waiting for b."""
        net = two_input_net([1, 2], [], lambda a, b: a + b, kill_rate=1.0)
        run(net, 15)
        assert net.nodes["a"].exhausted
        assert net.nodes["f"].snapshot()[0] >= 0

    def test_mixed_kills_preserve_pairing(self):
        """Killed pairs are killed atomically: survivors are still aligned."""
        a = list(range(10))
        b = list(range(100, 110))
        net = two_input_net(a, b, lambda x, y: (x, y), kill_rate=0.3, seed=5)
        run(net, 100)
        for x, y in sink_values(net):
            assert y == x + 100


class TestThroughFuncAndBuffer:
    def test_buffered_function_pipeline(self):
        net = Netlist("p")
        net.add(ListSource("src", list(range(10))))
        net.add(ElasticBuffer("eb1"))
        net.add(Func("f", lambda x: x + 1, n_inputs=1))
        net.add(ElasticBuffer("eb2"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb1.i", name="c0")
        net.connect("eb1.o", "f.i0", name="c1")
        net.connect("f.o", "eb2.i", name="c2")
        net.connect("eb2.o", "snk.i", name="c3")
        run(net, 20)
        assert sink_values(net) == [x + 1 for x in range(10)]


class TestFnOncePerCycle:
    """``fn`` is the datapath — of a ``Func`` and of a shared module's unit:
    it runs only while the output data is still unknown, so re-evaluations
    of ``comb`` within a cycle never recompute it — on every engine, with
    the sink streams unchanged."""

    @staticmethod
    def _counting(net, kind=Func):
        calls = {}
        for node in net.nodes.values():
            if isinstance(node, kind):
                def counted(*args, _fn=node.fn, _name=node.name):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _fn(*args)
                node.fn = counted
        return calls

    def _check(self, design, engine, kind):
        reference = DESIGNS[design]()
        Simulator(reference).run(120)
        net = DESIGNS[design]()
        calls = self._counting(net, kind)
        if engine == "naive":
            # the dense sweep, kept as the test suite's reference
            sim = DenseSweepSimulator(net)
        else:
            sim = Simulator(net, engine=engine)
        total = 0
        for _ in range(120):
            calls.clear()
            sim.step()
            assert all(n <= 1 for n in calls.values()), calls
            total += sum(calls.values())
        assert total > 0
        assert net.nodes["snk"].received == reference.nodes["snk"].received

    @pytest.mark.parametrize("engine", ["worklist", "naive", "codegen"])
    @pytest.mark.parametrize("design", ["fig6b", "fig7b"])
    def test_at_most_one_call_per_cycle(self, design, engine):
        self._check(design, engine, Func)

    @pytest.mark.parametrize("engine", ["worklist", "naive", "codegen"])
    @pytest.mark.parametrize("design", ["fig6b", "fig7b"])
    def test_shared_unit_at_most_one_call_per_cycle(self, design, engine):
        self._check(design, engine, SharedModule)
