"""Tests for the Figure 3 abstract FIFO: protocol compliance under full
nondeterminism, and refinement of the concrete buffers against it."""

import pytest

from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer
from repro.elastic.environment import ListSource, NondetSink, NondetSource, Sink
from repro.elastic.fifo_model import AbstractElasticFifo
from repro.netlist.graph import Netlist
from repro.sim.engine import Simulator
from repro.verif.deadlock import find_deadlocks
from repro.verif.explore import StateExplorer, explore_or_raise

from helpers import run, sink_values


def harness(node):
    net = Netlist("mc")
    net.add(node)
    net.add(NondetSource("src"))
    net.add(NondetSink("snk", can_kill=True))
    net.connect("src.o", (node.name, "i"), name="in")
    net.connect((node.name, "o"), "snk.i", name="out")
    net.validate()
    return net


class TestAbstractModelCompliance:
    def test_protocol_safe_under_all_latencies(self):
        """Every nondeterministic latency choice keeps the SELF protocol."""
        net = harness(AbstractElasticFifo("fifo", max_occupancy=2))
        result = explore_or_raise(net, max_states=40000)
        assert result.n_states > 10

    def test_no_deadlock(self):
        net = harness(AbstractElasticFifo("fifo", max_occupancy=2))
        result = StateExplorer(net, max_states=40000).explore()
        assert find_deadlocks(result) == []

    def test_retry_register_forces_persistence(self):
        """Once the model offers a token into a stalling consumer, R+ pins
        the offer (checked implicitly by explore_or_raise, verified here
        directly on the register)."""
        fifo = AbstractElasticFifo("fifo")
        net = Netlist("t")
        net.add(fifo)
        net.add(ListSource("src", [1]))
        net.add(Sink("snk", stall_rate=1.0))
        net.connect("src.o", "fifo.i", name="in")
        net.connect("fifo.o", "snk.i", name="out")
        fifo.set_choice(1)          # always willing to offer
        sim = Simulator(net)
        for _ in range(4):
            fifo.set_choice(1)
            sim.step()
        assert fifo._retry_plus     # stalled offer latched


class TestTokenStore:
    def test_cancelled_entry_leaves_no_stored_value(self):
        """Random latency choices under a killing sink: a token entering
        while anti-tokens are held annihilates one and is never stored."""
        import random

        fifo = AbstractElasticFifo("fifo", max_occupancy=3)
        net = harness(fifo)
        sim = Simulator(net, engine="worklist")
        rng = random.Random(5)
        entering = net.channels["in"].state
        annihilated = 0
        for _ in range(400):
            choices = {"fifo": rng.randrange(4), "src": rng.randrange(2),
                       "snk": rng.randrange(3)}
            held_anti = fifo.count < 0
            sim.step_with_choices(choices)
            annihilated += held_anti and entering.vp and not entering.sp
            assert len(fifo._tokens) == max(fifo.count, 0)
        assert annihilated > 0


class TestRefinement:
    """Deterministic buffers are behaviours of the abstract model: for the
    same input stream, the transfer stream of the implementation equals the
    model's under the always-offer choice (minimum latency), and is a
    prefix-preserving reordering-free stream in general."""

    @pytest.mark.parametrize("make_impl", [
        lambda: ElasticBuffer("b"),
        lambda: ZeroBackwardLatencyBuffer("b"),
    ])
    def test_impl_stream_contained_in_spec_stream(self, make_impl):
        values = list(range(12))

        def run_one(node, force_choice):
            net = Netlist("t")
            net.add(node)
            net.add(ListSource("src", values))
            net.add(Sink("snk"))
            net.connect("src.o", (node.name, "i"), name="in")
            net.connect((node.name, "o"), "snk.i", name="out")
            sim = Simulator(net)
            for _ in range(40):
                if force_choice:
                    node.set_choice(3)
                sim.step()
            return net.nodes["snk"].values

        impl_stream = run_one(make_impl(), force_choice=False)
        spec_stream = run_one(AbstractElasticFifo("spec"), force_choice=True)
        assert impl_stream == values
        assert spec_stream == values          # same ordered stream

    def test_model_with_lazy_choices_still_delivers(self):
        """Slower nondeterministic latencies only delay, never lose or
        reorder (finite-response liveness needs fairness, supplied here by
        a periodic offer pattern)."""
        fifo = AbstractElasticFifo("fifo")
        net = Netlist("t")
        net.add(fifo)
        net.add(ListSource("src", list(range(6))))
        net.add(Sink("snk"))
        net.connect("src.o", "fifo.i", name="in")
        net.connect("fifo.o", "snk.i", name="out")
        sim = Simulator(net)
        for cycle in range(60):
            fifo.set_choice(1 if cycle % 3 == 0 else 0)   # offer 1 in 3
            sim.step()
        assert sink_values(net) == list(range(6))


class TestOccupancyBound:
    def test_back_pressure_at_bound(self):
        fifo = AbstractElasticFifo("fifo", max_occupancy=2)
        net = Netlist("t")
        net.add(fifo)
        net.add(ListSource("src", list(range(8))))
        net.add(Sink("snk", stall_rate=1.0))
        net.connect("src.o", "fifo.i", name="in")
        net.connect("fifo.o", "snk.i", name="out")
        sim = Simulator(net)
        for _ in range(10):
            fifo.set_choice(0)
            sim.step()
        assert fifo.count <= 2
