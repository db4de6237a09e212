"""Unit tests for elastic buffers: latency, capacity, back-pressure,
anti-token storage and annihilation — the Figure 3 / Figure 5 semantics."""

import pytest

from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer, bubble
from repro.netlist.graph import Netlist
from repro.elastic.environment import ListSource, Sink, KillerSink

from helpers import run, single_node_net, sink_values


class TestConstruction:
    def test_initial_tokens(self):
        eb = ElasticBuffer("eb", init=[1, 2], capacity=2)
        assert eb.count == 2
        assert eb.contents() == [1, 2]

    def test_bubble_is_empty(self):
        assert bubble("b").count == 0

    def test_initial_anti_tokens(self):
        eb = ElasticBuffer("eb", init_anti=1)
        assert eb.count == -1

    def test_overfull_rejected(self):
        with pytest.raises(ValueError):
            ElasticBuffer("eb", init=[1, 2, 3], capacity=2)

    def test_tokens_and_anti_tokens_exclusive(self):
        with pytest.raises(ValueError):
            ElasticBuffer("eb", init=[1], init_anti=1)

    def test_zbl_capacity_one(self):
        with pytest.raises(ValueError):
            ZeroBackwardLatencyBuffer("z", init=[1, 2])


class TestForwardLatency:
    def test_single_token_takes_one_cycle(self):
        """Lf = 1: a token entering at cycle t leaves at t+1 (sink sees it
        one cycle after the source offered it)."""
        net = single_node_net(ElasticBuffer("eb"), in_values=[42])
        sim = run(net, 4)
        received = net.nodes["snk"].received
        assert received == [(1, 42)]

    def test_stream_full_throughput(self):
        """Capacity 2 = Lf + Lb sustains one transfer per cycle."""
        values = list(range(20))
        net = single_node_net(ElasticBuffer("eb"), in_values=values)
        sim = run(net, 25)
        assert sink_values(net) == values
        # 20 tokens in 25 cycles: no gaps after the 1-cycle fill latency.
        cycles = [c for c, _v in net.nodes["snk"].received]
        assert cycles == list(range(1, 21))

    def test_capacity_one_halves_throughput(self):
        """C = 1 < Lf + Lb cannot sustain full throughput (the C >= Lf + Lb
        constraint of Section 3.2)."""
        values = list(range(10))
        net = single_node_net(ElasticBuffer("eb", capacity=1), in_values=values)
        run(net, 30)
        cycles = [c for c, _v in net.nodes["snk"].received]
        assert sink_values(net) == values
        gaps = [b - a for a, b in zip(cycles, cycles[1:])]
        assert all(g == 2 for g in gaps)


class TestBackPressure:
    def test_stalled_sink_fills_buffer(self):
        net = single_node_net(ElasticBuffer("eb"), in_values=list(range(8)),
                              stall_rate=1.0)
        run(net, 10)
        assert sink_values(net) == []
        assert net.nodes["eb"].count == 2       # full

    def test_no_tokens_lost_under_random_stalls(self):
        values = list(range(30))
        net = single_node_net(ElasticBuffer("eb"), in_values=values,
                              stall_rate=0.5, seed=7)
        run(net, 200)
        assert sink_values(net) == values


class TestAntiTokens:
    def test_kill_annihilates_head_token(self):
        """An anti-token arriving at the output kills the token that would
        have been read next."""
        net = single_node_net(ElasticBuffer("eb"), in_values=[1, 2, 3, 4],
                              kill_rate=1.0)
        run(net, 12)
        snk = net.nodes["snk"]
        assert snk.values == []                   # everything killed
        # At least one anti-token per real token (surplus kills drain
        # backward into the idle source, which is legal).
        assert snk.kills_sent >= 4
        assert net.nodes["eb"].count <= 0

    def test_anti_token_stored_when_buffer_empty(self):
        eb = ElasticBuffer("eb", anti_capacity=2)
        net = single_node_net(eb, in_values=[], kill_rate=1.0)
        run(net, 5)
        assert eb.count < 0                        # anti-tokens parked

    def test_stored_anti_token_kills_late_token(self):
        """A parked anti-token annihilates the next arriving token; the
        token never reaches the sink."""
        net = Netlist("t")
        eb = net.add(ElasticBuffer("eb", anti_capacity=1))
        # Source idles for a while: rate gives gaps; easier: empty then refill
        net.add(ListSource("src", [99], rate=0.2, seed=3))
        net.add(KillerSink("snk", kill_rate=1.0, seed=1))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        run(net, 40)
        assert net.nodes["snk"].values == []
        assert net.nodes["src"].emitted == 1       # token left the source...
        assert net.nodes["src"].killed in (0, 1)

    def test_mixed_kill_and_transfer_conserves_tokens(self):
        values = list(range(40))
        net = single_node_net(ElasticBuffer("eb"), in_values=values,
                              kill_rate=0.3, seed=11)
        run(net, 300)
        snk = net.nodes["snk"]
        # Every source token either reached the sink or was killed; order kept.
        assert len(snk.values) + snk.kills_sent >= len(values)
        assert snk.values == [v for v in values if v in set(snk.values)]

    @pytest.mark.parametrize("engine", ["worklist", "codegen"])
    def test_cancelled_entry_leaves_no_stored_value(self, engine):
        """A token that enters while the buffer holds anti-tokens is
        annihilated, so it must not be stored: every cycle the store holds
        exactly the buffered tokens (it used to keep one stale value per
        such cancellation, 19 after 300 cycles of this run)."""
        from repro.sim.engine import Simulator

        net = Netlist("t")
        eb = net.add(ElasticBuffer("eb"))
        net.add(ListSource("src", list(range(400)), rate=0.5, seed=1))
        net.add(KillerSink("snk", kill_rate=0.5, seed=2))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        sim = Simulator(net, engine=engine)
        entering = net.channels["in"].state
        annihilated = 0
        for _ in range(300):
            held_anti = eb.count < 0
            sim.step()
            annihilated += held_anti and entering.vp and not entering.sp
            assert len(eb._tokens) == max(eb.count, 0)
        assert annihilated > 0        # the run does cancel on entry


class TestZeroBackwardLatency:
    def test_forward_latency_one(self):
        net = single_node_net(ZeroBackwardLatencyBuffer("z"), in_values=[5])
        run(net, 4)
        assert net.nodes["snk"].received == [(1, 5)]

    def test_full_throughput_with_capacity_one(self):
        """Lb = 0 means C = 1 sustains one transfer per cycle — the whole
        point of the Figure 5 controller."""
        values = list(range(15))
        net = single_node_net(ZeroBackwardLatencyBuffer("z"), in_values=values)
        run(net, 20)
        cycles = [c for c, _v in net.nodes["snk"].received]
        assert sink_values(net) == values
        assert cycles == list(range(1, 16))

    def test_anti_token_passes_through_combinationally(self):
        """An anti-token hitting an empty ZBL buffer must reach the producer
        in the same cycle (Lb = 0)."""
        net = single_node_net(ZeroBackwardLatencyBuffer("z"), in_values=[1, 2],
                              kill_rate=1.0)
        run(net, 8)
        snk = net.nodes["snk"]
        assert snk.values == []
        assert snk.kills_sent >= 2

    def test_no_token_loss_under_stalls(self):
        values = list(range(25))
        net = single_node_net(ZeroBackwardLatencyBuffer("z"), in_values=values,
                              stall_rate=0.4, seed=5)
        run(net, 150)
        assert sink_values(net) == values


class TestChainThroughput:
    def test_chain_of_standard_ebs_is_transparent(self):
        from repro.netlist.patterns import eb_chain

        values = list(range(12))
        net = eb_chain(4, source_values=values)
        run(net, 30)
        assert sink_values(net) == values

    def test_snapshot_restore_roundtrip(self):
        eb = ElasticBuffer("eb", init=[1, 2])
        snap = eb.snapshot()
        eb.count += 5
        eb.restore(snap)
        assert eb.count == 2
        assert eb.contents() == [1, 2]
