"""Unit tests for the simulation engine: fix-point behaviour, combinational
loop detection, monitors and statistics plumbing."""

import pytest

from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer
from repro.elastic.environment import ListSource, Sink
from repro.elastic.functional import Func
from repro.errors import CombinationalLoopError
from repro.netlist.graph import Netlist
from repro.sim.engine import Simulator
from repro.sim.monitors import BoundedLivenessMonitor
from repro.sim.stats import TransferLog

from helpers import run, sink_values


class TestFixpoint:
    def test_resolves_long_combinational_chain(self):
        """A chain of zero-delay blocks resolves within the sweep bound."""
        net = Netlist("chain")
        net.add(ListSource("src", [1, 2, 3]))
        prev = "src.o"
        for i in range(10):
            net.add(Func(f"f{i}", lambda x: x + 1, n_inputs=1))
            net.connect(prev, f"f{i}.i0", name=f"c{i}")
            prev = f"f{i}.o"
        net.add(Sink("snk"))
        net.connect(prev, "snk.i", name="out")
        run(net, 5)
        assert sink_values(net) == [11, 12, 13]

    def test_combinational_loop_detected(self):
        """A ring made only of combinational blocks cannot resolve."""
        net = Netlist("loop")
        net.add(Func("f", lambda x: x, n_inputs=1))
        net.add(Func("g", lambda x: x, n_inputs=1))
        net.connect("f.o", "g.i0", name="a")
        net.connect("g.o", "f.i0", name="b")
        sim = Simulator(net)
        with pytest.raises(CombinationalLoopError) as err:
            sim.step()
        assert err.value.unresolved

    def test_ring_with_buffer_resolves(self):
        net = Netlist("ring")
        net.add(ElasticBuffer("eb", init=[0]))
        net.add(Func("f", lambda x: x + 1, n_inputs=1))
        net.connect("eb.o", "f.i0", name="a")
        net.connect("f.o", "eb.i", name="b")
        sim = run(net, 10)
        assert net.nodes["eb"].contents() == [10]
        assert sim.stats.transfers["b"] == 10


class TestZblChains:
    def test_zbl_chain_resolves(self):
        """Several chained ZBL buffers still resolve (the combinational
        backward chain is acyclic)."""
        net = Netlist("zbl")
        net.add(ListSource("src", list(range(8))))
        prev = "src.o"
        for i in range(4):
            net.add(ZeroBackwardLatencyBuffer(f"z{i}"))
            net.connect(prev, f"z{i}.i", name=f"c{i}")
            prev = f"z{i}.o"
        net.add(Sink("snk"))
        net.connect(prev, "snk.i", name="out")
        run(net, 20)
        assert sink_values(net) == list(range(8))

    def test_zbl_ring_is_a_timing_loop_not_a_sim_loop(self):
        """A ring of ZBL buffers with a token: backward stop chain closes
        on itself; the fix-point must still resolve because each buffer's
        state cuts the valid chain."""
        net = Netlist("zblring")
        net.add(ZeroBackwardLatencyBuffer("z0", init=[1]))
        net.add(ZeroBackwardLatencyBuffer("z1"))
        net.connect("z0.o", "z1.i", name="a")
        net.connect("z1.o", "z0.i", name="b")
        sim = run(net, 6)
        assert sim.stats.transfers["a"] >= 2


class TestStats:
    def test_transfer_counting(self):
        net = Netlist("p")
        net.add(ListSource("src", [1, 2, 3]))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        sim = run(net, 10)
        assert sim.stats.transfers["in"] == 3
        assert sim.stats.transfers["out"] == 3
        assert sim.stats.throughput("out") == pytest.approx(0.3)

    def test_summary_includes_idles_and_accounts_every_cycle(self):
        """Regression: ``summary()`` used to count idles but drop them
        from the rows; each channel's categories must partition the run."""
        net = Netlist("p")
        net.add(ListSource("src", [1, 2, 3]))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        sim = run(net, 10)
        for row in sim.stats.summary():
            assert "idles" in row and "utilization" in row
            total = (row["transfers"] + row["cancels"] + row["backwards"]
                     + row["stalls"] + row["idles"])
            assert total == sim.stats.cycles
        by_name = {row["channel"]: row for row in sim.stats.summary()}
        assert by_name["out"]["idles"] == 7
        assert by_name["out"]["utilization"] == pytest.approx(0.3)

    def test_transfer_log_records_stream(self):
        net = Netlist("p")
        net.add(ListSource("src", [5, 6]))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        log = TransferLog(["out"])
        run(net, 6, observers=[log])
        assert log.values("out") == [5, 6]
        assert log.cycles("out") == [1, 2]


class TestLivenessMonitor:
    def test_stalled_channel_flagged(self):
        net = Netlist("p")
        net.add(ListSource("src", [1]))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk", stall_rate=1.0))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        live = BoundedLivenessMonitor(net, window=8)
        run(net, 20, observers=[live])
        stuck_channels = [name for name, _cycle in live.stuck]
        # "in" carried the token into the EB and then went dead; "out" never
        # armed because it never saw any event.
        assert "in" in stuck_channels
        assert "out" not in stuck_channels

    def test_flowing_design_not_flagged(self):
        net = Netlist("p")
        net.add(ListSource("src", list(range(30))))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        live = BoundedLivenessMonitor(net, window=8)
        run(net, 25, observers=[live])
        assert live.stuck == []


class TestValidationOnConstruction:
    def test_simulator_validates(self):
        net = Netlist("bad")
        net.add(ElasticBuffer("eb"))
        with pytest.raises(Exception):
            Simulator(net)


class TestEngineSelection:
    def _pipeline(self):
        net = Netlist("p")
        net.add(ListSource("src", [1, 2, 3]))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        return net

    def test_unknown_engine_rejected(self):
        for engine in ("magic", "naive"):
            with pytest.raises(ValueError):
                Simulator(self._pipeline(), engine=engine)

    def test_max_iterations_option_removed(self):
        """The fix-point needs no sweep bound: it ends when the change log
        stays empty."""
        with pytest.raises(TypeError):
            Simulator(self._pipeline(), max_iterations=3)

    def test_default_engine_switchable(self):
        from repro.sim.engine import get_default_engine, set_default_engine

        assert get_default_engine() == "codegen"
        previous = set_default_engine("worklist")
        try:
            assert Simulator(self._pipeline()).engine == "worklist"
            with pytest.raises(ValueError):
                set_default_engine("magic")
        finally:
            set_default_engine(previous)
        assert get_default_engine() == "codegen"

    def test_codegen_is_the_default(self):
        assert Simulator(self._pipeline()).engine == "codegen"

    def test_followers_default_to_worklist(self):
        from repro.transform.session import Session

        follower = Simulator(self._pipeline(), follow_edits=True)
        assert follower.engine == "worklist"
        assert Session(self._pipeline()).simulator().engine == "worklist"

    def test_explicit_engine_reaches_followers(self):
        follower = Simulator(self._pipeline(), engine="codegen",
                             follow_edits=True)
        assert follower.engine == "codegen"

    def test_set_default_engine_reaches_followers(self):
        from repro.sim.engine import set_default_engine
        from repro.transform.session import Session

        previous = set_default_engine("codegen")
        try:
            follower = Simulator(self._pipeline(), follow_edits=True)
            assert follower.engine == "codegen"
            assert Session(self._pipeline()).simulator().engine == "codegen"
        finally:
            set_default_engine(previous)
        follower = Simulator(self._pipeline(), follow_edits=True)
        assert follower.engine == "worklist"

    @pytest.mark.parametrize("engine", ["worklist", "codegen"])
    def test_both_engines_simulate(self, engine):
        net = self._pipeline()
        sim = Simulator(net, engine=engine).run(10)
        assert sink_values(net) == [1, 2, 3]
        assert sim.stats.transfers["out"] == 3

    def test_stale_simulator_detected(self):
        """A netlist has one owning simulator: constructing a second one
        re-registers the change logs, so stepping the first must raise
        instead of silently missing change events."""
        net = self._pipeline()
        stale = Simulator(net)
        Simulator(net, engine="codegen")
        with pytest.raises(RuntimeError, match="newer Simulator"):
            stale.step()


class TestEventCache:
    """Channel events are resolved on demand: a plain step builds none,
    the first ``events()`` call after it resolves and memoizes them for
    the rest of the cycle, and the next cycle starts afresh."""

    ENGINES = ("worklist", "codegen")

    @staticmethod
    def _pipeline(values):
        net = Netlist("p")
        net.add(ListSource("src", values))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        return net

    def test_events_resolved_once_per_cycle(self):
        """After a step no channel carries events; repeated ``events()``
        calls then return the same object (no recomputation), equal to a
        fresh resolution."""
        for engine in self.ENGINES:
            net = self._pipeline([1])
            sim = Simulator(net, engine=engine)
            sim.step()
            channel = net.channels["in"]
            assert channel.events_cache is None, engine
            first = channel.events()
            assert channel.events() is first
            assert channel.events_cache is first
            assert first == channel._compute_events()
            assert first.forward and first.data == 1

    def test_cache_invalidated_each_cycle(self):
        for engine in self.ENGINES:
            net = self._pipeline([1, 2])
            sim = Simulator(net, engine=engine)
            sim.step()
            first = net.channels["in"].events()
            sim.step()
            assert net.channels["in"].events_cache is None, engine
            assert net.channels["in"].events() is not first

    def test_mid_cycle_probe_never_served_later(self):
        """A ``Func`` whose function asks for a downstream channel's events
        while the cycle computes: the call raises on both engines in every
        cycle (the compiled cycle marks the channel unresolved until its
        flush, so neither the previous cycle's signals nor its memoized
        events are served), both engines observe the same sequence, and
        the events seen after every step equal a fresh resolution."""
        seen = {}
        for engine in self.ENGINES:
            net = Netlist("p")
            observations = []

            def probe_fn(x, net=net, observations=observations):
                try:
                    net.channels["mid"].events()
                    observations.append("resolved")
                except ValueError:
                    observations.append("unresolved")
                return x

            net.add(ListSource("src", [1, 2, 3, 4]))
            net.add(Func("f1", probe_fn, n_inputs=1))
            net.add(Func("f2", lambda x: x, n_inputs=1))
            net.add(Sink("snk", stall_rate=0.5, seed=2))
            net.connect("src.o", "f1.i0", name="in")
            net.connect("f1.o", "f2.i0", name="mid")
            net.connect("f2.o", "snk.i", name="out")
            sim = Simulator(net, engine=engine)
            for _ in range(8):
                sim.step()
                mid = net.channels["mid"]
                assert mid.events() == mid._compute_events(), engine
            assert observations[0] == "unresolved", engine
            assert sink_values(net) == [1, 2, 3, 4]
            seen[engine] = observations
        assert seen["codegen"] == seen["worklist"]


class TestProfiling:
    @pytest.mark.parametrize("engine", ["worklist", "codegen"])
    def test_profile_counts(self, engine):
        from repro.sim.profile import format_profile, profile_run

        net = Netlist("p")
        net.add(ListSource("src", list(range(5))))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        report = profile_run(net, cycles=10, engine=engine)
        assert report.engine == engine
        assert report.cycles == 10
        assert report.total_comb_calls >= 3 * 10   # every node, every cycle
        assert set(report.comb_calls_by_kind) == {"source", "eb", "sink"}
        text = format_profile(report)
        assert "comb() calls" in text and "histogram" in text

    def test_worklist_evaluates_each_node_once_on_registered_pipeline(self):
        """Levelization at work: an all-registered pipeline needs exactly
        one evaluation per node per cycle."""
        from repro.sim.profile import profile_run

        net = Netlist("p")
        net.add(ListSource("src", list(range(5))))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        report = profile_run(net, cycles=10, engine="worklist")
        assert report.total_comb_calls == 3 * 10

    def test_profile_requires_flag(self):
        net = Netlist("p")
        net.add(ListSource("src", [1]))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        sim = Simulator(net)
        with pytest.raises(ValueError):
            sim.profile_report()


class TestOwnershipGuard:
    """Every engine claims the channels with its own change log, so a
    simulator of any engine refuses to step once a newer simulator owns
    its netlist."""

    ENGINES = ("worklist", "codegen")

    def _pipeline(self):
        net = Netlist("p")
        net.add(ListSource("src", [1, 2, 3]))
        net.add(ElasticBuffer("eb"))
        net.add(Func("f", lambda x: x, n_inputs=1))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "f.i0", name="mid")
        net.connect("f.o", "snk.i", name="out")
        return net

    @pytest.mark.parametrize("new", ENGINES)
    @pytest.mark.parametrize("old", ENGINES)
    def test_stale_simulator_refuses_to_step(self, old, new):
        net = self._pipeline()
        stale = Simulator(net, engine=old)
        stale.step()
        fresh = Simulator(net, engine=new)
        with pytest.raises(RuntimeError, match="newer Simulator"):
            stale.step()
        # the newer owner was not disturbed by the refused step
        fresh.run(10)
        assert sink_values(net) == [1, 2, 3]


class TestEventsMidFixpoint:
    def test_events_raise_on_unresolved_signals(self):
        """``Channel.events()`` during the fix-point (here: from inside a
        node's ``comb``) must raise on unresolved signals rather than
        returning stale events from the previous cycle."""
        net = Netlist("p")
        observations = []

        def probe_fn(x):
            # f2 has not been evaluated yet when f1 first fires, so
            # mid.sp is unknown here.
            try:
                net.channels["mid"].events()
                observations.append("resolved")
            except ValueError:
                observations.append("unresolved")
            return x

        net.add(ListSource("src", [1, 2, 3]))
        net.add(Func("f1", probe_fn, n_inputs=1))
        net.add(Func("f2", lambda x: x, n_inputs=1))
        net.add(Sink("snk"))
        net.connect("src.o", "f1.i0", name="in")
        net.connect("f1.o", "f2.i0", name="mid")
        net.connect("f2.o", "snk.i", name="out")
        sim = Simulator(net, engine="worklist")
        sim.step()
        assert observations[0] == "unresolved"
        # After the fix-point the same call resolves (and is cached).
        assert net.channels["mid"].events() is net.channels["mid"].events_cache

    def test_clear_cycle_resets_state_and_cache(self):
        """The clear of ``Netlist.reset`` and the compiled cycle drops the
        signals and the cached events together."""
        from repro.elastic.channel import Channel

        channel = Channel("c")
        state = channel.state
        state.vp, state.sp, state.vm, state.sm = True, False, False, False
        state.data = 5
        channel.events()
        assert channel.events_cache is not None
        channel.clear_cycle()
        assert channel.events_cache is None
        assert channel.state.vp is None
        assert channel.state.data is None
        assert channel.state.unresolved_signals() == ["vp", "sp", "vm", "sm"]


class TestOneLaneBatchSimulator:
    """There is no lane engine: ``"batch"`` is not a :class:`Simulator`
    engine."""

    def _pipeline(self):
        net = Netlist("p")
        net.add(ListSource("src", [1, 2, 3]))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        return net

    def test_simulator_rejects_batch_engine(self):
        """``engine="batch"`` is an unknown engine; the error lists the
        choices."""
        with pytest.raises(ValueError, match="unknown engine 'batch'") as err:
            Simulator(self._pipeline(), engine="batch")
        assert "codegen" in str(err.value)
