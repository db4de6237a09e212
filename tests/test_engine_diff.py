"""Differential testing of the fix-point engines.

The event-driven worklist engine and the dense-sweep reference
(:class:`helpers.DenseSweepSimulator`) must be *behaviourally identical*:
same transfer streams, same per-channel statistics, same protocol
verdicts, same combinational-loop diagnostics, same model-checking state
graphs.  These tests fuzz random netlists (the :mod:`test_fuzz`
generators plus canned paper designs) and compare the two run for run;
the loop diagnoses and state graphs are also pinned on every other
engine.
"""

import random
from functools import partial

import pytest

from repro.designs import build_design
from repro.elastic.buffers import ElasticBuffer
from repro.elastic.eemux import EarlyEvalMux
from repro.elastic.environment import NondetSink, NondetSource, Sink
from repro.elastic.fork import EagerFork
from repro.elastic.functional import Func
from repro.errors import CombinationalLoopError
from repro.netlist import patterns
from repro.netlist.graph import Netlist
from repro.sim.engine import ENGINES, Simulator
from repro.sim.stats import TransferLog
from repro.verif import explore
from repro.verif.explore import StateExplorer

from helpers import DenseSweepSimulator
from test_fuzz import build_pipeline

#: number of random pipelines in the fuzz sweep (acceptance floor: 50).
N_RANDOM_NETLISTS = 60

#: every engine plus the dense-sweep reference, by name.
SIMULATORS = {engine: partial(Simulator, engine=engine) for engine in ENGINES}
SIMULATORS["dense"] = DenseSweepSimulator


def _stats_dict(sim):
    s = sim.stats
    return {
        "cycles": s.cycles,
        "transfers": s.transfers,
        "cancels": s.cancels,
        "backwards": s.backwards,
        "stalls": s.stalls,
        "idles": s.idles,
    }


def _run_one(make_net, simulator, cycles):
    net = make_net()
    log = TransferLog(list(net.channels))
    sim = SIMULATORS[simulator](net, observers=[log])
    sim.run(cycles)
    streams = {name: log.streams[name] for name in net.channels}
    return net, _stats_dict(sim), streams


def assert_engines_identical(make_net, cycles=250, sink="snk"):
    """Run ``make_net()`` on the worklist engine and on the dense-sweep
    reference and compare everything observable: transfer streams (values
    *and* cycles) of every channel, the full per-channel statistics, and
    the sink's received stream."""
    net_w, stats_w, streams_w = _run_one(make_net, "worklist", cycles)
    net_d, stats_d, streams_d = _run_one(make_net, "dense", cycles)
    assert streams_w == streams_d
    assert stats_w == stats_d
    if sink is not None and sink in net_w.nodes:
        assert net_w.nodes[sink].values == net_d.nodes[sink].values


def _random_pipeline_params(seed):
    rng = random.Random(seed)
    n_stages = rng.randint(1, 7)
    stages = [rng.choice(["eb", "zbl", "func"]) for _ in range(n_stages)]
    stall = rng.choice([0.0, 0.2, 0.5, 0.8])
    kill = rng.random() < 0.4
    return stages, stall, kill


class TestRandomPipelines:
    @pytest.mark.parametrize("seed", range(N_RANDOM_NETLISTS))
    def test_engines_bit_identical(self, seed):
        stages, stall, kill = _random_pipeline_params(seed)
        values = list(range(25))

        def make():
            return build_pipeline(stages, stall, seed, values, kill=kill)

        assert_engines_identical(make, cycles=250)


class TestPaperDesigns:
    def test_fig1d_identical(self):
        assert_engines_identical(
            lambda: patterns.fig1d(lambda g: g % 2)[0], cycles=200, sink=None
        )

    def test_fig1a_identical(self):
        assert_engines_identical(
            lambda: patterns.fig1a(lambda g: (g // 2) % 2)[0], cycles=200,
            sink=None,
        )

    def test_deep_zbl_pipeline_identical(self):
        assert_engines_identical(
            lambda: patterns.deep_pipeline(8, source_values=list(range(100)),
                                           stall_rate=0.4),
            cycles=200,
        )

    def test_fork_join_diamond_identical(self):
        def make():
            net = Netlist("diamond")
            from repro.elastic.environment import ListSource, Sink

            net.add(ListSource("src", list(range(15))))
            net.add(EagerFork("fork", n_outputs=2))
            net.add(ElasticBuffer("p0"))
            net.add(ElasticBuffer("p1a"))
            net.add(ElasticBuffer("p1b"))
            net.add(Func("join", lambda a, b: (a, b), n_inputs=2))
            net.add(Sink("snk", stall_rate=0.3, seed=7))
            net.connect("src.o", "fork.i", name="in")
            net.connect("fork.o0", "p0.i", name="a0")
            net.connect("p0.o", "join.i0", name="a1")
            net.connect("fork.o1", "p1a.i", name="b0")
            net.connect("p1a.o", "p1b.i", name="b1")
            net.connect("p1b.o", "join.i1", name="b2")
            net.connect("join.o", "snk.i", name="out")
            return net

        assert_engines_identical(make, cycles=200)


class TestLoopDiagnostics:
    def _loop_net(self):
        net = Netlist("loop")
        net.add(Func("f", lambda x: x, n_inputs=1))
        net.add(Func("g", lambda x: x, n_inputs=1))
        net.connect("f.o", "g.i0", name="a")
        net.connect("g.o", "f.i0", name="b")
        return net

    def test_same_unresolved_signals(self):
        """Every engine and the reference must flag the same combinational
        loop with the same unresolved-signal diagnosis."""
        diagnoses = {}
        for engine, simulator in SIMULATORS.items():
            sim = simulator(self._loop_net())
            with pytest.raises(CombinationalLoopError) as err:
                sim.step()
            diagnoses[engine] = (sorted(err.value.unresolved), err.value.cycle)
        assert diagnoses["worklist"] == diagnoses["dense"]
        for engine, diagnosis in diagnoses.items():
            assert diagnosis == diagnoses["worklist"], engine

    def test_partial_loop_same_diagnosis(self):
        """A loop hanging off a working pipeline: the healthy part resolves,
        the cyclic part is reported — identically on both engines."""

        def make_net():
            net = Netlist("mixed")
            from repro.elastic.environment import ListSource, Sink

            net.add(ListSource("src", [1, 2]))
            net.add(ElasticBuffer("eb"))
            net.add(Sink("snk"))
            net.connect("src.o", "eb.i", name="in")
            net.connect("eb.o", "snk.i", name="out")
            net.add(Func("f", lambda x: x, n_inputs=1))
            net.add(Func("g", lambda x: x, n_inputs=1))
            net.connect("f.o", "g.i0", name="a")
            net.connect("g.o", "f.i0", name="b")
            return net

        diagnoses = {}
        for engine, simulator in SIMULATORS.items():
            sim = simulator(make_net())
            with pytest.raises(CombinationalLoopError) as err:
                sim.step()
            diagnoses[engine] = sorted(err.value.unresolved)
        assert diagnoses["worklist"] == diagnoses["dense"]
        for engine, diagnosis in diagnoses.items():
            assert diagnosis == diagnoses["worklist"], engine


class TestChaosSaboteurs:
    """Saboteur nodes (:mod:`repro.chaos`) are ordinary nodes to the
    engines: a chaos-wrapped corpus pipeline must stay bit-identical
    across engines, injections and all."""

    @pytest.mark.parametrize("seed", range(8))
    def test_wrapped_pipeline_bit_identical(self, seed):
        from repro.chaos import ChaosPlan, wrap

        stages, stall, kill = _random_pipeline_params(seed)
        values = list(range(25))

        def make():
            net = build_pipeline(stages, stall, seed, values, kill=kill)
            plan = ChaosPlan.seeded(seed, list(net.channels),
                                    kinds=("stall", "bubble", "corrupt"),
                                    coverage=0.6)
            wrap(net, plan)
            return net

        assert_engines_identical(make, cycles=400)


def _explore_everywhere(make, max_states, monkeypatch):
    """Explore ``make()`` on every engine and, with the explorer's
    simulator swapped for the dense-sweep reference, on that too."""
    def summary(result):
        return (result.n_states, len(result.transitions),
                sorted(result.violations), result.complete)

    results = {}
    for engine in ENGINES:
        results[engine] = summary(StateExplorer(
            make(), max_states=max_states, engine=engine).explore())
    with monkeypatch.context() as patch:
        patch.setattr(explore, "Simulator", DenseSweepSimulator)
        results["dense"] = summary(StateExplorer(
            make(), max_states=max_states).explore())
    return results


class TestModelChecking:
    def test_explorer_state_graphs_match(self, monkeypatch):
        """The explicit-state explorer must enumerate the same reachable
        state space through either engine."""

        def make():
            net = Netlist("mc")
            net.add(NondetSource("src"))
            net.add(ElasticBuffer("eb"))
            net.add(NondetSink("snk", can_kill=True))
            net.connect("src.o", "eb.i", name="in")
            net.connect("eb.o", "snk.i", name="out")
            return net

        results = _explore_everywhere(make, 5000, monkeypatch)
        assert results["worklist"] == results["dense"]
        for engine, result in results.items():
            assert result == results["worklist"], engine

    def test_explorer_speculative_composition_matches(self, monkeypatch):
        """Shared module + EE mux under the toggle scheduler — the paper's
        Section 4.2 composition — explores identically on both engines."""
        from test_verif import shared_mux_mc_net
        from repro.core.scheduler import ToggleScheduler

        results = _explore_everywhere(
            lambda: shared_mux_mc_net(ToggleScheduler(2)), 30000, monkeypatch)
        assert results["worklist"] == results["dense"]
        for engine, result in results.items():
            assert result == results["worklist"], engine


def _sink_values(net):
    return {name: node.values for name, node in net.nodes.items()
            if isinstance(node, Sink)}


def _combs_return_none(net):
    """Give every node a ``comb()`` that drives the same signals and
    returns None, through a per-node subclass (its extra parameter is
    outside the compiled subset, so codegen cannot compile the netlist and
    runs the worklist cycle, which calls the wrapper)."""
    for node in net.nodes.values():
        base = type(node)

        def comb(self, _base=base):
            _base.comb(self)

        node.__class__ = type(base.__name__, (base,), {"comb": comb})
    return net


class TestProgressSignal:
    """The channels' change log is the only fix-point progress signal:
    ``comb()`` return values are ignored.  A fix-point that trusted them
    would stop after one pass here and raise a false
    :class:`CombinationalLoopError` at cycle 0."""

    DESIGNS = {
        "fig1d": lambda: patterns.fig1d(lambda g: g % 2)[0],
        "deep_pipeline4": lambda: patterns.deep_pipeline(
            4, source_values=list(range(80)), stall_rate=0.4),
        "fig6b": lambda: build_design("fig6b"),
        "fig7b": lambda: build_design("fig7b"),
    }

    @pytest.mark.parametrize("simulator", sorted(SIMULATORS))
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_none_returning_combs_match_worklist(self, design, simulator):
        make = self.DESIGNS[design]
        net_w, stats_w, streams_w = _run_one(make, "worklist", 200)
        net, stats, streams = _run_one(
            lambda: _combs_return_none(make()), simulator, 200)
        assert streams == streams_w
        assert stats == stats_w
        assert _sink_values(net) == _sink_values(net_w)
