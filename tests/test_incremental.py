"""Edit following — differential tests.

A live simulator that followed an arbitrary transform script edit by edit
(including undo/redo round-trips past the history bound) must be
*bit-identical* to a simulator rebuilt from scratch on the transformed
netlist — same transfer streams (values and cycles), same per-channel
statistics, same combinational-loop diagnostics — and a simulator that
did *not* follow the edits must refuse to run rather than read stale
sensitivity tables."""

import random

import pytest

from repro.elastic.buffers import ElasticBuffer
from repro.elastic.channel import (
    ALL_SIGNALS,
    N_SIGNALS,
    PRODUCER,
    SIGNALS_BY_ROLE,
)
from repro.elastic.environment import ListSource, Sink
from repro.elastic.functional import Func
from repro.errors import CombinationalLoopError, TransformError
from repro.netlist.graph import Netlist
from repro.sim.sensitivity import topology_signature
from repro.sim.engine import Simulator
from repro.sim.stats import TransferLog
from repro.transform.bubbles import insert_bubble
from repro.transform.session import Session

from helpers import DenseSweepSimulator
from test_fuzz import build_pipeline

#: random transform scripts in the fuzz sweep.
N_RANDOM_SCRIPTS = 18


def _stats_dict(sim, channel_names):
    s = sim.stats
    return {
        "cycles": s.cycles,
        "transfers": {n: s.transfers[n] for n in channel_names},
        "cancels": {n: s.cancels[n] for n in channel_names},
        "backwards": {n: s.backwards[n] for n in channel_names},
        "stalls": {n: s.stalls[n] for n in channel_names},
        "idles": {n: s.idles[n] for n in channel_names},
    }


def _capture_patched(sim, netlist, cycles):
    """Reset the warm simulator and run it, recording streams + stats."""
    channels = list(netlist.channels)
    log = TransferLog(channels)
    sim.reset()
    sim.observers.append(log)
    try:
        sim.run(cycles)
    finally:
        sim.observers.remove(log)
    sink = netlist.nodes.get("snk")
    return (log.streams, _stats_dict(sim, channels),
            sink.values if sink is not None else None)


def _capture_rebuilt(netlist, cycles, simulator=Simulator):
    """Clone the netlist and run a from-scratch simulator on the clone."""
    working = netlist.clone()
    channels = list(working.channels)
    log = TransferLog(channels)
    sim = simulator(working, observers=[log])
    sim.run(cycles)
    sink = working.nodes.get("snk")
    return (log.streams, _stats_dict(sim, channels),
            sink.values if sink is not None else None)


def assert_patched_equals_rebuilt(session, sim, cycles=220):
    patched = _capture_patched(sim, session.netlist, cycles)
    for engine, simulator in (("worklist", Simulator),
                              ("dense", DenseSweepSimulator)):
        rebuilt = _capture_rebuilt(session.netlist, cycles, simulator)
        assert patched[0] == rebuilt[0], f"streams diverged vs {engine}"
        assert patched[1] == rebuilt[1], f"stats diverged vs {engine}"
        assert patched[2] == rebuilt[2], f"sink values diverged vs {engine}"


def _random_script_step(rng, session, inserted):
    """One random transform; returns a description or None when skipped."""
    choice = rng.randrange(6)
    channels = list(session.netlist.channels)
    if choice == 0:
        channel = rng.choice(channels)
        _record, name = session.insert_bubble(channel)
        inserted.append(name)
        return f"insert_bubble {channel}"
    if choice == 1:
        channel = rng.choice(channels)
        _record, name = session.insert_zbl(channel)
        inserted.append(name)
        return f"insert_zbl {channel}"
    if choice == 2 and inserted:
        name = rng.choice(inserted)
        if name in session.netlist.nodes:
            try:
                session.remove_buffer(name)
            except TransformError:
                return None          # holds tokens / already unspliced
            return f"remove_buffer {name}"
        return None
    if choice == 3:
        try:
            session.undo()
        except TransformError:
            return None
        return "undo"
    if choice == 4:
        try:
            session.redo()
        except TransformError:
            return None
        return "redo"
    return None


class TestFuzzedTransformScripts:
    @pytest.mark.parametrize("seed", range(N_RANDOM_SCRIPTS))
    def test_patched_simulator_bit_identical_to_rebuild(self, seed):
        rng = random.Random(seed * 1237 + 11)
        stages = [rng.choice(["eb", "zbl", "func"])
                  for _ in range(rng.randint(1, 5))]
        stall = rng.choice([0.0, 0.3, 0.6])
        kill = rng.random() < 0.3
        net = build_pipeline(stages, stall, seed, list(range(20)), kill=kill)
        session = Session(net, max_history=4)
        sim = session.simulator()
        inserted = []
        for step in range(rng.randint(4, 12)):
            _random_script_step(rng, session, inserted)
            if step % 3 == 2:
                # exercise the patched structures mid-script, not only at
                # the end (reset keeps patched/rebuilt comparable).
                sim.reset()
                sim.run(25)
        session.netlist.validate()
        assert_patched_equals_rebuilt(session, sim)

    def test_undo_redo_round_trip_past_max_history(self):
        net = build_pipeline(["eb", "func", "eb"], 0.2, 5, list(range(20)))
        session = Session(net, max_history=3)
        sim = session.simulator()
        before = topology_signature(session.netlist)
        for _ in range(6):                     # twice the history bound
            session.insert_bubble("c0")
        for _ in range(3):
            session.undo()
        with pytest.raises(TransformError):
            session.undo()                     # history bound reached
        for _ in range(3):
            session.redo()
        with pytest.raises(TransformError):
            session.redo()
        # 6 inserted, 3 undone, 3 redone: 6 bubbles on c0 in the end.
        assert len(session.netlist.nodes) == len(net.nodes) + 6
        assert topology_signature(session.netlist) != before
        session.netlist.validate()
        assert_patched_equals_rebuilt(session, sim)

    def test_full_speculation_recipe_with_warm_simulator(self):
        from repro.netlist import patterns

        net, _names = patterns.fig1a(lambda g: g % 2)
        session = Session(net)
        sim = session.simulator()
        session.run_script(
            """
            shannon mux F
            early_eval mux
            share F_c0 F_c1 --scheduler=toggle
            insert_bubble mux_f
            undo
            """
        )
        patched = _capture_patched(sim, session.netlist, 200)
        rebuilt = _capture_rebuilt(session.netlist, 200)
        assert patched[0] == rebuilt[0]
        assert patched[1] == rebuilt[1]


class TestSensitivityMapEquivalence:
    """A simulator that followed edits holds exactly the sensitivity
    tables, seed order and signal numbering a fresh one builds: both
    derive them from the live netlist at refresh."""

    @staticmethod
    def _reader_names(sim):
        """Channel-name/signal -> reader-node-name sets (slot independent)."""
        result = {}
        for slot, channel in enumerate(sim._channels):
            for offset, signal in enumerate(ALL_SIGNALS):
                readers = sim._readers[slot * N_SIGNALS + offset]
                result[(channel.name, signal)] = {
                    sim._nodes[i].name for i in readers
                }
        return result

    @pytest.mark.parametrize("seed", range(6))
    def test_patched_tables_match_fresh_build(self, seed):
        rng = random.Random(seed + 400)
        net = build_pipeline(["eb", "func", "zbl", "eb"], 0.2, seed,
                             list(range(10)))
        session = Session(net, max_history=4)
        sim = session.simulator(profile=True)
        inserted = []
        for _ in range(10):
            _random_script_step(rng, session, inserted)
        sim.reset()
        fresh = Simulator(session.netlist.clone(), profile=True,
                          engine="worklist")
        assert self._reader_names(sim) == self._reader_names(fresh)
        assert [sim._nodes[i].name for i in sim._order] == \
            [fresh._nodes[i].name for i in fresh._order]
        for slot, channel in enumerate(sim._channels):
            assert channel.state.base == slot * N_SIGNALS
        # Same seed order, same work: the per-cycle evaluation counts of
        # the followed simulator are the fresh one's.
        sim.run(120)
        fresh.run(120)
        assert sim.profile_report() == fresh.profile_report()

    def test_slot_tables_compact_under_long_churn(self):
        """A long insert/undo loop must not grow the per-cycle structures
        with the number of edits ever applied: they track the live
        design."""
        net = build_pipeline(["eb", "func", "eb"], 0.2, 7, list(range(15)))
        session = Session(net)
        sim = session.simulator(profile=True)
        for _ in range(300):
            session.insert_bubble("c0")
            session.undo()
        sim.reset()
        assert len(sim._nodes) == len(session.netlist.nodes)
        assert len(sim._channels) == len(session.netlist.channels)
        assert len(sim._readers) == N_SIGNALS * len(session.netlist.channels)
        assert_patched_equals_rebuilt(session, sim, cycles=120)
        # the remapped profile counters still line up with the nodes
        report = sim.profile_report()
        assert report.n_nodes == len(session.netlist.nodes)

    def test_order_stays_topological_on_acyclic_designs(self):
        net = build_pipeline(["eb", "func", "func", "eb"], 0.0, 1,
                             list(range(10)))
        session = Session(net)
        sim = session.simulator()
        for channel in list(session.netlist.channels):
            session.insert_bubble(channel)
        sim.reset()
        assert sorted(sim._order) == list(range(len(sim._nodes)))
        pos = {i: p for p, i in enumerate(sim._order)}
        index = {node.name: i for i, node in enumerate(sim._nodes)}
        for slot, channel in enumerate(sim._channels):
            for offset, signal in enumerate(ALL_SIGNALS):
                end = (channel.producer if signal in SIGNALS_BY_ROLE[PRODUCER]
                       else channel.consumer)
                writer = index[end[0]]
                for reader in sim._readers[slot * N_SIGNALS + offset]:
                    if reader != writer:
                        assert pos[writer] < pos[reader], (
                            "seed order violates a dependency")


class TestLoopDiagnosticsParity:
    def _mixed_net(self):
        net = Netlist("mixed")
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

    def test_patched_simulator_same_loop_diagnosis(self):
        """A transform on the healthy region of a design with a
        combinational cycle: the patched simulator must report exactly the
        diagnosis a rebuilt one does."""
        session = Session(self._mixed_net())
        sim = session.simulator()
        session.insert_bubble("in")
        sim.reset()
        with pytest.raises(CombinationalLoopError) as patched:
            sim.step()
        rebuilt = Simulator(session.netlist.clone())
        with pytest.raises(CombinationalLoopError) as reference:
            rebuilt.step()
        assert sorted(patched.value.unresolved) == sorted(reference.value.unresolved)


class TestStaleStructureGuards:
    def _edited(self, engine):
        net = build_pipeline(["eb"], 0.0, 0, [1, 2, 3])
        sim = Simulator(net, engine=engine)
        insert_bubble(net, "c0")
        return sim

    @pytest.mark.parametrize("engine", ["worklist", "codegen"])
    def test_unpatched_simulator_refuses_to_step(self, engine):
        sim = self._edited(engine)
        with pytest.raises(RuntimeError, match="structurally edited"):
            sim.step()

    def test_unpatched_simulator_refuses_step_with_choices(self):
        sim = self._edited("worklist")
        with pytest.raises(RuntimeError, match="structurally edited"):
            sim.step_with_choices({})

    def test_manual_apply_edit_revalidates(self):
        net = build_pipeline(["eb", "func"], 0.0, 3, list(range(8)))
        sim = Simulator(net)
        edits = []
        net.subscribe(edits.append)
        insert_bubble(net, "c0")
        with pytest.raises(RuntimeError):
            sim.step()
        for edit in edits:
            sim.apply_edit(edit)
        sim.reset()
        sim.run(40)
        assert net.nodes["snk"].values == list(range(8))

    @pytest.mark.parametrize("engine", ["worklist", "codegen"])
    def test_superseded_follower_detaches_instead_of_stealing(self, engine):
        """A still-subscribed older simulator must not steal ownership of
        channels created after a newer simulator took over."""
        net = build_pipeline(["eb"], 0.0, 0, [1, 2, 3])
        old = Simulator(net, engine=engine, follow_edits=True)
        new = Simulator(net, engine=engine)   # takes ownership of the logs
        edits = []
        net.subscribe(edits.append)
        insert_bubble(net, "c0")              # old observes, must detach
        assert old._followed is None
        with pytest.raises(RuntimeError):
            old.step()
        # the newer simulator can be patched with the same edits and run
        for edit in edits:
            new.apply_edit(edit)
        new.reset()
        new.run(40)
        assert net.nodes["snk"].values == [1, 2, 3]

    @pytest.mark.parametrize("engine", ["worklist", "codegen"])
    def test_superseded_refresh_does_not_reclaim(self, engine):
        """The deferred post-edit refresh may run after a newer simulator
        took over (``reset`` runs it without the step guard); it must not
        re-claim the newer simulator's channels."""
        net = build_pipeline(["eb", "func"], 0.0, 0, [1, 2, 3])
        old = Simulator(net, engine=engine, follow_edits=True)
        insert_bubble(net, "c0")              # old patches, refresh deferred
        new = Simulator(net)
        old.reset()                           # runs the deferred refresh
        with pytest.raises(RuntimeError, match="newer Simulator"):
            old.step()
        new.run(40)
        assert net.nodes["snk"].values == [1, 2, 3]


class TestPostEditRefresh:
    class HookCounter:
        def __init__(self):
            self.calls = 0

        def observe(self, cycle, netlist):
            pass

        def structure_changed(self):
            self.calls += 1

    @pytest.mark.parametrize("engine", ["worklist", "codegen"])
    def test_followed_edit_calls_observer_hook_once(self, engine):
        """Every engine runs the same deferred post-edit refresh: one
        followed edit fires each observer's ``structure_changed`` exactly
        once, before the next cycle."""
        from repro.netlist import patterns

        net = patterns.deep_pipeline(4)
        counter = self.HookCounter()
        sim = Simulator(net, engine=engine, observers=[counter],
                        follow_edits=True)
        sim.step()
        insert_bubble(net, next(iter(net.channels)))
        assert counter.calls == 0
        sim.step()
        sim.step()
        assert counter.calls == 1


class TestWarmMeasurementParity:
    def test_session_measure_matches_rebuild_measure(self):
        from repro.perf.throughput import measure_throughput

        net = build_pipeline(["eb", "func", "eb"], 0.3, 9, list(range(50)))
        session = Session(net)
        session.insert_bubble("c0")
        warm = session.measure("out", cycles=120, warmup=20)
        # measure_throughput owns the netlist it is given: the cold
        # measurement takes its own copy, leaving the session's warm
        # simulator in charge of session.netlist
        cold = measure_throughput(session.netlist.clone(), "out", cycles=120,
                                  warmup=20)
        assert warm.transfers == cold.transfers
        assert warm.throughput == cold.throughput
        # repeat measurements on the warm simulator are reproducible
        again = session.measure("out", cycles=120, warmup=20)
        assert again.transfers == warm.transfers

    def test_reuse_simulator_rejects_foreign_netlist(self):
        from repro.perf.throughput import measure_throughput

        net_a = build_pipeline(["eb"], 0.0, 0, [1, 2])
        net_b = build_pipeline(["eb"], 0.0, 0, [1, 2])
        sim_a = Simulator(net_a)
        with pytest.raises(ValueError, match="reuse_simulator"):
            measure_throughput(net_b, "out", reuse_simulator=sim_a)

    def test_pure_stream_designs_measure_reproducibly(self):
        """The canned fig6b/fig7b designs (the `explore` CLI surface) use
        index-seeded pure op streams, so repeated warm measurements of the
        same design point return identical figures."""
        from repro.cli import _DESIGNS

        for design in ("fig6b", "fig7b"):
            session = Session(_DESIGNS[design]())
            first = session.measure("out", cycles=150, warmup=20)
            second = session.measure("out", cycles=150, warmup=20)
            assert first.transfers == second.transfers, design

    def test_mcr_cache_tracks_structural_version(self):
        from fractions import Fraction

        from repro.netlist import patterns

        net, _names = patterns.fig1b(lambda g: 0)
        session = Session(net)
        first = session.mcr()
        assert session.mcr() == first          # memo hit on same version
        session.insert_bubble("mux_f")
        assert session.mcr() is not None       # recomputed after the edit
        assert isinstance(first, Fraction)
