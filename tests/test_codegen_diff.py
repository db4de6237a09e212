"""Differential testing of the codegen engine against the worklist engine.

The compiled engine (``engine="codegen"``, :mod:`repro.backend.pysim`)
elaborates each topology into one specialized straight-line Python module.
Its contract is the same bar PRs 3–5 held the batch engine and the
sensitivity patches to: *bit-identical* behaviour to the worklist engine —
transfer streams, per-channel statistics, protocol verdicts (including the
exact violation raised), combinational-loop diagnoses, and snapshot /
restore round-trips.  These tests reuse the :mod:`test_engine_diff` fuzz
corpus plus the canned paper designs (fig1 / fig6 / fig7), and pin the
PR 9 satellites: up-front unknown-engine rejection and the stale-code
safety guards around the compiled-module cache.
"""

import hashlib
import random
import re

import pytest

from repro.backend import pysim
from repro.designs import DESIGNS, MC_DESIGNS
from repro.elastic.buffers import ElasticBuffer
from repro.elastic.environment import ListSource, NondetSink, Sink
from repro.elastic.fork import EagerFork
from repro.elastic.functional import Func
from repro.errors import (
    CombinationalLoopError,
    ProtocolViolationError,
    SchedulerError,
)
from repro.netlist import patterns
from repro.netlist.graph import Netlist
from repro.sim.engine import (
    ENGINES,
    Simulator,
    get_default_engine,
    set_default_engine,
)
from repro.sim.stats import TransferLog
from repro.transform.bubbles import insert_bubble

from test_engine_diff import N_RANDOM_NETLISTS, _random_pipeline_params, _stats_dict
from test_fuzz import build_pipeline


def _run_one(make_net, engine, cycles):
    net = make_net()
    log = TransferLog(list(net.channels))
    sim = Simulator(net, engine=engine, observers=[log])
    sim.run(cycles)
    streams = {name: log.streams[name] for name in net.channels}
    return net, _stats_dict(sim), streams


def assert_codegen_identical(make_net, cycles=250, sink="snk"):
    """Run ``make_net()`` once per engine and compare everything observable:
    transfer streams (values *and* cycles) of every channel, the full
    per-channel statistics, and the sink's received stream."""
    net_w, stats_w, streams_w = _run_one(make_net, "worklist", cycles)
    net_c, stats_c, streams_c = _run_one(make_net, "codegen", cycles)
    assert streams_c == streams_w
    assert stats_c == stats_w
    if sink is not None and sink in net_w.nodes:
        assert net_c.nodes[sink].values == net_w.nodes[sink].values


class TestRandomPipelines:
    @pytest.mark.parametrize("seed", range(N_RANDOM_NETLISTS))
    def test_codegen_bit_identical(self, seed):
        stages, stall, kill = _random_pipeline_params(seed)
        values = list(range(25))

        def make():
            return build_pipeline(stages, stall, seed, values, kill=kill)

        assert_codegen_identical(make, cycles=250)


class TestChaosSaboteurs:
    """Chaos-wrapped corpus pipelines: a splice is made of kinds with
    straight-line spec + tick emitters, so a wrapped netlist must
    compile (no per-node fallback on the spliced nodes) and stay
    bit-identical to the worklist engine."""

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

        assert_codegen_identical(make, cycles=400)


class TestPaperDesigns:
    """The canned paper designs, all compiled fully straight-line: fig1a
    the non-speculative loop, fig1d the shared module and early-evaluation
    mux, fig6b/fig7b the speculative variable-latency/resilient
    compositions."""

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_design_identical(self, name):
        assert_codegen_identical(lambda: DESIGNS[name](), cycles=200,
                                 sink=None)

    def test_fig1d_pattern_identical(self):
        assert_codegen_identical(
            lambda: patterns.fig1d(lambda g: g % 2)[0], cycles=200, sink=None
        )

    def test_deep_zbl_pipeline_identical(self):
        assert_codegen_identical(
            lambda: patterns.deep_pipeline(8, source_values=list(range(100)),
                                           stall_rate=0.4),
            cycles=200,
        )

    def test_fork_join_diamond_identical(self):
        def make():
            net = Netlist("diamond")
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

        assert_codegen_identical(make, cycles=200)


class TestProtocolViolationParity:
    """The inlined monitor must raise the *same* violation as the scalar
    monitor: same property, channel, cycle, and message."""

    class WithdrawingSource(ElasticBuffer):
        """Deliberately broken: withdraws a stalled token after 2 cycles.

        Subclasses ElasticBuffer only to inherit wiring; ``comb`` is
        replaced by a protocol-violating offer, so codegen has no emitter
        for the node: the netlist does not compile, the codegen simulator
        runs it interpreted, and the violation must still match.
        """

        def __init__(self, name):
            super().__init__(name, init=(1, 2))
            self._age = 0

        def comb(self):
            self.drive("o", "vp", self._age < 2)
            if self._age < 2:
                self.drive("o", "data", 7)
            self.drive("o", "sm", False)
            self.drive("i", "sp", True)
            self.drive("i", "vm", False)

        def tick(self):
            self._age += 1

    def _net(self):
        net = Netlist("broken")
        net.add(ListSource("src", []))
        net.add(self.WithdrawingSource("bad"))
        net.add(Sink("snk", stall_rate=1.0, seed=1))
        net.connect("src.o", "bad.i", name="in")
        net.connect("bad.o", "snk.i", name="out")
        return net

    def test_same_violation_as_worklist(self):
        scalar = Simulator(self._net(), engine="worklist")
        with pytest.raises(ProtocolViolationError) as scalar_err:
            scalar.run(10)
        compiled = Simulator(self._net(), engine="codegen")
        with pytest.raises(ProtocolViolationError) as codegen_err:
            compiled.run(10)
        for attr in ("prop", "channel", "cycle"):
            assert getattr(codegen_err.value, attr) == getattr(
                scalar_err.value, attr
            )
        assert str(codegen_err.value) == str(scalar_err.value)

    def test_violation_recorded_on_monitor(self):
        sim = Simulator(self._net(), engine="codegen")
        with pytest.raises(ProtocolViolationError):
            sim.run(10)
        assert len(sim.monitor.violations) == 1


class TestLoopDiagnosisParity:
    def _loop_net(self):
        net = Netlist("loop")
        net.add(Func("f", lambda x: x, n_inputs=1))
        net.add(Func("g", lambda x: x, n_inputs=1))
        net.connect("f.o", "g.i0", name="a")
        net.connect("g.o", "f.i0", name="b")
        return net

    def test_same_unresolved_signals(self):
        diagnoses = {}
        for engine in ("worklist", "codegen"):
            sim = Simulator(self._loop_net(), engine=engine)
            with pytest.raises(CombinationalLoopError) as err:
                sim.step()
            diagnoses[engine] = (sorted(err.value.unresolved), err.value.cycle,
                                 str(err.value))
        assert diagnoses["codegen"] == diagnoses["worklist"]

    def test_partial_loop_same_diagnosis(self):
        """A loop hanging off a healthy pipeline: the loop's tasks are
        deferred, so the whole netlist runs interpreted — and the loop is
        still reported identically."""

        def make_net():
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

        diagnoses = {}
        for engine in ("worklist", "codegen"):
            sim = Simulator(make_net(), engine=engine)
            with pytest.raises(CombinationalLoopError) as err:
                sim.step()
            diagnoses[engine] = sorted(err.value.unresolved)
        assert diagnoses["codegen"] == diagnoses["worklist"]

    def test_unknown_select_data_same_diagnosis(self):
        """An offered select whose data is unknown (the select ``Func``
        returns None) leaves the mux's fire decision — and everything
        behind it — unresolved: the compiled mux must raise the worklist
        engine's diagnosis, not a scheduler error."""
        diagnoses = {}
        for engine in ("worklist", "codegen"):
            sim = Simulator(patterns.fig1d(lambda g: None)[0], engine=engine)
            with pytest.raises(CombinationalLoopError) as err:
                sim.step()
            diagnoses[engine] = (err.value.unresolved, err.value.cycle,
                                 str(err.value))
        assert diagnoses["codegen"] == diagnoses["worklist"]
        assert len(diagnoses["codegen"][0]) == 14

    @pytest.mark.parametrize("select", [2, -1, "x"])
    def test_out_of_range_select_same_error(self, select):
        messages = {}
        for engine in ("worklist", "codegen"):
            sim = Simulator(patterns.fig1d(lambda g: select)[0], engine=engine)
            with pytest.raises(SchedulerError) as err:
                sim.run(5)
            messages[engine] = str(err.value)
        assert messages["codegen"] == messages["worklist"]


class TestSnapshotRestore:
    """snapshot/restore round-trips: restoring mid-run state and replaying
    must land both engines on the same streams."""

    def _make(self):
        return patterns.deep_pipeline(6, source_values=list(range(40)),
                                      stall_rate=0.3)

    def _roundtrip(self, engine):
        net = self._make()
        log = TransferLog(list(net.channels))
        sim = Simulator(net, engine=engine, observers=[log])
        sim.run(20)
        snap = sim.state()
        sim.run(15)                      # diverge past the snapshot...
        mid = {n: list(s) for n, s in log.streams.items()}
        sim.load_state(snap)             # ...then rewind and replay
        sim.run(15)
        return mid, {n: list(s) for n, s in log.streams.items()}, _stats_dict(sim)

    def test_roundtrip_matches_worklist(self):
        mid_w, final_w, stats_w = self._roundtrip("worklist")
        mid_c, final_c, stats_c = self._roundtrip("codegen")
        assert mid_c == mid_w
        assert final_c == final_w
        assert stats_c == stats_w

    def test_restore_replays_identically(self):
        """Replaying from a snapshot produces the same tail the original
        run produced.  Deterministic (no-stall) pipeline: environment rng
        draws are not sequential netlist state, so only a deterministic
        design replays bit-identically from a snapshot."""
        net = patterns.deep_pipeline(6, source_values=list(range(40)),
                                     stall_rate=0.0)
        sim = Simulator(net, engine="codegen")
        sim.run(20)
        snap = sim.state()
        log_a = TransferLog(list(net.channels))
        sim.observers.append(log_a)
        sim.run(10)
        tail_a = {n: list(s) for n, s in log_a.streams.items()}
        sim.observers.remove(log_a)
        sim.load_state(snap)
        log_b = TransferLog(list(net.channels))
        sim.observers.append(log_b)
        sim.run(10)
        tail_b = {n: list(s) for n, s in log_b.streams.items()}
        # transfer *values* replay identically; cycle numbers differ by the
        # 10 extra wall cycles, so compare the value streams.
        strip = lambda streams: {n: [v for (_c, v) in s] for n, s in streams.items()}
        assert strip(tail_b) == strip(tail_a)


class TestEngineValidation:
    """Satellite: unknown engine names are rejected up front, everywhere,
    with the valid-choices list."""

    def test_simulator_rejects_unknown_engine(self):
        net = build_pipeline(["eb"], 0.0, 0, [1, 2])
        with pytest.raises(ValueError, match=r"unknown engine 'jit'"):
            Simulator(net, engine="jit")

    def test_simulator_error_lists_choices(self):
        net = build_pipeline(["eb"], 0.0, 0, [1, 2])
        with pytest.raises(ValueError) as err:
            Simulator(net, engine="jit")
        for name in ENGINES:
            assert name in str(err.value)

    def test_set_default_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match=r"unknown engine 'turbo'"):
            set_default_engine("turbo")
        # a failed set leaves the default untouched
        assert get_default_engine() in ENGINES

    def test_sweep_spec_rejects_unknown(self):
        from repro.perf.sweep import SweepSpec

        with pytest.raises(ValueError, match="unknown engine"):
            SweepSpec(name="s", factory="deep_pipeline", base={}, grid={},
                      cycles=10, engine="warp")

    def test_cli_rejects_unknown_engine(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["--engine", "warp", "profile", "--design", "fig1d"])
        assert err.value.code == 2

    def test_codegen_listed_everywhere(self):
        assert "codegen" in ENGINES


class TestStaleCodeSafety:
    """Satellite: a mutated design can never run stale compiled code —
    mirrors the PR 4 stale-structure guards."""

    def _net(self):
        return build_pipeline(["eb", "func"], 0.0, 3, list(range(8)))

    def test_unpatched_codegen_refuses_step(self):
        net = self._net()
        sim = Simulator(net, engine="codegen")
        insert_bubble(net, "c0")
        with pytest.raises(RuntimeError, match="structurally edited"):
            sim.step()

    def test_unpatched_codegen_refuses_step_with_choices(self):
        net = self._net()
        sim = Simulator(net, engine="codegen")
        insert_bubble(net, "c0")
        with pytest.raises(RuntimeError, match="structurally edited"):
            sim.step_with_choices({})

    def test_followed_edit_re_elaborates(self):
        """A follow_edits simulator re-elaborates on the next step and runs
        the *new* topology's code — matching a fresh build exactly."""
        net = self._net()
        sim = Simulator(net, engine="codegen", follow_edits=True)
        sim.run(5)
        insert_bubble(net, "c0")
        sim.reset()
        sim.run(40)
        got = net.nodes["snk"].values

        fresh_net = self._net()
        insert_bubble(fresh_net, "c0")
        fresh = Simulator(fresh_net, engine="codegen")
        fresh.run(40)
        assert got == fresh_net.nodes["snk"].values

        ref_net = self._net()
        insert_bubble(ref_net, "c0")
        Simulator(ref_net, engine="worklist").run(40)
        assert got == ref_net.nodes["snk"].values

    def test_followed_edit_bumps_re_elaborations(self):
        pysim.clear_module_cache()
        net = self._net()
        sim = Simulator(net, engine="codegen", follow_edits=True)
        sim.step()
        before = pysim.cache_stats()["re_elaborations"]
        insert_bubble(net, "c0")           # structural change -> new topology
        sim.step()
        assert pysim.cache_stats()["re_elaborations"] == before + 1

    def test_superseded_codegen_does_not_steal_ownership(self):
        """A stale codegen simulator must refuse to run once a newer
        simulator owns the channels, instead of silently re-elaborating
        over the newer simulator's change logs."""
        net = self._net()
        old = Simulator(net, engine="codegen", follow_edits=True)
        old.step()
        new = Simulator(net)               # worklist takes over the logs
        with pytest.raises(RuntimeError, match="newer Simulator"):
            old.step()
        new.run(3)                         # the newer simulator still works


class TestModuleCache:
    def test_same_topology_hits_cache(self):
        pysim.clear_module_cache()
        Simulator(self._pipe(0), engine="codegen").run(5)
        stats0 = pysim.cache_stats()
        assert stats0["re_elaborations"] == 1
        # same topology, different seed / values: pure cache hit
        Simulator(self._pipe(1), engine="codegen").run(5)
        stats1 = pysim.cache_stats()
        assert stats1["re_elaborations"] == 1
        assert stats1["hits"] == stats0["hits"] + 1

    def test_cache_evicts_least_recently_used(self):
        """The module cache is bounded: past ``_MODULE_CACHE_SIZE`` the
        least recently used module goes, and comes back byte-identical."""
        pysim.clear_module_cache()
        bound, extra = pysim._MODULE_CACHE_SIZE, 2
        nets = [build_pipeline(["eb"] * (n + 1), 0.0, 0, [1])
                for n in range(bound + extra)]
        first_source = pysim.generated_source(nets[0])
        evicted_source = pysim.generated_source(nets[1])
        for net in nets[2:bound]:
            pysim.generated_source(net)
        pysim.generated_source(nets[0])        # recently used: kept
        for net in nets[bound:]:
            pysim.generated_source(net)
        stats = pysim.cache_stats()
        assert stats["modules"] == bound
        assert stats["evictions"] == extra
        assert stats["re_elaborations"] == bound + extra
        assert pysim.generated_source(nets[0]) == first_source
        assert pysim.cache_stats()["re_elaborations"] == bound + extra
        assert pysim.generated_source(nets[1]) == evicted_source
        stats = pysim.cache_stats()
        assert stats["re_elaborations"] == bound + extra + 1
        assert stats["modules"] == bound
        assert stats["evictions"] == extra + 1
        pysim.clear_module_cache()
        assert pysim.cache_stats()["evictions"] == 0

    def test_different_flags_are_separate_modules(self):
        pysim.clear_module_cache()
        Simulator(self._pipe(0), engine="codegen").run(2)
        Simulator(self._pipe(0), engine="codegen", check_protocol=False).run(2)
        assert pysim.cache_stats()["modules"] == 2

    def test_generated_source_is_python(self):
        net = self._pipe(0)
        source = pysim.generated_source(net)
        compile(source, "<test>", "exec")  # must be valid Python
        assert "def build(env):" in source

    @pytest.mark.parametrize("make", [
        *(pytest.param(DESIGNS[name], id=name) for name in sorted(DESIGNS)),
        pytest.param(MC_DESIGNS["spec-nondet"], id="spec-nondet"),
    ])
    def test_scratch_locals_never_shadow_bindings(self, make):
        """The cycle function's bound defaults (``_sl`` is the stalls
        counter, ``_mp`` the monitor's history, ...) must never be
        reassigned by emitted scratch code."""
        import ast

        tree = ast.parse(pysim.generated_source(make()))
        cycle = next(node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "_cycle")
        bound = {arg.arg for arg in cycle.args.args[2:]}
        stored = {node.id for node in ast.walk(cycle)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)}
        assert bound and not bound & stored

    @staticmethod
    def _pipe(seed):
        return build_pipeline(["eb", "zbl"], 0.2, seed, list(range(10)))


class TestResidueWorklist:
    """The paper's speculative designs compile whole, never doing more
    comb() evaluations than the interpreted worklist engine.  A netlist
    that does not compile (here a comb-overriding mutant in a ZBL chain)
    gets no generated cycle at all: the codegen simulator runs the
    worklist engine's own cycle on it, and a follower switches back and
    forth as edits make its netlist compile or not.  Deterministic work
    counters, so a return to bounded re-sweeps fails without timing
    anything."""

    DESIGNS = ("fig1d", "fig6b", "fig7b")

    @staticmethod
    def _mutant_pipeline():
        from repro.chaos.mutants import BrokenKillBuffer
        from repro.elastic.buffers import ZeroBackwardLatencyBuffer

        net = Netlist("residue")
        net.add(ListSource("src", list(range(60))))
        net.add(ZeroBackwardLatencyBuffer("z0"))
        net.add(BrokenKillBuffer("bad"))
        net.add(ZeroBackwardLatencyBuffer("z1"))
        net.add(Sink("snk", stall_rate=0.4, seed=3))
        net.connect("src.o", "z0.i", name="c0")
        net.connect("z0.o", "bad.i", name="c1")
        net.connect("bad.o", "z1.i", name="c2")
        net.connect("z1.o", "snk.i", name="c3")
        return net

    @pytest.mark.parametrize("name", DESIGNS)
    def test_no_bounded_sweep_in_generated_source(self, name):
        source = pysim.generated_source(DESIGNS[name]())
        assert "_chg" not in source
        assert "for _ in range(" not in source
        assert "while _q:" not in source      # no residue at all

    def test_residue_is_a_worklist(self):
        """Only the mutant blocks compilation; the banner names it, no
        cycle function is generated, and the codegen simulator runs the
        worklist cycle: bit-identical, with the same work counters."""
        from dataclasses import replace

        net = self._mutant_pipeline()
        plan = pysim._build_plan(net)
        assert [plan.nodes[ni].name for ni in plan.deferred] == ["bad"]
        source = pysim.generated_source(net)
        assert "1 deferred" in source
        assert "deferred: bad" in source
        assert "_cycle" not in source
        assert_codegen_identical(self._mutant_pipeline, cycles=200)
        reports = {}
        for engine in ("worklist", "codegen"):
            sim = Simulator(self._mutant_pipeline(), engine=engine,
                            profile=True)
            sim.run(200)
            reports[engine] = sim.profile_report()
        assert replace(reports["codegen"], engine="worklist") == \
            reports["worklist"]

    def test_follower_switches_between_compiled_and_interpreted(self):
        """A codegen follower on fig6b takes a spliced comb-overriding
        buffer (the netlist stops compiling) and then its removal (it
        compiles again), matching a worklist follower and the dense-sweep
        reference after every phase."""
        from helpers import DenseSweepSimulator
        from repro.transform.base import splice_node, unsplice_node

        class OverridingBuffer(ElasticBuffer):
            def comb(self):
                super().comb()

        runs = {}
        for label, cls, engine in (("codegen", Simulator, "codegen"),
                                   ("worklist", Simulator, "worklist"),
                                   ("dense", DenseSweepSimulator, None)):
            net = DESIGNS["fig6b"]()
            log = TransferLog(list(net.channels))
            sim = cls(net, engine=engine, observers=[log], follow_edits=True)
            runs[label] = (sim, log)

        def phase(edit, compiled):
            seen = {}
            for label, (sim, log) in runs.items():
                edit(sim.netlist)
                sim.run(60)
                seen[label] = (log.streams, _stats_dict(sim),
                               sim.netlist.nodes["snk"].values)
            codegen = runs["codegen"][0]
            assert (codegen._cycle != codegen._interpreted_cycle) is compiled
            assert seen["codegen"] == seen["worklist"] == seen["dense"]

        phase(lambda net: None, compiled=True)
        phase(lambda net: splice_node(net, "fout0", OverridingBuffer("ovr")),
              compiled=False)
        phase(lambda net: unsplice_node(net, "ovr"), compiled=True)

    @pytest.mark.parametrize("name", DESIGNS)
    def test_work_counters_no_worse_than_worklist(self, name):
        self._assert_work_no_worse(lambda: DESIGNS[name]())

    def test_residue_work_counters_no_worse_than_worklist(self):
        self._assert_work_no_worse(self._mutant_pipeline)
        assert_codegen_identical(self._mutant_pipeline, cycles=200)

    @staticmethod
    def _assert_work_no_worse(make):
        reports = {}
        for engine in ("worklist", "codegen"):
            sim = Simulator(make(), engine=engine, profile=True)
            sim.run(200)
            reports[engine] = sim.profile_report()
        codegen, worklist = reports["codegen"], reports["worklist"]
        assert codegen.total_comb_calls <= worklist.total_comb_calls
        assert sum(codegen.evals_per_cycle) == codegen.total_comb_calls


def _sweep_topologies():
    """One netlist per distinct topology of the four sweep presets."""
    from repro.perf.presets import PRESET_SWEEPS
    from repro.runtime.supervisor import resolve_ref
    from repro.sim.sensitivity import topology_signature

    seen = {}
    for preset in ("fig1", "fig1-accuracy", "fig6", "fig7"):
        spec = PRESET_SWEEPS[preset]()
        factory = resolve_ref(spec.factory)
        for config in spec.expand():
            made = factory(**config.params)
            net = made[0] if isinstance(made, tuple) else made
            seen.setdefault(topology_signature(net), (config.name, net))
    return sorted(seen.values(), key=lambda item: item[0])


class TestNothingDeferred:
    """Every node of the paper's designs — the sweep grids, the canned
    designs and the model-checking compositions — has an emitter, so
    nothing runs interpreted under codegen."""

    def test_sweep_topologies(self):
        topologies = _sweep_topologies()
        assert len(topologies) >= 8
        for label, net in topologies:
            assert pysim._build_plan(net).deferred == [], label

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_designs(self, name):
        assert pysim._build_plan(DESIGNS[name]()).deferred == []

    @pytest.mark.parametrize("name", sorted(MC_DESIGNS))
    def test_mc_designs(self, name):
        assert pysim._build_plan(MC_DESIGNS[name]()).deferred == []


#: design -> SHA-256 prefixes of ``generated_source`` for the run entry
#: with and without the monitor and for the expansion entry (which has no
#: monitor), recorded before the count block was rendered once per rule
#: set: rendering it from a template must not change a byte
GENERATED_SOURCE_DIGESTS = {
    "design:fig1a": ("4bbd6adfc2a68978", "bc77d98629d89353",
                     "5bd9f87680b8ad05"),
    "design:fig1d": ("745056388890d322", "79217bc56fb98294",
                     "e033e1ff097330d5"),
    "design:fig6b": ("2cd6fffc0eda5433", "8125d36e8f4d96b8",
                     "4e0da11f4f73e16e"),
    "design:fig7b": ("74867b974f71c4c2", "395e3aada1c3dd10",
                     "526473415a6ac32b"),
    "mc:eb": ("d8921360fb01e736", "d1bb0c83c8aaee5a", "284a62c391f210fb"),
    "mc:spec-nondet": ("8ad9b0118a1fb771", "06f7196caaa8424a",
                       "9fd1f6a91bece49d"),
    "mc:spec-static": ("8ad9b0118a1fb771", "06f7196caaa8424a",
                       "9fd1f6a91bece49d"),
    "mc:spec-toggle": ("8ad9b0118a1fb771", "06f7196caaa8424a",
                       "9fd1f6a91bece49d"),
    "mc:zbl": ("497e9e17dfc81649", "5d5a3307c35548db", "7a9dd0865c8376fa"),
}


class TestGeneratedSourcePinned:
    def test_table_covers_every_design(self):
        assert sorted(GENERATED_SOURCE_DIGESTS) == sorted(
            [f"design:{name}" for name in DESIGNS]
            + [f"mc:{name}" for name in MC_DESIGNS])

    @pytest.mark.parametrize("label", sorted(GENERATED_SOURCE_DIGESTS))
    def test_source_unchanged(self, label):
        table, name = label.split(":")
        make = (DESIGNS if table == "design" else MC_DESIGNS)[name]
        sources = (pysim.generated_source(make(), check_protocol=True),
                   pysim.generated_source(make(), check_protocol=False),
                   pysim.generated_source(make(), entry="expand"))
        digests = tuple(hashlib.sha256(source.encode()).hexdigest()[:16]
                        for source in sources)
        assert digests == GENERATED_SOURCE_DIGESTS[label]


def _scheduler_cases():
    """(scheduler factory, channels, seed) for every Scheduler subclass at
    2 and 3 channels (the two-bit counter is two-channel only), two seeds
    each.  A factory takes the channel count and the select stream (the
    oracle predicts from it)."""
    from repro.core import scheduler as sch

    makers = {
        sch.StaticScheduler: lambda k, sels: sch.StaticScheduler(
            k, favourite=k - 1),
        sch.OracleScheduler: lambda k, sels: sch.OracleScheduler(
            lambda n: sels[n % len(sels)], k),
        sch.RandomScheduler: lambda k, sels: sch.RandomScheduler(k, seed=k),
    }
    cases = []
    for cls in sorted(sch.Scheduler.__subclasses__(), key=lambda c: c.__name__):
        make = makers.get(cls, lambda k, sels, cls=cls: cls(k))
        for k in (2, 3):
            if cls is sch.TwoBitScheduler and k != 2:
                continue
            for _ in range(2):
                seed = len(cases)
                cases.append(pytest.param(make, k, seed,
                                          id=f"{cls.__name__}-{k}-{seed}"))
    return cases


SCHEDULER_CASES = _scheduler_cases()


def build_speculative(make_scheduler, k, seed):
    """Seeded shared-module + early-evaluation-mux composition: ``k``
    sources through a shared unit, optional EB/ZBL stages on each mux
    input, a select stream (optionally through a variable-latency unit)
    and a killing or stalling sink behind an optional stage."""
    from repro.elastic.buffers import ZeroBackwardLatencyBuffer
    from repro.elastic.environment import KillerSink
    from repro.core.shared import SharedModule
    from repro.elastic.eemux import EarlyEvalMux
    from repro.elastic.varlat import VariableLatencyUnit

    rng = random.Random(seed)
    n_tok = 60
    sels = [rng.randrange(k) for _ in range(n_tok)]

    def stage(name, kind):
        if kind == "eb":
            return net.add(ElasticBuffer(name))
        if kind == "zbl":
            return net.add(ZeroBackwardLatencyBuffer(name))
        return net.add(VariableLatencyUnit(name, lambda v: v,
                                           lambda v: v % 3 == 0))

    def chain(src, dst, name, kind):
        if kind == "none":
            net.connect(src, dst, name=name)
        else:
            stage(f"{name}_st", kind)
            net.connect(src, f"{name}_st.i", name=f"{name}_a")
            net.connect(f"{name}_st.o", dst, name=name)

    net = Netlist("specfuzz")
    for j in range(k):
        net.add(ListSource(f"src{j}", [j * 1000 + t for t in range(n_tok)],
                           rate=rng.choice((1.0, 0.6)), seed=seed + j))
    net.add(ListSource("sel", sels,
                       rate=rng.choice((1.0, 0.7)), seed=seed + 50))
    net.add(SharedModule("sh", lambda v: v + 1, make_scheduler(k, sels),
                         n_channels=k))
    net.add(EarlyEvalMux("mux", n_inputs=k, max_kills=rng.choice((1, 2, 4))))
    if rng.random() < 0.6:
        net.add(KillerSink("snk", kill_rate=rng.choice((0.2, 0.5)),
                           stall_rate=rng.choice((0.0, 0.3)), seed=seed))
    else:
        net.add(Sink("snk", stall_rate=rng.choice((0.2, 0.5)), seed=seed))
    for j in range(k):
        net.connect(f"src{j}.o", f"sh.i{j}", name=f"fin{j}")
        chain(f"sh.o{j}", f"mux.i{j}", f"fout{j}",
              rng.choice(("none", "eb", "zbl")))
    chain("sel.o", "mux.s", "cs", rng.choice(("none", "eb", "varlat")))
    chain("mux.o", "snk.i", "out", rng.choice(("none", "eb", "zbl", "varlat")))
    net.validate()
    return net


class TestSpeculationKinds:
    """Seeded fuzz of the early-evaluation mux, shared module and
    variable-latency emitters: every scheduler, 2 and 3 channels, killing
    and stalling downstreams — compiled with nothing deferred and
    bit-identical to the worklist engine."""

    @pytest.mark.parametrize("make_scheduler,k,seed", SCHEDULER_CASES)
    def test_bit_identical(self, make_scheduler, k, seed):
        def make():
            return build_speculative(make_scheduler, k, seed)

        assert pysim._build_plan(make()).deferred == []
        assert_codegen_identical(make, cycles=250)

    def test_corpus_reaches_output_kills(self):
        """The corpus drives the mux's own kill counter, up to saturation
        (``o.sm`` raised at ``max_kills``) — so the fuzz above covers the
        ``_pko > 0`` branches of the compiled mux."""
        pending = saturated = 0
        for param in SCHEDULER_CASES:
            net = build_speculative(*param.values)
            mux = net.nodes["mux"]
            sim = Simulator(net, engine="codegen")
            for _ in range(250):
                sim.step()
                pending += mux._pko > 0
                saturated += mux._pko >= mux.max_kills
        assert pending > 0
        assert saturated > 0


class TestExplorerParity:
    """The model checker on codegen explores exactly the worklist engine's
    state graph over every model-checking composition."""

    @pytest.mark.parametrize("name", sorted(MC_DESIGNS))
    def test_same_state_graph(self, name):
        from repro.verif.explore import StateExplorer

        results = {engine: StateExplorer(MC_DESIGNS[name](),
                                         engine=engine).explore()
                   for engine in ("worklist", "codegen")}
        codegen, worklist = results["codegen"], results["worklist"]
        assert codegen.states == worklist.states
        assert codegen.transitions == worklist.transitions
        assert codegen.violations == worklist.violations
        assert codegen.complete == worklist.complete


class TestSchedulerFeedbackParity:
    """The compiled shared-module tick builds the scheduler's feedback
    from locals: under every scheduler class, the grant and misprediction
    counts and the scheduler's registered slots match the worklist
    engine's after every cycle."""

    @pytest.mark.parametrize("make_scheduler,k,seed", SCHEDULER_CASES)
    def test_lockstep(self, make_scheduler, k, seed):
        sims = [Simulator(build_speculative(make_scheduler, k, seed),
                          engine=engine) for engine in ("worklist", "codegen")]
        for _ in range(250):
            seen = []
            for sim in sims:
                sim.step()
                sh = sim.netlist.nodes["sh"]
                seen.append((sh.grants, sh.mispredicts,
                             sh.scheduler.snapshot()))
            assert seen[0] == seen[1]
        grants, mispredicts, _ = seen[0]
        assert grants + mispredicts > 0


class TestEemuxKillOverflow:
    """A mux whose pending-kill counter is already at ``max_kills`` on an
    input whose producer cannot take the anti-token overflows when it
    fires again: both engines raise the same error, at the same cycle."""

    @staticmethod
    def _net():
        from repro.elastic.eemux import EarlyEvalMux

        net = Netlist("overflow")
        net.add(ListSource("sel", [0] * 10))
        net.add(ListSource("a", list(range(10))))
        net.add(ListSource("b", []))
        # a full anti-token store keeps the mux's kill on i1 stalled (sm)
        net.add(ElasticBuffer("eb", init_anti=1, anti_capacity=1))
        net.add(EarlyEvalMux("mux", n_inputs=2, max_kills=2))
        net.add(Sink("snk"))
        net.connect("sel.o", "mux.s", name="s")
        net.connect("a.o", "mux.i0", name="i0")
        net.connect("b.o", "eb.i", name="b")
        net.connect("eb.o", "mux.i1", name="i1")
        net.connect("mux.o", "snk.i", name="out")
        return net

    def test_same_error(self):
        raised = {}
        for engine in ("worklist", "codegen"):
            net = self._net()
            sim = Simulator(net, engine=engine)
            assert (sim._cycle != sim._interpreted_cycle) is (
                engine == "codegen")
            net.nodes["mux"]._kills = (0, 2)
            with pytest.raises(AssertionError) as err:
                sim.run(10)
            raised[engine] = (str(err.value), sim.cycle)
        assert raised["codegen"] == raised["worklist"]
        assert raised["worklist"][0] == \
            "EarlyEvalMux mux: kill counter out of range"


class TestVariableLatencyCounters:
    """The compiled variable-latency tick (station countdown, ``err_fn``
    then ``fn``, the op counters) matches the worklist engine on every
    fig6 grid point that has the stalling unit."""

    def test_fig6_grid_points(self):
        from repro.elastic.varlat import VariableLatencyUnit
        from repro.perf.presets import PRESET_SWEEPS
        from repro.runtime.supervisor import resolve_ref

        spec = PRESET_SWEEPS["fig6"]()
        factory = resolve_ref(spec.factory)
        points = slow = 0
        for config in spec.expand():
            counters = {}
            for engine in ("worklist", "codegen"):
                made = factory(**config.params)
                net = made[0] if isinstance(made, tuple) else made
                units = {name: node for name, node in net.nodes.items()
                         if isinstance(node, VariableLatencyUnit)}
                Simulator(net, engine=engine).run(300)
                counters[engine] = {
                    name: (unit.total_ops, unit.slow_ops, unit._station)
                    for name, unit in units.items()}
            assert counters["codegen"] == counters["worklist"], config.name
            for total, slow_ops, _ in counters["worklist"].values():
                points += 1
                slow += slow_ops > 0 and total > slow_ops
        assert points >= 12
        assert slow > 0


#: a compiled cycle that calls back into a node's interpreted tick
_INTERPRETED_TICK = re.compile(r"_nodes\[(\d+)\]\.tick")


class TestCompiledTicks:
    """Every tick of the paper's designs is inlined: no generated module
    binds a node's ``tick``.  A subclass overriding only ``tick`` still
    compiles (trust by definer), calling its own ``tick``."""

    @pytest.mark.parametrize("make", [
        *(pytest.param(DESIGNS[name], id=name) for name in sorted(DESIGNS)),
        *(pytest.param(MC_DESIGNS[name], id=f"mc-{name}")
          for name in sorted(MC_DESIGNS)),
    ])
    def test_designs_bind_no_tick(self, make):
        source = pysim.generated_source(make())
        assert "0 deferred" in source
        assert not _INTERPRETED_TICK.search(source)

    def test_sweep_topologies_bind_no_tick(self):
        for label, net in _sweep_topologies():
            assert not _INTERPRETED_TICK.search(
                pysim.generated_source(net)), label

    def test_tick_override_compiles_with_own_tick(self):
        from repro.core.scheduler import ToggleScheduler
        from repro.core.shared import SharedModule
        from repro.elastic.eemux import EarlyEvalMux
        from repro.elastic.varlat import VariableLatencyUnit

        def counted(cls):
            class Counted(cls):
                def tick(self):
                    self.ticks = getattr(self, "ticks", 0) + 1
                    super().tick()
            Counted.__name__ = f"Counted{cls.__name__}"
            return Counted

        def make():
            net = Netlist("ticks")
            net.add(ListSource("src0", list(range(40)), rate=0.7, seed=1))
            net.add(ListSource("src1", list(range(100, 140))))
            net.add(ListSource("sel", [t % 2 for t in range(40)]))
            net.add(counted(SharedModule)("sh", lambda v: v + 1,
                                          ToggleScheduler(2)))
            net.add(counted(VariableLatencyUnit)(
                "vl", lambda v: v, lambda v: v == 1))
            net.add(counted(EarlyEvalMux)("mux", n_inputs=2))
            net.add(Sink("snk", stall_rate=0.2, seed=4))
            net.connect("src0.o", "sh.i0", name="fin0")
            net.connect("src1.o", "sh.i1", name="fin1")
            net.connect("sh.o0", "mux.i0", name="fout0")
            net.connect("sh.o1", "mux.i1", name="fout1")
            net.connect("sel.o", "vl.i", name="cs_a")
            net.connect("vl.o", "mux.s", name="cs")
            net.connect("mux.o", "snk.i", name="out")
            return net

        net = make()
        plan = pysim._build_plan(net)
        assert plan.deferred == []
        bound = {plan.nodes[int(ni)].name for ni in
                 _INTERPRETED_TICK.findall(pysim.generated_source(net))}
        assert bound == {"sh", "vl", "mux"}
        assert_codegen_identical(make, cycles=150)
        sim = Simulator(net, engine="codegen")
        sim.run(25)
        assert net.nodes["snk"].values
        assert [net.nodes[name].ticks for name in ("sh", "vl", "mux")] \
            == [25] * 3


class TestPlainStepBuildsNoEvents:
    """No step resolves channel events on either engine: a plain step's
    statistics count from the signals, and a model-checking step returns
    them packed, so only an explicit ``events()`` call builds them."""

    @staticmethod
    def _count_events(monkeypatch):
        from repro.elastic.channel import ChannelEvents

        built = []
        original = ChannelEvents.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ChannelEvents, "__init__", counting)
        return built

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_run_builds_none(self, monkeypatch, name, engine):
        net = DESIGNS[name]()
        sim = Simulator(net, engine=engine)
        built = self._count_events(monkeypatch)
        sim.run(200)
        assert built == []
        assert sum(sim.stats.transfers.values()) > 0
        # the counter sees the events an observer resolves
        net = DESIGNS[name]()
        Simulator(net, engine=engine,
                  observers=[TransferLog(list(net.channels))]).run(50)
        assert built

    @pytest.mark.parametrize("engine", ENGINES)
    def test_exploration_builds_none(self, monkeypatch, engine):
        """Full explorations of every model-checking design and of one
        stall-chaos wrap, deadlock and leads-to analyses included."""
        from repro.chaos import ChaosPlan, wrap
        from repro.verif.deadlock import find_deadlocks
        from repro.verif.explore import StateExplorer
        from repro.verif.leads_to import check_leads_to

        built = self._count_events(monkeypatch)
        states = 0
        for name in sorted(MC_DESIGNS):
            result = StateExplorer(MC_DESIGNS[name](), max_states=60000,
                                   engine=engine).explore()
            assert result.complete and not result.violations
            find_deadlocks(result)
            if name.startswith("spec-"):
                check_leads_to(result, "fin0", "fout0")
            states += result.n_states
        net = DESIGNS["fig1d"]()
        wrap(net, ChaosPlan.seeded(5, sorted(net.channels), kinds=("stall",),
                                   coverage=0.3, budget=2), nondet=True)
        result = StateExplorer(net, max_states=400, engine=engine).explore()
        find_deadlocks(result)
        states += result.n_states
        assert built == []
        assert states > 1000


# ---------------------------------------------------------------------------
# compiled multi-cycle runs: run(n) is n steps


def _leaves(sim):
    """Everything a run leaves observable: cycle counter, statistics,
    channel states and the events they resolve to, monitor history and
    violations, and every node's sequential state."""
    net = sim.netlist
    events = {}
    for name, channel in net.channels.items():
        try:
            events[name] = channel.events()
        except Exception as exc:        # an unresolved channel
            events[name] = type(exc).__name__
    monitor = sim.monitor
    return {
        "cycle": sim.cycle,
        "stats": {key: value if key == "cycles" else dict(value)
                  for key, value in _stats_dict(sim).items()},
        "states": {name: (ch.state.vp, ch.state.sp, ch.state.vm,
                          ch.state.sm, ch.state.data)
                   for name, ch in net.channels.items()},
        "events": events,
        "history": None if monitor is None else list(monitor._prev),
        "violations": None if monitor is None else [
            str(err) for err in monitor.violations],
        "nodes": net.snapshot(),
    }


def _drive(sim, plan):
    """Run ``plan``: ``("run", n)`` / ``("steps", n)`` entries, or
    callables applied to the simulator between them; returns the
    exception raised (type, message, channel, cycle), if any."""
    try:
        for entry in plan:
            if callable(entry):
                entry(sim)
            elif entry[0] == "run":
                sim.run(entry[1])
            else:
                for _ in range(entry[1]):
                    sim.step()
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "channel", None),
                getattr(exc, "cycle", None))
    return None


def assert_run_is_steps(make, plan, check_protocol=True, worklist=True,
                        follow_edits=False, prepare=None, compiled=True):
    """``make()`` driven by ``plan`` (as :func:`_drive`) on the codegen
    engine, once with every ``("run", n)`` a compiled multi-cycle run
    (unless ``compiled`` is false: the netlist does not compile) and once
    with it replaced by ``n`` steps, must leave identical :func:`_leaves`
    and raise the same exception; with ``worklist``, the worklist engine
    must agree too.  Returns the exception, if any."""
    outcomes = {}
    stepped = [("steps", e[1]) if not callable(e) and e[0] == "run" else e
               for e in plan]
    runs = [("codegen-run", "codegen", plan), ("codegen-steps", "codegen",
                                                stepped)]
    if worklist:
        runs.append(("worklist", "worklist", plan))
    for label, engine, todo in runs:
        net = make()
        sim = Simulator(net, engine=engine, check_protocol=check_protocol,
                        follow_edits=follow_edits)
        if prepare is not None:
            prepare(sim)
        outcomes[label] = (_drive(sim, todo), _leaves(sim))
        if engine == "codegen":
            # the run entry is elaborated at the first step or run
            assert sim._runs_compiled is compiled
    assert outcomes["codegen-run"] == outcomes["codegen-steps"]
    if worklist:
        assert outcomes["worklist"] == outcomes["codegen-run"]
    return outcomes["codegen-run"][0]


#: one long run, then short ones around the entry and exit work (n=0
#: included)
_CHUNKS = [("run", 0), ("run", 1), ("run", 7), ("run", 0), ("run", 150),
           ("run", 2)]


class TestRunIsSteps:
    """``Simulator.run(n)`` on a compiled netlist is one call of the
    generated cycle function looping ``n`` cycles; it must be
    indistinguishable from ``n`` calls of ``step()`` (and from the
    worklist engine) in everything a run leaves behind."""

    @pytest.mark.parametrize("check_protocol", [True, False])
    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_designs(self, name, check_protocol):
        assert_run_is_steps(DESIGNS[name], _CHUNKS,
                            check_protocol=check_protocol)

    @pytest.mark.parametrize("seed", range(N_RANDOM_NETLISTS))
    def test_fuzz_corpus(self, seed):
        stages, stall, kill = _random_pipeline_params(seed)
        assert_run_is_steps(
            lambda: build_pipeline(stages, stall, seed, list(range(25)),
                                   kill=kill), _CHUNKS)

    @pytest.mark.parametrize("seed", range(8))
    def test_chaos_wrapped(self, seed):
        from repro.chaos import ChaosPlan, wrap

        stages, stall, kill = _random_pipeline_params(seed)

        def make():
            net = build_pipeline(stages, stall, seed, list(range(25)),
                                 kill=kill)
            wrap(net, ChaosPlan.seeded(seed, list(net.channels),
                                       kinds=("stall", "bubble", "corrupt"),
                                       coverage=0.6))
            return net

        assert_run_is_steps(make, _CHUNKS)

    def test_empty_netlist(self):
        assert_run_is_steps(lambda: Netlist("empty"), _CHUNKS)

    def test_reset_between_runs(self):
        assert_run_is_steps(DESIGNS["fig1d"], [
            ("run", 60), lambda sim: sim.reset(), ("run", 45),
            lambda sim: sim.reset(), ("run", 0), ("run", 3)])

    def test_observers_attached_between_runs(self):
        logs = []

        def attach(sim):
            logs.append(TransferLog(list(sim.netlist.channels)))
            sim.observers.append(logs[-1])

        def detach(sim):
            sim.observers.clear()

        assert_run_is_steps(DESIGNS["fig6b"], [
            ("run", 40), attach, ("run", 30), detach, ("run", 30), attach,
            ("run", 5)])
        # two logs per simulator: codegen run, codegen steps, worklist
        streams = [log.streams for log in logs]
        for same in (streams[0::2], streams[1::2]):
            assert same[0] == same[1] == same[2]
            assert any(same[0].values())

    def test_followed_edit_between_runs(self):
        def edit(sim):
            insert_bubble(sim.netlist, "c1")

        stages = ["eb", "func", "zbl", "eb"]
        assert_run_is_steps(
            lambda: build_pipeline(stages, 0.3, 3, list(range(40))),
            [("run", 25), edit, ("run", 40), edit, ("run", 1)],
            follow_edits=True)


class WithdrawingListSource(ListSource):
    """Protocol mutant: at its ``at``-th cycle it withdraws the token it
    offers, stalled or not (Retry+)."""

    kind = "mutant_withdraw"
    state_slots = {**ListSource.state_slots, "_age": 0}

    def __init__(self, name, values, at):
        self.at = at
        super().__init__(name, values)

    def pre_cycle(self):
        super().pre_cycle()
        if self._age == self.at:
            self._offering = False
        self._age += 1


def _withdrawing_net():
    net = Netlist("withdraw")
    net.add(WithdrawingListSource("src", list(range(9)), at=6))
    net.add(ElasticBuffer("eb"))
    net.add(Sink("snk", stall_rate=1.0))
    net.connect("src.o", "eb.i", name="in")
    net.connect("eb.o", "snk.i", name="out")
    return net


def _data_changing_net():
    """A function block whose ``fn`` returns a new value at every call:
    its stalled output token changes data (Retry+).  Both engines call a
    compiled ``fn`` once per cycle only on codegen, so compare codegen
    runs with codegen steps."""
    from itertools import count

    calls = count(100)
    net = Netlist("data_change")
    net.add(ListSource("src", list(range(9))))
    net.add(Func("f", lambda x: x + next(calls), n_inputs=1))
    net.add(Sink("snk", stall_rate=0.5, seed=4))
    net.connect("src.o", "f.i0", name="in")
    net.connect("f.o", "snk.i", name="out")
    return net


def _broken_kill_net():
    from repro.chaos.mutants import BrokenKillBuffer
    from repro.elastic.environment import KillerSink

    net = Netlist("broken_kill")
    net.add(ListSource("src", list(range(30))))
    net.add(BrokenKillBuffer("buf"))
    net.add(KillerSink("snk", kill_rate=0.2, stall_rate=0.3, seed=5))
    net.connect("src.o", "buf.i", name="in")
    net.connect("buf.o", "snk.i", name="out")
    return net


class TestRunIsStepsOnFailure:
    """A cycle that raises mid-run leaves what the same cycle leaves when
    stepped: the message, channel and cycle of the error, statistics
    through the previous cycle, the same channel states and history."""

    def test_broken_kill_buffer(self):
        # its own comb: the netlist runs interpreted under codegen
        raised = assert_run_is_steps(_broken_kill_net, [("run", 60)],
                                     compiled=False)
        assert raised[0] == "ProtocolViolationError" and raised[3] > 0

    def test_stalled_token_withdrawn(self):
        raised = assert_run_is_steps(_withdrawing_net, [("run", 40)])
        assert raised[:4] == ("ProtocolViolationError", raised[1], "in", 6)
        assert "stalled token withdrawn" in raised[1]

    def test_stalled_token_changes_data(self):
        raised = assert_run_is_steps(_data_changing_net, [("run", 40)],
                                     worklist=False)
        assert raised[0] == "ProtocolViolationError"
        assert "stalled token changed data" in raised[1] and raised[3] > 0

    def test_scheduler_error(self):
        from itertools import count

        def make():
            calls = count()
            return patterns.fig1d(
                lambda g: 7 if next(calls) == 40 else g & 1)[0]

        raised = assert_run_is_steps(make, [("run", 5), ("run", 80)],
                                     worklist=False)
        assert raised[0] == "SchedulerError" and "out of range" in raised[1]

    def test_unknown_select_data_diagnosis(self):
        """The select goes unknown mid-run: the diagnosis leaves the
        signals its interpreted re-run settled, as on worklist."""
        raised = assert_run_is_steps(
            lambda: patterns.fig1d(lambda g: None if g >= 20 else g & 1)[0],
            [("run", 80)])
        assert raised[0] == "CombinationalLoopError" and raised[3] > 0

    def test_unknown_data_diagnosis(self):
        """A token offered without data mid-run: the diagnosis leaves the
        flushed signals, as on worklist."""
        def make():
            net = build_pipeline(["eb", "eb"], 0.2, 1, list(range(40)))
            net.add(Func("f", lambda x: None if x >= 12 else x, n_inputs=1))
            net.disconnect("c1")
            net.connect("n0.o", "f.i0", name="c1")
            net.connect("f.o", "n1.i", name="c1b")
            return net

        raised = assert_run_is_steps(make, [("run", 60)])
        assert raised[:2] == ("CombinationalLoopError", raised[1])
        assert "c1b.data" in raised[1] and raised[3] > 0

    def test_tick_assertion(self):
        def prepare(sim):
            sim.netlist.nodes["mux"]._kills = (0, 2)

        raised = assert_run_is_steps(TestEemuxKillOverflow._net,
                                     [("run", 10)], prepare=prepare,
                                     worklist=False)
        assert raised[:2] == ("AssertionError",
                              "EarlyEvalMux mux: kill counter out of range")


class FickleKiller(NondetSink):
    """Protocol mutant: a killing sink that withdraws its anti-token after
    one cycle, stalled or not (Retry-)."""

    kind = "mutant_fickle_kill"

    def tick(self):
        if self._killing:
            self._killing = False
            self._choice = 0
        else:
            super().tick()


def _fickle_net(nondet=False):
    """The mutant kills on a shared-module output (exempt from Retry+
    only) whose anti-token the empty, anti-token-less buffer upstream
    stalls.  The output channel comes first, so its violation is the one
    reported."""
    from repro.core.scheduler import StaticScheduler
    from repro.core.shared import SharedModule
    from repro.elastic.environment import NondetSource

    net = Netlist("fickle")
    net.add(NondetSource("s0") if nondet else ListSource("s0", []))
    net.add(ListSource("s1", [1, 2, 3]))
    net.add(ElasticBuffer("eb0", anti_capacity=0))
    net.add(ElasticBuffer("eb1"))
    net.add(SharedModule("sh", lambda x: x,
                         StaticScheduler(2, favourite=1)))
    net.add(FickleKiller("k0", can_kill=True))
    net.add(Sink("k1"))
    net.connect("sh.o0", "k0.i", name="out")
    net.connect("s0.o", "eb0.i", name="in0")
    net.connect("eb0.o", "sh.i0", name="mid0")
    net.connect("s1.o", "eb1.i", name="in1")
    net.connect("eb1.o", "sh.i1", name="mid1")
    net.connect("sh.o1", "k1.i", name="out1")
    return net


class TestRetryMinusEverywhere:
    """Section 4.2 exempts shared-module outputs (and the combinational
    cone behind them) from Retry+ only: a stalled anti-token must persist
    on every channel, in simulation as in exploration."""

    def test_exempt_from_retry_plus_only(self):
        from repro.verif.properties import retry_exempt_channels

        assert "out" in retry_exempt_channels(_fickle_net())

    def test_both_engines_flag_the_withdrawal(self):
        def prepare(sim):
            sim.netlist.nodes["k0"]._choice = 2     # kill at cycle 0

        raised = assert_run_is_steps(_fickle_net, [("run", 5)],
                                     prepare=prepare)
        assert raised == (
            "ProtocolViolationError",
            "protocol property Retry- violated on channel 'out' at cycle "
            "1: stalled anti-token withdrawn", "out", 1)

    def test_explorer_flags_the_withdrawal(self):
        from repro.verif.explore import StateExplorer

        result = StateExplorer(_fickle_net(nondet=True),
                               max_states=300).explore()
        assert any(v.endswith("out: stalled anti-token withdrawn (Retry-)")
                   for v in result.violations)


#: generated_source() lengths (check_protocol=True) before compiled
#: multi-cycle runs: the multi-cycle module must be no larger.
_SOURCE_CEILINGS = {"fig1a": 21339, "fig1d": 22499, "fig6b": 29187,
                    "fig7b": 29142}


class TestMultiCycleModule:
    @pytest.mark.parametrize("name", sorted(_SOURCE_CEILINGS))
    def test_no_larger_than_per_cycle_module(self, name):
        source = pysim.generated_source(DESIGNS[name]())
        assert len(source) <= _SOURCE_CEILINGS[name]
        # the wording lives in ProtocolMonitor only
        assert "_mf(" not in source and "Retry" not in source

    def test_interpreted_tick_flushes_every_cycle(self):
        """A tick the module calls reads the channel states, so a run
        flushes them every cycle, and still equals as many steps."""
        class OwnTickBuffer(ElasticBuffer):
            def tick(self):
                assert self.st("o").vp is not None     # flushed
                super().tick()

        def make():
            net = build_pipeline(["eb"], 0.3, 1, list(range(20)))
            net.add(OwnTickBuffer("extra"))
            net.disconnect("c0")
            net.connect("src.o", "extra.i", name="c0")
            net.connect("extra.o", "n0.i", name="c0b")
            return net

        assert "if True:" in pysim.generated_source(make())
        assert_run_is_steps(make, _CHUNKS)
