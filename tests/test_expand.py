"""Compiled state expansion: ``Simulator.expand`` is one call per state.

The explorer expands each state with one :meth:`Simulator.expand`, which
on codegen is one call of the generated expansion entry
(``repro.backend.pysim``, entry ``"expand"``): it restores the state
before every choice vector but the first, sets the choices, runs the cycle
body without statistics, packs the signals and snapshots the successor,
and flushes the channel states once, after the last vector.  These tests
pin it to the per-vector reference it replaces — a restore, one
:meth:`Simulator.step_with_choices` and a snapshot per vector, with the
vectors enumerated as the explorer used to — on both engines, and count
the work: one compiled call per explored state, and each entry compiled
only where it is used.
"""

import itertools
from collections import Counter, deque
from itertools import count

import pytest

from repro.backend import pysim
from repro.chaos.mutants import BrokenKillBuffer
from repro.core.scheduler import ToggleScheduler
from repro.core.shared import SharedModule
from repro.designs import DESIGNS, MC_DESIGNS
from repro.elastic.environment import NondetSink, NondetSource
from repro.elastic.functional import Func
from repro.elastic.node import Node
from repro.errors import CombinationalLoopError
from repro.netlist import patterns
from repro.netlist.graph import Netlist
from repro.sim.engine import ENGINES, Simulator
from repro.verif.explore import StateExplorer

from test_codegen_diff import _CHUNKS, _fickle_net, assert_run_is_steps
from test_explore_diff import N_FUZZ_COMBOS, _fuzz_combo, build_mc_pipeline
from test_packed_signals import CHAOS_WRAPS, stall_wrapped


def reference_vectors(net):
    """The choice dicts valid in ``net``'s current state, in the order the
    explorer enumerated them before expansion was compiled."""
    nodes = [node for node in net.nodes.values()
             if type(node).choice_space is not Node.choice_space
             and node.choice_space() > 1]
    names = [node.name for node in nodes]
    spaces = [range(node.choice_space()) for node in nodes]
    return [dict(zip(names, combo)) for combo in itertools.product(*spaces)]


def stepped(sim, snapshot):
    """The reference expansion: restore, step and snapshot per vector."""
    net = sim.netlist
    net.restore(snapshot)
    out = []
    for choices in reference_vectors(net):
        net.restore(snapshot)
        out.append((choices, sim.step_with_choices(choices), net.snapshot()))
    return out


def outcome(sim, thunk):
    """``thunk()``'s value or exception (type, message, cycle), and what
    it leaves: cycle counter, channel states, node state, monitor
    history."""
    value = raised = None
    try:
        value = thunk()
    except Exception as exc:
        raised = (type(exc).__name__, str(exc), getattr(exc, "cycle", None))
    net = sim.netlist
    states = {name: (ch.state.vp, ch.state.sp, ch.state.vm, ch.state.sm,
                     ch.state.data) for name, ch in net.channels.items()}
    history = None if sim.monitor is None else list(sim.monitor._prev)
    return value, raised, sim.cycle, states, net.snapshot(), history


def assert_expand_is_steps(make, engine, check_protocol=False,
                           max_states=150):
    """Breadth-first over ``make()``'s states (at most ``max_states``):
    ``expand`` on one simulator must equal :func:`stepped` on another, in
    its triples and in everything it leaves, raising or not.  A codegen
    expansion must also equal :func:`stepped` on the worklist engine
    (whose choice steps share no code with the compiled entry): all of it
    when no cycle raises, else the error, cycle counter and node state (a
    compiled cycle that raises leaves its channels unresolved).  Returns
    the number of states expanded and, per expansion that raised, the
    index of the vector whose cycle raised."""
    engines = (engine, engine) + (("worklist",) if engine == "codegen"
                                  else ())
    sims = [Simulator(make(), check_protocol=check_protocol, engine=e)
            for e in engines]
    fast, ref = sims[:2]
    initial = fast.netlist.snapshot()
    assert all(sim.netlist.snapshot() == initial for sim in sims)
    seen, queue = {initial}, deque([initial])
    expanded, raised = 0, []
    while queue and expanded < max_states:
        snapshot = queue.popleft()
        start = fast.cycle
        got = outcome(fast, lambda: fast.expand(snapshot))
        assert got == outcome(ref, lambda: stepped(ref, snapshot))
        for other in sims[2:]:
            want = outcome(other, lambda: stepped(other, snapshot))
            if got[1] is None:
                assert got == want
            else:
                assert got[1:3] + got[4:5] == want[1:3] + want[4:5]
        expanded += 1
        if got[1] is not None:
            raised.append(fast.cycle - start)
            continue
        assert got[0]
        for _choices, _packed, successor in got[0]:
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return expanded, raised


def assert_monitor_ignored(make, engine, max_states=150):
    """Breadth-first over ``make()``'s states: ``expand`` on a monitored
    simulator equals ``expand`` on an unmonitored one (triples, error,
    cycle counter, channel and node state) and leaves the monitor's
    history and violations untouched.  Returns as
    :func:`assert_expand_is_steps` does."""
    monitored = Simulator(make(), engine=engine)
    plain = Simulator(make(), check_protocol=False, engine=engine)
    blank = list(monitored.monitor._prev)
    initial = plain.netlist.snapshot()
    seen, queue = {initial}, deque([initial])
    expanded, raised = 0, []
    while queue and expanded < max_states:
        snapshot = queue.popleft()
        start = plain.cycle
        got = outcome(monitored, lambda: monitored.expand(snapshot))
        want = outcome(plain, lambda: plain.expand(snapshot))
        assert got[:5] == want[:5]
        assert got[5] == blank and monitored.monitor.violations == []
        expanded += 1
        if got[1] is not None:
            raised.append(plain.cycle - start)
            continue
        for _choices, _packed, successor in got[0]:
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return expanded, raised


def cases():
    out = [pytest.param(MC_DESIGNS[name], id=name)
           for name in sorted(MC_DESIGNS)]
    for seed in range(N_FUZZ_COMBOS):
        stages, can_kill, _lanes, _cap = _fuzz_combo(seed)
        out.append(pytest.param(
            lambda s=stages, k=can_kill: build_mc_pipeline(s, k),
            id=f"fuzz{seed}"))
    out += [pytest.param(lambda d=design: stall_wrapped(d),
                         id=f"chaos-{design}")
            for design, _cap in CHAOS_WRAPS]
    return out


class TestExpandIsSteps:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("make", cases())
    def test_expand_equals_steps(self, make, engine):
        expanded, raised = assert_expand_is_steps(make, engine)
        assert expanded > 1 and raised == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_monitored_simulator(self, engine):
        """The monitor checks linear runs only: a monitored simulator
        expands as an unmonitored one does."""
        assert_monitor_ignored(MC_DESIGNS["spec-nondet"], engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sibling_branches_share_no_history(self, engine):
        """A stalled select token on one branch is no Retry+ obligation
        on its sibling: monitored expansion of the speculative
        composition raises nothing (it used to report ``cs`` changing
        data 0 -> 1 at cycle 4)."""
        expanded, raised = assert_monitor_ignored(MC_DESIGNS["spec-toggle"],
                                                  engine)
        assert expanded > 4 and raised == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cycle_advances_per_vector(self, engine):
        sim = Simulator(MC_DESIGNS["spec-toggle"](), check_protocol=False,
                        engine=engine)
        want = reference_vectors(sim.netlist)
        triples = sim.expand(sim.netlist.snapshot())
        assert sim.cycle == len(triples) == len(want) > 1
        assert [c for c, _, _ in triples] == want


class ProbingSource(NondetSource):
    """A nondet source that checks, whenever it is given a choice, that
    its choice space is above 1 (the only choosers a step may set)."""

    def set_choice(self, choice):
        assert self.choice_space() > 1, (self.name, choice)
        super().set_choice(choice)


def _probing_net(probes):
    """Source -> function block -> sink, where the block's ``fn`` asks for
    its own output channel's events and records whether that raised: a
    cycle's channels are unresolved while it runs, on both engines."""
    net = Netlist("probe")

    def fn(x):
        try:
            net.channels["out"].events()
        except Exception:
            probes.append(True)
        else:
            probes.append(False)
        return x

    net.add(ProbingSource("src"))
    net.add(Func("f", fn, n_inputs=1))
    net.add(NondetSink("snk", can_kill=True))
    net.connect("src.o", "f.i0", name="in")
    net.connect("f.o", "snk.i", name="out")
    return net


class TestChoicesAndChannels:
    @pytest.mark.parametrize("check_protocol", [False, True])
    def test_unresolved_inside_every_vector(self, check_protocol):
        """A compiled expansion leaves every channel unresolved while a
        vector's cycle runs, also under a monitor, which flushes the
        channel states after every vector: the next vector marks them
        unresolved again."""
        probes = []

        def make():
            probes.append([])
            return _probing_net(probes[-1])

        for engine in ENGINES:
            expanded, raised = assert_expand_is_steps(
                make, engine, check_protocol=check_protocol)
            assert expanded > 1 and raised == []
        # probes[2] is the netlist codegen's expand() ran on (worklist
        # resolves the output before its fn runs, so its probes may not
        # raise there)
        assert probes[2] and all(probes[2])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_set_choice_only_above_space_one(self, engine):
        result = StateExplorer(_probing_net([]), engine=engine).explore()
        assert result.complete and result.n_states > 1


def _bad_select_net():
    """The speculative composition with a select source that can offer
    value 2 to a two-input mux: that vector raises mid-expansion."""
    net = patterns.speculative_mc(ToggleScheduler(2), n_zbl=1,
                                  can_kill_sink=True)[0]
    net.nodes["sel"].n_values = 3
    return net


def _unknown_data_net(channel, port):
    """The speculative composition with a function block spliced into
    ``channel`` (ending at ``port``) that drops the data of the value 1:
    the cycle that offers it has no fix-point."""
    net = patterns.speculative_mc(ToggleScheduler(2), n_zbl=1,
                                  can_kill_sink=True)[0]
    producer = ".".join(net.channels[channel].producer)
    net.disconnect(channel)
    net.add(Func("drop", lambda v: None if v == 1 else v, n_inputs=1))
    net.connect(producer, "drop.i0", name=channel)
    net.connect("drop.o", port, name=f"{channel}_x")
    return net


def _broken_kill_net():
    net = Netlist("broken_kill_mc")
    net.add(NondetSource("src"))
    net.add(BrokenKillBuffer("buf"))
    net.add(NondetSink("snk", can_kill=True))
    net.connect("src.o", "buf.i", name="in")
    net.connect("buf.o", "snk.i", name="out")
    return net


class TestExpandOnFailure:
    """A vector whose cycle raises leaves what the same vector's
    ``step_with_choices`` leaves: the error, the cycle counter at that
    vector's cycle, the node state and the channel states."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_scheduler_error_mid_expansion(self, engine):
        _expanded, raised = assert_expand_is_steps(_bad_select_net, engine)
        assert max(raised) > 0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("channel, port", [("cs", "mux.s"),
                                               ("fin0", "sh.i0")],
                             ids=["select", "data"])
    def test_unknown_data_mid_expansion(self, engine, channel, port):
        _expanded, raised = assert_expand_is_steps(
            lambda: _unknown_data_net(channel, port), engine)
        assert max(raised) > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_broken_kill_buffer(self, engine):
        """Runs interpreted under codegen (the mutant overrides comb).
        Expansion does not consult the monitor; the explorer reports the
        stalled cancellation from the transitions' packed signals."""
        expanded, _raised = assert_expand_is_steps(_broken_kill_net, engine)
        assert expanded > 1
        assert_monitor_ignored(_broken_kill_net, engine)
        result = StateExplorer(_broken_kill_net(), engine=engine).explore()
        assert any(v.endswith("out: cancellation with S- asserted")
                   for v in result.violations)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_retry_minus_withdrawal(self, engine):
        """Compiled with the mutant's own tick: channel states flush every
        vector.  The explorer reports the withdrawn anti-token."""
        expanded, _raised = assert_expand_is_steps(
            lambda: _fickle_net(nondet=True), engine)
        assert expanded > 1
        assert_monitor_ignored(lambda: _fickle_net(nondet=True), engine)
        result = StateExplorer(_fickle_net(nondet=True), max_states=300,
                               engine=engine).explore()
        assert any(v.endswith("out: stalled anti-token withdrawn (Retry-)")
                   for v in result.violations)


class TestCounts:
    def test_one_compiled_call_per_state(self, monkeypatch):
        builds = [MC_DESIGNS[name] for name in sorted(MC_DESIGNS)]
        builds.append(lambda: stall_wrapped("fig1d"))
        steps = []
        original = Simulator.step_with_choices

        def counted_step(self, choices):
            steps.append(1)
            return original(self, choices)

        monkeypatch.setattr(Simulator, "step_with_choices", counted_step)
        for build in builds:
            explorer = StateExplorer(build(), max_states=400,
                                     engine="codegen")
            compiled = explorer.sim._entry("expand")
            assert compiled is not None
            calls = []

            def counting(*args, _fn=compiled, _calls=calls):
                _calls.append(1)
                return _fn(*args)

            explorer.sim._entries["expand"] = counting
            result = explorer.explore()
            expanded = (result.n_states if result.complete
                        else len(calls))
            assert len(calls) == expanded > 1
        assert steps == []

    def test_run_compiles_no_expansion_entry(self):
        pysim.clear_module_cache()
        Simulator(DESIGNS["fig1d"]()).run(50)
        sim = Simulator(DESIGNS["fig6b"](), check_protocol=False)
        sim.step()
        sim.run(20)
        assert pysim.cache_stats()["modules_by_entry"] == {"run": 2,
                                                           "expand": 0}

    def test_exploration_compiles_no_run_entry(self):
        pysim.clear_module_cache()
        StateExplorer(MC_DESIGNS["spec-nondet"](), engine="codegen").explore()
        StateExplorer(stall_wrapped("fig1a"), max_states=100,
                      engine="codegen").explore()
        assert pysim.cache_stats()["modules_by_entry"] == {"run": 0,
                                                           "expand": 2}

    def test_elaborate_prints_modules_per_entry(self, capsys):
        from repro.cli import main

        pysim.clear_module_cache()
        StateExplorer(MC_DESIGNS["eb"](), engine="codegen").explore()
        assert main(["elaborate", "--design", "fig1a"]) == 0
        out = capsys.readouterr().out
        assert "entry=run" in out
        assert "2 modules cached (run 1, expand 1)" in out

    def test_every_compile_inside_a_backend(self, monkeypatch):
        """A benchmark times elaboration as ``CodegenBackend``
        construction, so a simulator compiles nowhere else."""
        depth, outside = [0], []
        init, generate = pysim.CodegenBackend.__init__, pysim._generate_source

        def tracked_init(self, *args, **kwargs):
            depth[0] += 1
            try:
                init(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        def tracked_generate(*args):
            if not depth[0]:
                outside.append(args[-1])
            return generate(*args)

        monkeypatch.setattr(pysim.CodegenBackend, "__init__", tracked_init)
        monkeypatch.setattr(pysim, "_generate_source", tracked_generate)
        pysim.clear_module_cache()
        Simulator(DESIGNS["fig1d"]()).run(30)
        sim = Simulator(MC_DESIGNS["eb"]())
        sim.step_with_choices({})
        sim.step()
        StateExplorer(MC_DESIGNS["zbl"](), engine="codegen").explore()
        assert pysim.cache_stats()["re_elaborations"] == 4
        assert outside == []


def counting_predictions(make, calls):
    """``make`` with every shared module's scheduler counting its
    ``prediction`` calls into ``calls``, by module name."""
    def build():
        net = make()
        for node in net.nodes.values():
            if isinstance(node, SharedModule):
                base = type(node.scheduler)

                class Counting(base):
                    def prediction(self, _name=node.name):
                        calls[_name] += 1
                        return super().prediction()

                node.scheduler.__class__ = Counting
        return net
    return build


_PREDICTING = [pytest.param(DESIGNS["fig6b"], id="fig6b"),
               pytest.param(MC_DESIGNS["spec-nondet"], id="mc-spec-nondet")]


class TestPredictionCalls:
    """The prediction is a function of registered state: a compiled cycle
    asks each shared module's scheduler for it once, for all its comb
    tasks and its inlined tick."""

    @pytest.mark.parametrize("make", _PREDICTING)
    def test_run_entry(self, make):
        calls = Counter()
        sim = Simulator(counting_predictions(make, calls)(), engine="codegen")
        sim.run(200)
        assert sim._runs_compiled and sim.cycle == 200
        assert calls and set(calls.values()) == {200}
        assert_run_is_steps(counting_predictions(make, Counter()), _CHUNKS)

    @pytest.mark.parametrize("make", _PREDICTING)
    def test_expand_entry(self, make):
        calls = Counter()
        explorer = StateExplorer(counting_predictions(make, calls)(),
                                 max_states=150, engine="codegen")
        explorer.explore()
        cycles = explorer.sim.cycle
        assert cycles >= 150
        assert calls and set(calls.values()) == {cycles}
        assert_expand_is_steps(counting_predictions(make, Counter()),
                               "codegen")


class TestEemuxDiagnosis:
    def test_impure_select_fn(self):
        """The select ``fn`` returns no data once: both engines diagnose
        a combinational loop at that cycle, naming the select channel,
        even though codegen's interpreted re-run of the cycle calls the
        ``fn`` again and gets data."""
        raised = {}
        for engine in ENGINES:
            calls = count()
            net = patterns.fig1d(
                lambda g: None if next(calls) == 30 else g & 1)[0]
            sim = Simulator(net, engine=engine)
            with pytest.raises(CombinationalLoopError) as err:
                sim.run(80)
            assert any(name.startswith("sel_ch.")
                       for name in err.value.unresolved), engine
            raised[engine] = (err.value.cycle, sim.cycle)
        assert raised["codegen"] == raised["worklist"] == (30, 30)


#: generated_source() lengths at the single-module layout, per design:
#: (with the monitor, without).  The run entry must be no longer.
_RUN_CEILINGS = {"fig1a": (19006, 15830), "fig1d": (20919, 17852),
                 "fig6b": (26740, 22690), "fig7b": (26755, 22705)}
#: the single-module layout's unmonitored source of each stall-chaos
#: wrap; the expansion entry must be shorter.
_EXPAND_CEILINGS = {"fig1a": 22840, "fig1d": 32009, "fig6b": 40309}


class TestEntrySources:
    @pytest.mark.parametrize("name", sorted(_RUN_CEILINGS))
    def test_run_entry_carries_no_choices(self, name):
        for check, ceiling in zip((True, False), _RUN_CEILINGS[name]):
            source = pysim.generated_source(DESIGNS[name](), check)
            assert len(source) <= ceiling
            assert "choice" not in source and "bytes((" not in source

    @pytest.mark.parametrize("design", sorted(_EXPAND_CEILINGS))
    def test_expand_entry_carries_no_statistics(self, design):
        source = pysim.generated_source(stall_wrapped(design), False,
                                        entry="expand")
        assert len(source) < _EXPAND_CEILINGS[design]
        assert "_cnt" not in source and "_stats." not in source
        assert "observers" not in source

    def test_unknown_entry(self):
        with pytest.raises(ValueError, match="unknown entry"):
            pysim.generated_source(DESIGNS["fig1a"](), entry="walk")
