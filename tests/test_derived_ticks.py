"""Derived sequential code: the compiled engine renders each node's own
``tick``, ``pre_cycle`` and ``set_choice`` into the cycle body.

:mod:`repro.backend.pysim` reads the methods' source and inlines their
bodies (channel states become the cycle's signal locals, loops over a
kind's ports are unrolled); a body outside that subset is called as the
interpreted engine calls it.  These tests pin both sides: no generated
module of the paper's designs, model-checking compositions, sweep presets
or the latency-sensitive mutant calls a node's sequential method, each
refused idiom compiles as a call, an inlinable user subclass compiles
inline with nothing written for it, and every case equals the worklist
engine under runs, steps and state expansion.
"""

import ast
import re

import pytest

from repro.backend import pysim
from repro.chaos.mutants import latency_sensitive_design
from repro.designs import DESIGNS, MC_DESIGNS
from repro.elastic.buffers import ElasticBuffer
from repro.elastic.environment import ListSource, Sink
from repro.netlist.graph import Netlist

from test_codegen_diff import _CHUNKS, _sweep_topologies, assert_run_is_steps
from test_expand import assert_expand_is_steps

_METHODS = ("tick", "pre_cycle", "set_choice")

#: the default-argument names a generated entry binds a called node
#: method to: ``_t<i>``, ``_p<i>`` and ``_s<i>``
_CALLED = re.compile(r"_[tps](\d+)$")


def _entry(source):
    """The entry function of a generated module's source."""
    return next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef)
                and node.name in ("_cycle", "_expand"))


def called_methods(source):
    """``(method initial, node index)`` of every node method the entry
    calls: one it binds (``_t3``), or one it calls on a node reference
    (``_n3.tick()``)."""
    fn = _entry(source)
    called = {(m.group(0)[1], int(m.group(1))) for m in (
        _CALLED.match(arg.arg) for arg in fn.args.args) if m}
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METHODS
                and isinstance(node.func.value, ast.Name)
                and re.fullmatch(r"_n\d+", node.func.value.id)):
            called.add((node.func.attr[0], int(node.func.value.id[2:])))
    return called


def _guarded():
    cases = [pytest.param(DESIGNS[name], id=name) for name in sorted(DESIGNS)]
    cases += [pytest.param(MC_DESIGNS[name], id=f"mc-{name}")
              for name in sorted(MC_DESIGNS)]
    cases.append(pytest.param(latency_sensitive_design, id="mutant-ls"))
    return cases


class TestNothingCalled:
    """Every tick, pre-cycle hook and choice setter of the shipped kinds
    is inlined, in both entries."""

    @pytest.mark.parametrize("make", _guarded())
    @pytest.mark.parametrize("entry", pysim.ENTRIES)
    def test_designs(self, make, entry):
        source = pysim.generated_source(make(), entry=entry)
        assert "0 deferred" in source
        assert called_methods(source) == set()

    def test_sweep_topologies(self):
        for label, net in _sweep_topologies():
            for entry in pysim.ENTRIES:
                source = pysim.generated_source(net, entry=entry)
                assert called_methods(source) == set(), (label, entry)

    def test_guard_sees_a_call(self):
        net = _net(SuperTickSink)
        assert called_methods(pysim.generated_source(net)) == {("t", 2)}


# -- the refusal table -------------------------------------------------------

class SuperTickSink(Sink):
    kind = "case_super"

    def tick(self):
        super().tick()


class HelperTickSink(Sink):
    """Passes a channel state to a helper."""

    kind = "case_helper"

    def tick(self):
        self._take(self.st("i"))
        self._cycle += 1

    def _take(self, ist):
        if ist.vp and not ist.sp and not ist.vm:
            self.received.append((self._cycle, ist.data))


class RuntimeLoopSink(Sink):
    """A pre-cycle hook looping over a runtime-sized attribute."""

    kind = "case_loop"

    def __init__(self, name, tries=2, **kwargs):
        self.tries = tries
        super().__init__(name, **kwargs)

    def pre_cycle(self):
        self._stall_now = False
        for _ in range(self.tries):
            if self._rng.random() < self.stall_rate:
                self._stall_now = True


class PickedPortSink(Sink):
    """Picks the port it reads from its state."""

    kind = "case_picked"

    def tick(self):
        ist = self.st(self.in_ports[self._cycle % len(self.in_ports)])
        if ist.vp and not ist.sp and not ist.vm:
            self.received.append((self._cycle, ist.data))
        self._cycle += 1


_EXEC_SOURCE = '''
class ExecSink(Sink):
    kind = "case_exec"

    def tick(self):
        ist = self.st("i")
        if ist.vp and not ist.sp and not ist.vm:
            self.received.append((self._cycle, ist.data))
        self._cycle += 1
'''


def _exec_sink():
    namespace = {"Sink": Sink}
    exec(_EXEC_SOURCE, namespace)
    return namespace["ExecSink"]


ExecSink = _exec_sink()


class StallCountingSink(Sink):
    """Inlinable: counts the cycles its token stalls, with no emitter."""

    kind = "case_inline"
    state_slots = {**Sink.state_slots, "stalls": 0}

    def tick(self):
        ist = self.st("i")
        if ist.vp and ist.sp:
            self.stalls += 1
        if ist.vp and not ist.sp and not ist.vm:
            self.received.append((self._cycle, ist.data))
        self._cycle += 1


def _net(sink_cls):
    """ListSource -> EB -> the case's sink (stalling, seeded)."""
    net = Netlist("case")
    net.add(ListSource("src", list(range(30)), rate=0.7, seed=2))
    net.add(ElasticBuffer("eb"))
    net.add(sink_cls("snk", stall_rate=0.4, seed=5))
    net.connect("src.o", "eb.i", name="in")
    net.connect("eb.o", "snk.i", name="out")
    return net


#: case -> (sink class, the called methods expected: node 2 is the sink)
REFUSALS = {
    "super": (SuperTickSink, {("t", 2)}),
    "state-to-helper": (HelperTickSink, {("t", 2)}),
    "runtime-loop": (RuntimeLoopSink, {("p", 2)}),
    "port-from-state": (PickedPortSink, {("t", 2)}),
    "exec-class": (ExecSink, {("t", 2)}),
    "inlinable": (StallCountingSink, set()),
}


class TestRefusals:
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_compiles_as_call(self, case):
        sink_cls, called = REFUSALS[case]
        for entry in pysim.ENTRIES:
            source = pysim.generated_source(_net(sink_cls), entry=entry)
            assert "0 deferred" in source
            assert called_methods(source) == called

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_run_is_steps(self, case):
        assert_run_is_steps(lambda: _net(REFUSALS[case][0]), _CHUNKS)

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_expansion_is_steps(self, case):
        expanded, raised = assert_expand_is_steps(
            lambda: _net(REFUSALS[case][0]), "codegen", max_states=60)
        assert expanded == 60 and raised == []

    def test_inlined_tick_counts(self):
        from repro.sim.engine import Simulator

        counts = []
        for engine in ("worklist", "codegen"):
            net = _net(StallCountingSink)
            Simulator(net, engine=engine).run(120)
            counts.append(net.nodes["snk"].stalls)
        assert counts[0] == counts[1] > 0
        assert ".stalls += 1" in pysim.generated_source(_net(StallCountingSink))


def _same_name_sink(stall_counting):
    """Sink classes with one module and qualified name (so one topology
    signature) but different ticks."""
    if stall_counting:
        class CaseSink(StallCountingSink):
            def tick(self):
                ist = self.st("i")
                if ist.vp and ist.sp:
                    self.stalls += 1
                self._cycle += 1
    else:
        class CaseSink(StallCountingSink):
            def tick(self):
                ist = self.st("i")
                if ist.vp and not ist.sp:
                    self.stalls += 1
                self._cycle += 1
    return CaseSink


def test_same_qualified_name_other_tick_recompiles():
    """The module cache keys on the code of the inlined methods: a class
    that shares its name with a compiled one gets its own module."""
    from repro.sim.engine import Simulator

    sources, counts = [], []
    for stall_counting in (True, False):
        make = lambda: _net(_same_name_sink(stall_counting))  # noqa: E731
        sources.append(pysim.generated_source(make()))
        assert_run_is_steps(make, _CHUNKS)
        net = make()
        Simulator(net, engine="codegen").run(100)
        counts.append(net.nodes["snk"].stalls)
    assert sources[0] != sources[1]
    assert counts[0] != counts[1]
