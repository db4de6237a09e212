"""Derived combinational code: the compiled engine renders each node's own
``comb`` into the straight-line region, once per signal task derived from
it.

:mod:`repro.sim.inline` reads the method's source: ``self.drive(P, s, e)``
becomes an assignment to the channel local, the Kleene helpers become
Python operators, and each task keeps only what its writes need; the
tasks and the worklist engine's wake-up reads come from the same
rendering.  A comb outside that subset defers its node, and the netlist
runs the interpreted worklist cycle.  These tests pin both sides: no
generated entry of the shipped designs calls a node's ``comb``, in-subset
user subclasses compile with nothing written for them (one reading more
than its base class, which nothing declares), each refused idiom defers,
and every case equals the worklist engine under runs, steps and state
expansion.
"""

import ast

import pytest

from repro.backend import pysim
from repro.designs import DESIGNS, MC_DESIGNS
from repro.elastic.buffers import ElasticBuffer
from repro.elastic.environment import ListSource, Sink
from repro.elastic.functional import Func
from repro.kleene import kand, kite, knot
from repro.netlist.graph import Netlist
from repro.sim.engine import Simulator

from test_codegen_diff import _CHUNKS, assert_run_is_steps
from test_derived_ticks import _entry, _net
from test_expand import assert_expand_is_steps


def calls_comb(source):
    """Whether a generated entry calls or binds a node's ``comb``."""
    return any(isinstance(node, ast.Attribute) and node.attr == "comb"
               for node in ast.walk(_entry(source)))


@pytest.mark.parametrize("make", [
    *(pytest.param(DESIGNS[name], id=name) for name in sorted(DESIGNS)),
    *(pytest.param(MC_DESIGNS[name], id=f"mc-{name}")
      for name in sorted(MC_DESIGNS)),
])
@pytest.mark.parametrize("entry", pysim.ENTRIES)
def test_designs_call_no_comb(make, entry):
    source = pysim.generated_source(make(), entry=entry)
    assert "0 deferred" in source
    assert not calls_comb(source)


# -- the table ----------------------------------------------------------------

class ParitySink(Sink):
    """In the subset: also stalls on every odd cycle, with no emitter."""

    kind = "case_parity"

    def comb(self):
        self.drive("i", "sp", self._cycle % 2 == 1 or self._stall_now)
        self.drive("i", "vm", False)


class SuperCombSink(Sink):
    kind = "case_super"

    def comb(self):
        super().comb()


class TryCombSink(Sink):
    kind = "case_try"

    def comb(self):
        try:
            self.drive("i", "sp", self._stall_now)
        finally:
            self.drive("i", "vm", False)


class ParameterCombSink(Sink):
    """An extra parameter, defaulted."""

    kind = "case_parameter"

    def comb(self, vm=False):
        self.drive("i", "sp", self._stall_now)
        self.drive("i", "vm", vm)


def _func_case(cls):
    """ListSource -> the case's one-input function block -> EB -> Sink."""
    net = Netlist("case")
    net.add(ListSource("src", list(range(30)), rate=0.7, seed=2))
    net.add(cls("f", fn=lambda x: 3 * x, n_inputs=1))
    net.add(ElasticBuffer("eb"))
    net.add(Sink("snk", stall_rate=0.4, seed=5))
    net.connect("src.o", "f.i0", name="in")
    net.connect("f.o", "eb.i", name="mid")
    net.connect("eb.o", "snk.i", name="out")
    return net


class ListedFunc(Func):
    """A channel state escaping into a list."""

    kind = "case_listed"

    def comb(self):
        states = [self.st(port) for port in self.in_ports]
        ost = self.st("o")
        avail = kand(states[0].vp, self._kills[0] == 0)
        self.drive("o", "vp", avail)
        fire = kand(avail, knot(ost.sp))
        self.drive("i0", "vm", self._kills[0] > 0)
        self.drive("i0", "sp", kite(self._kills[0] > 0, False, knot(fire)))
        self.drive("o", "sm", kite(avail, False,
                                   self._kills[0] >= self.max_kills))
        if avail is True and ost.data is None and states[0].data is not None:
            self.drive("o", "data", self.fn(states[0].data))


class PeekingFunc(Func):
    """In the subset; its ``o.sm`` reads ``o.vm``, which Func's comb does
    not read, so both engines must wake and schedule it on ``o.vm``."""

    kind = "case_peeking"

    def comb(self):
        ist = self.st("i0")
        ost = self.st("o")
        avail = kand(ist.vp, self._kills[0] == 0)
        self.drive("o", "vp", avail)
        fire = kand(avail, knot(ost.sp))
        self.drive("i0", "vm", self._kills[0] > 0)
        self.drive("i0", "sp", kite(self._kills[0] > 0, False, knot(fire)))
        self.drive("o", "sm", kite(avail, False, kand(
            ost.vm, self._kills[0] >= self.max_kills)))
        if avail is True and ost.data is None and ist.data is not None:
            self.drive("o", "data", self.fn(ist.data))


class GatedFunc(Func):
    """In the subset; its gate, which two of its tasks read, comes from a
    call, so each of those tasks makes the call: only a computation that
    calls nothing is shared between tasks."""

    kind = "case_gated"

    def _open(self, kills):
        return kills == 0

    def comb(self):
        ist = self.st("i0")
        ost = self.st("o")
        self.drive("i0", "vm", self._kills[0] > 0)
        gate = self._open(self._kills[0])
        avail = kand(ist.vp, gate)
        self.drive("o", "vp", avail)
        fire = kand(avail, knot(ost.sp))
        self.drive("i0", "sp", kite(self._kills[0] > 0, False, knot(fire)))
        self.drive("o", "sm", kite(avail, False,
                                   self._kills[0] >= self.max_kills))
        if avail is True and ost.data is None and ist.data is not None:
            self.drive("o", "data", self.fn(ist.data))


#: case -> (netlist factory, whether it compiles); the case's node is
#: the sink ``snk`` or the function block ``f``
CASES = {
    "inlinable": (lambda: _net(ParitySink), True),
    "super": (lambda: _net(SuperCombSink), False),
    "try": (lambda: _net(TryCombSink), False),
    "extra-parameter": (lambda: _net(ParameterCombSink), False),
    "state-in-list": (lambda: _func_case(ListedFunc), False),
    "undeclared-read": (lambda: _func_case(PeekingFunc), True),
    "called-gate": (lambda: _func_case(GatedFunc), True),
}


class TestTable:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_compiles_or_defers(self, case):
        make, compiles = CASES[case]
        net = make()
        plan = pysim._build_plan(net)
        case_node = "f" if "f" in net.nodes else "snk"
        assert [plan.nodes[ni].name for ni in plan.deferred] == (
            [] if compiles else [case_node])
        for entry in pysim.ENTRIES:
            source = pysim.generated_source(make(), entry=entry)
            assert ("0 deferred" in source) is compiles
            assert not compiles or not calls_comb(source)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_is_steps(self, case):
        make, compiles = CASES[case]
        assert_run_is_steps(make, _CHUNKS, compiled=compiles)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_expansion_is_steps(self, case):
        expanded, raised = assert_expand_is_steps(
            CASES[case][0], "codegen", max_states=60)
        assert expanded == 60 and raised == []

    def test_inlined_comb_stalls(self):
        """The parity sink's own comb runs compiled: it stalls odd cycles
        on both engines alike."""
        received = []
        for engine in ("worklist", "codegen"):
            net = _net(ParitySink)
            Simulator(net, engine=engine).run(120)
            received.append(net.nodes["snk"].received)
        assert received[0] == received[1]
        assert received[0] and all(cycle % 2 == 0
                                   for cycle, _value in received[0])
        assert "_n2._cycle % 2 == 1" in pysim.generated_source(
            _net(ParitySink))


def test_called_local_not_shared():
    """A local that two tasks compute through a call is computed in
    each (no node-named copy), and so is one read from it; Func's pure
    ``all_avail`` is computed once."""
    gated = pysim.generated_source(_func_case(GatedFunc))
    assert gated.count("_gate_ = _n1._open(_n1._kills[0])") == 2
    assert "__n1 = " not in gated.split("# f (")[1]
    plain = pysim.generated_source(_func_case(Func))
    assert plain.count("_all_avail__n1 = ") == 1


def _same_name_sink(odd):
    """Sink classes with one module and qualified name (so one topology
    signature) but different combs."""
    if odd:
        class CaseSink(Sink):
            def comb(self):
                self.drive("i", "sp", self._cycle % 2 == 1)
                self.drive("i", "vm", False)
    else:
        class CaseSink(Sink):
            def comb(self):
                self.drive("i", "sp", self._cycle % 3 == 1)
                self.drive("i", "vm", False)
    return CaseSink


def test_same_qualified_name_other_comb_recompiles():
    """The module cache keys on the code of the inlined comb: a class that
    shares its name with a compiled one gets its own module."""
    sources, received = [], []
    for odd in (True, False):
        make = lambda: _net(_same_name_sink(odd))  # noqa: E731
        sources.append(pysim.generated_source(make()))
        assert_run_is_steps(make, _CHUNKS)
        net = make()
        Simulator(net, engine="codegen").run(100)
        received.append(net.nodes["snk"].received)
    assert sources[0] != sources[1]
    assert received[0] != received[1]
