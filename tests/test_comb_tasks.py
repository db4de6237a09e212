"""``Node.comb_tasks()``: each kind's one combinational dependency
declaration.

Both engines derive their schedules from it — the worklist engine's
wake-up sets through ``comb_reads()`` (the ordered union of the task
reads), the codegen engine's straight-line order task by task, each task
rendered from the kind's own ``comb`` (:mod:`repro.backend.pysim`).  These
tests pin the shape every kind must have, that every kind and arity
renders every task it declares, and that a declaration narrower than what
``comb`` reads keeps the node off the compiled path."""

import pytest

from repro.backend import pysim
from repro.core import SharedModule, StaticScheduler
from repro.elastic import (
    EagerFork,
    EarlyEvalMux,
    ElasticBuffer,
    Func,
    KillerSink,
    ListSource,
    NondetSink,
    NondetSource,
    Node,
    Sink,
    VariableLatencyUnit,
    ZeroBackwardLatencyBuffer,
)
from repro.elastic.environment import (
    NondetChoiceSource,
    PermissionSource,
    _SourceBase,
)
from repro.elastic.fifo_model import AbstractElasticFifo
from repro.netlist import Netlist

from test_codegen_diff import assert_codegen_identical


def _ident(*args):
    return args[0]


#: class defining a ``comb`` -> factories of instances at the arities
#: under test (the mux needs a choice of two inputs, the shared module two
#: channels).
INSTANCES = {
    ElasticBuffer: [lambda: ElasticBuffer("n")],
    ZeroBackwardLatencyBuffer: [lambda: ZeroBackwardLatencyBuffer("n")],
    Func: [lambda k=k: Func("n", fn=_ident, n_inputs=k) for k in (1, 2, 3)],
    EagerFork: [lambda k=k: EagerFork("n", n_outputs=k) for k in (1, 2, 3)],
    EarlyEvalMux: [lambda k=k: EarlyEvalMux("n", n_inputs=k)
                   for k in (2, 3)],
    SharedModule: [lambda k=k: SharedModule("n", _ident, StaticScheduler(k),
                                            n_channels=k) for k in (2, 3)],
    VariableLatencyUnit: [lambda: VariableLatencyUnit("n", fn=_ident,
                                                      err_fn=_ident)],
    _SourceBase: [lambda: ListSource("n", [1, 2])],
    Sink: [lambda: Sink("n")],
    KillerSink: [lambda: KillerSink("n")],
    NondetSource: [lambda: NondetSource("n")],
    NondetChoiceSource: [lambda: NondetChoiceSource("n")],
    PermissionSource: [lambda: PermissionSource("n", rate=0.5)],
    NondetSink: [lambda: NondetSink("n", can_kill=True)],
    AbstractElasticFifo: [lambda: AbstractElasticFifo("n")],
}

CASES = [pytest.param(cls, make, id=f"{cls.__name__}-{i}")
         for cls, makers in INSTANCES.items()
         for i, make in enumerate(makers)]


def test_every_emitter_backed_kind_is_covered():
    """Every shipped kind that writes its own ``comb`` (its one emitter)
    is under test here; the chaos mutants are the residue tests'."""
    from test_node_state import node_classes

    assert set(INSTANCES) == {
        cls for cls in node_classes() if "comb" in cls.__dict__
        and not cls.__module__.startswith("repro.chaos")}


def _rendered(node):
    """``node``'s comb template for its declared tasks (None: deferred)."""
    return pysim._node_template(node, "comb", tasks=tuple(
        (tuple(reads), tuple(writes)) for reads, writes in node.comb_tasks()))


class TestStructure:
    @pytest.mark.parametrize("cls,make", CASES)
    def test_writes_cover_drives_exactly_once(self, cls, make):
        node = make()
        writes = [pair for _reads, ws in node.comb_tasks() for pair in ws]
        assert sorted(writes) == sorted(node.drives())
        assert len(set(writes)) == len(writes)

    @pytest.mark.parametrize("cls,make", CASES)
    def test_task_count_is_a_multiple_of_the_emitters(self, cls, make):
        """The kind's comb renders one slice per declared task, at every
        arity under test."""
        node = make()
        texts = _rendered(node)[0]
        assert len(texts) == len(node.comb_tasks())
        for text, (_reads, writes) in zip(texts, node.comb_tasks()):
            for port, signal in writes:
                if signal != "data":
                    assert f"@{port}@{signal} =" in text

    @pytest.mark.parametrize("cls,make", CASES)
    def test_comb_reads_is_the_ordered_union(self, cls, make):
        node = make()
        union = []
        for reads, _writes in node.comb_tasks():
            union += [pair for pair in reads if pair not in union]
        assert node.comb_reads() == union


class DropsDataRead(Func):
    """Declares one data read fewer than its comb() performs."""

    def comb_tasks(self):
        return [([pair for pair in reads if pair != ("i0", "data")], writes)
                for reads, writes in super().comb_tasks()]


def _drops_data_read_net():
    net = Netlist("drops")
    net.add(ListSource("a", list(range(40)), rate=0.7, seed=1))
    net.add(ListSource("b", list(range(100, 140)), rate=0.6, seed=2))
    net.add(DropsDataRead("F", fn=lambda x, y: x + y, n_inputs=2))
    net.add(ElasticBuffer("eb"))
    net.add(Sink("snk", stall_rate=0.3, seed=3))
    net.connect("a.o", "F.i0", name="ca")
    net.connect("b.o", "F.i1", name="cb")
    net.connect("F.o", "eb.i", name="cf")
    net.connect("eb.o", "snk.i", name="co")
    return net


class TestTrustRule:
    def test_overriding_only_comb_tasks_is_deferred(self):
        """The subclass keeps Func's comb, which reads more than its tasks
        declare: it runs interpreted, on the reads it declares."""
        plan = pysim._build_plan(_drops_data_read_net())
        assert [plan.nodes[ni].name for ni in plan.deferred] == ["F"]
        assert_codegen_identical(_drops_data_read_net, cycles=200)

    def test_inherited_comb_tasks_is_trusted(self):
        """A comb renders against the tasks its class inherits."""
        assert "comb_tasks" not in NondetChoiceSource.__dict__
        assert _rendered(NondetChoiceSource("n")) is not None

    def test_comb_reads_cannot_be_overridden(self):
        with pytest.raises(TypeError, match="comb_tasks"):
            type("Narrowed", (Node,), {"comb_reads": lambda self: []})
