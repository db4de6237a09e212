"""``Node.comb_tasks()`` and ``comb_reads()``: derived from each kind's own
``comb``, never declared.

The method is rendered once per node shape (:mod:`repro.sim.inline`); each
drive's reads are the channel reads of its slice, drives with equal reads
form one signal task, and a port's data joins its vp task.  Both engines
schedule from the result — the worklist engine's wake-up sets through
``comb_reads()``, the codegen engine's straight-line order task by task.
These tests pin the shape every kind's tasks must have, that every kind
and arity renders every task, the wake-up sets of every shipped kind (as
its hand-written declaration stated them before the derivation replaced
it), that a subclass cannot declare either accessor, and that a cold
elaboration renders each comb once per shape."""

import pytest

from repro.backend import pysim
from repro.core import SharedModule, StaticScheduler
from repro.designs import DESIGNS
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
from repro.sim import inline
from repro.sim.engine import Simulator

from test_derived_combs import PeekingFunc


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
    """``node``'s comb template for its shape (None: deferred)."""
    return inline.node_template(node, "comb")


def _opposite(node):
    """The ``(port, signal)`` pairs ``node``'s opposite endpoints drive."""
    return ({(port, sig) for port in node.in_ports
             for sig in ("vp", "sm", "data")}
            | {(port, sig) for port in node.out_ports for sig in ("sp", "vm")})


class TestStructure:
    @pytest.mark.parametrize("cls,make", CASES)
    def test_writes_cover_drives_exactly_once(self, cls, make):
        node = make()
        writes = [pair for _reads, ws in node.comb_tasks() for pair in ws]
        assert sorted(writes) == sorted(node.drives())
        assert len(set(writes)) == len(writes)

    @pytest.mark.parametrize("cls,make", CASES)
    def test_task_count_is_a_multiple_of_the_emitters(self, cls, make):
        """The kind's comb renders one slice per derived task, at every
        arity under test, each assigning the task's control writes (a
        slice is a sequence of ``(key, text)`` chunks)."""
        node = make()
        slices = _rendered(node).text
        assert len(slices) == len(node.comb_tasks())
        for chunks, (_reads, writes) in zip(slices, node.comb_tasks()):
            text = "\n".join(text for _key, text in chunks)
            for port, signal in writes:
                if signal != "data":
                    assert f"@{port}@{signal} =" in text

    @pytest.mark.parametrize("cls,make", CASES)
    def test_comb_reads_is_the_ordered_union(self, cls, make):
        """The wake-up reads are the task reads the opposite endpoints
        drive, in port order."""
        node = make()
        union = {pair for reads, _writes in node.comb_tasks()
                 for pair in reads} & _opposite(node)
        order = [(port, sig) for port in node.ports
                 for sig in ("vp", "sp", "vm", "sm", "data")]
        assert node.comb_reads() == tuple(
            sorted(union, key=order.index))


#: every kind and arity of INSTANCES -> its wake-up reads, sorted, as the
#: hand-written comb_tasks() declarations stated them
PINNED_READS = {
    "ElasticBuffer-0": [],
    "ZeroBackwardLatencyBuffer-0": [("i", "sm"), ("o", "sp"), ("o", "vm")],
    "Func-0": [("i0", "data"), ("i0", "vp"), ("o", "sp")],
    "Func-1": [("i0", "data"), ("i0", "vp"), ("i1", "data"), ("i1", "vp"),
               ("o", "sp")],
    "Func-2": [("i0", "data"), ("i0", "vp"), ("i1", "data"), ("i1", "vp"),
               ("i2", "data"), ("i2", "vp"), ("o", "sp")],
    "EagerFork-0": [("i", "data"), ("i", "vp"), ("o0", "sp")],
    "EagerFork-1": [("i", "data"), ("i", "vp"), ("o0", "sp"), ("o1", "sp")],
    "EagerFork-2": [("i", "data"), ("i", "vp"), ("o0", "sp"), ("o1", "sp"),
                    ("o2", "sp")],
    "EarlyEvalMux-0": [("i0", "data"), ("i0", "vp"), ("i1", "data"),
                       ("i1", "vp"), ("o", "sp"), ("s", "data"), ("s", "vp")],
    "EarlyEvalMux-1": [("i0", "data"), ("i0", "vp"), ("i1", "data"),
                       ("i1", "vp"), ("i2", "data"), ("i2", "vp"), ("o", "sp"),
                       ("s", "data"), ("s", "vp")],
    "SharedModule-0": [("i0", "data"), ("i0", "sm"), ("i0", "vp"),
                       ("i1", "data"), ("i1", "sm"), ("i1", "vp"),
                       ("o0", "sp"), ("o0", "vm"), ("o1", "sp"), ("o1", "vm")],
    "SharedModule-1": [("i0", "data"), ("i0", "sm"), ("i0", "vp"),
                       ("i1", "data"), ("i1", "sm"), ("i1", "vp"),
                       ("i2", "data"), ("i2", "sm"), ("i2", "vp"),
                       ("o0", "sp"), ("o0", "vm"), ("o1", "sp"), ("o1", "vm"),
                       ("o2", "sp"), ("o2", "vm")],
    "VariableLatencyUnit-0": [],
    "_SourceBase-0": [],
    "Sink-0": [],
    "KillerSink-0": [],
    "NondetSource-0": [],
    "NondetChoiceSource-0": [],
    "PermissionSource-0": [],
    "NondetSink-0": [],
    "AbstractElasticFifo-0": [],
}


def test_pinned_reads_cover_every_case():
    assert sorted(PINNED_READS) == sorted(case.id for case in CASES)


@pytest.mark.parametrize("cls,make", CASES)
def test_comb_reads_pinned(request, cls, make):
    """The derivation neither widens nor narrows any wake-up set."""
    case = request.node.callspec.id
    assert sorted(make().comb_reads()) == PINNED_READS[case]


class TestTrustRule:
    def test_comb_tasks_cannot_be_overridden(self):
        with pytest.raises(TypeError, match="comb_tasks.*derived from comb"):
            type("Narrowed", (Func,), {"comb_tasks": lambda self: []})

    def test_inherited_comb_tasks_is_trusted(self):
        """Every kind inherits the derived accessor, which reads the
        kind's own comb: a subclass overriding comb gets its own tasks."""
        assert "comb_tasks" not in NondetChoiceSource.__dict__
        assert _rendered(NondetChoiceSource("n")) is not None
        plain, peeking = Func("n", fn=_ident), PeekingFunc("n", fn=_ident)
        assert ("o", "vm") not in plain.comb_reads()
        assert ("o", "vm") in peeking.comb_reads()
        assert (("i0", "vp"), ("o", "vm")) in [
            reads for reads, _writes in peeking.comb_tasks()]

    def test_comb_reads_cannot_be_overridden(self):
        with pytest.raises(TypeError, match="comb_reads.*derived from comb"):
            type("Narrowed", (Node,), {"comb_reads": lambda self: []})

    def test_comb_outside_the_subset_reads_conservatively(self):
        """A comb that does not render keeps one task reading every signal
        the opposite endpoints drive."""
        class SuperSink(Sink):
            def comb(self):
                super().comb()

        node = SuperSink("n")
        assert _rendered(node) is None
        drives = tuple(node.drives())
        assert node.comb_tasks() == ((node.comb_reads(), drives),)
        assert set(node.comb_reads()) == _opposite(node)


def test_cold_elaboration_renders_each_comb_once(monkeypatch):
    """A cold elaboration renders each kind's comb once per shape: the
    derivation of its tasks and reads (the topology signature, the
    worklist sensitivity) and the compiled slices share that pass."""
    rendered = []

    class Counting(inline._Inline):
        def __init__(self, cls, method, *args):
            rendered.append((cls, method, *args))
            super().__init__(cls, method, *args)

    monkeypatch.setattr(inline, "_Inline", Counting)
    inline.template.cache_clear()
    pysim.clear_module_cache()
    try:
        for name in ("fig1d", "fig6b"):
            for entry in pysim.ENTRIES:
                net = DESIGNS[name]()
                pysim.generated_source(net, entry=entry)
                Simulator(net, engine="worklist").run(5)
                Simulator(net, engine="codegen").run(5)
        combs = [key for key in rendered if key[1] == "comb"]
        assert combs and len(combs) == len(set(combs))
        assert {key[0] for key in combs} >= {Func, SharedModule,
                                             EarlyEvalMux}
    finally:
        inline.template.cache_clear()
        pysim.clear_module_cache()
