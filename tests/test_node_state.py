"""Declared node state: each kind declares its slots once on the class.

``reset``, ``snapshot`` and ``restore`` are derived from ``state_slots`` /
``reset_slots``; the netlist snapshot is one flat tuple of slot values in
sorted node order, restored by one compiled accessor per structural
version.  The tables pin the snapshots the hand-written per-kind methods
produced before the state was declared (recorded by running both versions
on the same designs), so a canonical form that moves shows up here — and
in the explorer's state counts.
"""

import copy
import hashlib
import inspect
import os
import random
import shutil
import sys
from collections import Counter

import pytest

import repro
from repro.chaos import BrokenKillBuffer, ChaosPlan, LatencySensitiveBuffer, wrap
from repro.core.scheduler import (
    OracleScheduler,
    PrimaryScheduler,
    RandomScheduler,
    Scheduler,
    StaticScheduler,
    ToggleScheduler,
    TwoBitScheduler,
)
from repro.core.shared import SharedModule
from repro.designs import DESIGNS, MC_DESIGNS, build_mc_design
from repro.elastic import (
    AbstractElasticFifo,
    EagerFork,
    EarlyEvalMux,
    ElasticBuffer,
    Func,
    VariableLatencyUnit,
    ZeroBackwardLatencyBuffer,
)
from repro.elastic.environment import (
    FunctionSource,
    KillerSink,
    ListSource,
    NondetChoiceSource,
    NondetSink,
    NondetSource,
    PermissionSource,
    Sink,
    _RecordingSink,
)
from repro.elastic.node import Node, Stateful
from repro.lint import undeclared_state
from repro.netlist.graph import Netlist
from repro.perf.presets import PRESET_SWEEPS
from repro.serve.jobs import job_key, validate_job
from repro.sim.engine import Simulator
from repro.verif.explore import StateExplorer

DATA = os.path.join(os.path.dirname(__file__), "data")

#: label -> (factory, snapshot right after reset)
RESET_SNAPSHOTS = {
    "ElasticBuffer(init=[1, 2])": (
        lambda: ElasticBuffer("n", init=[1, 2]), (2, (1, 2))),
    "ElasticBuffer(init_anti=1)": (
        lambda: ElasticBuffer("n", init_anti=1), (-1, ())),
    "ZeroBackwardLatencyBuffer(init=[5])": (
        lambda: ZeroBackwardLatencyBuffer("n", init=[5]), (True, 5)),
    "AbstractElasticFifo(init=[3, 4])": (
        lambda: AbstractElasticFifo("n", init=[3, 4]), (2, (3, 4), False, False)),
    "LatencySensitiveBuffer(init=[7])": (
        lambda: LatencySensitiveBuffer("n", init=[7]), (True, 7, 0)),
    "BrokenKillBuffer": (lambda: BrokenKillBuffer("n"), (False, None)),
    "Func(n_inputs=3)": (
        lambda: Func("n", lambda a, b, c: a, n_inputs=3), (0, 0, 0)),
    "EagerFork(n_outputs=3)": (
        lambda: EagerFork("n", n_outputs=3),
        ((False, False, False), (0, 0, 0))),
    "EarlyEvalMux(n_inputs=3)": (
        lambda: EarlyEvalMux("n", n_inputs=3), ((0, 0, 0), 0)),
    "SharedModule(TwoBitScheduler)": (
        lambda: SharedModule("n", abs, TwoBitScheduler()), (1, None)),
    "SharedModule(StaticScheduler(favourite=1))": (
        lambda: SharedModule("n", abs, StaticScheduler(2, favourite=1)), (1,)),
    "SharedModule(PrimaryScheduler(primary=1))": (
        lambda: SharedModule("n", abs, PrimaryScheduler(2, primary=1)), (1,)),
    "SharedModule(OracleScheduler)": (
        lambda: SharedModule("n", abs, OracleScheduler(lambda k: 0)), (0,)),
    "SharedModule(RandomScheduler)": (
        lambda: SharedModule("n", abs, RandomScheduler(2, seed=3)), (0,)),
    "VariableLatencyUnit": (
        lambda: VariableLatencyUnit("n", abs, lambda x: False), ()),
    "ListSource": (lambda: ListSource("n", [1, 2]), (False, None, 0, 0, 0, 0)),
    "FunctionSource": (
        lambda: FunctionSource("n", abs, limit=3), (False, None, 0, 0, 0, 0)),
    "PermissionSource(budget=2)": (
        lambda: PermissionSource("n", budget=2), (False, 2)),
    "NondetSource": (lambda: NondetSource("n"), (False, 0)),
    "NondetChoiceSource(n_values=3)": (
        lambda: NondetChoiceSource("n", n_values=3), (False, 0)),
    "Sink": (lambda: Sink("n"), (0, 0)),
    "KillerSink": (lambda: KillerSink("n"), (False, 0, 0, 0)),
    "NondetSink(can_kill)": (lambda: NondetSink("n", can_kill=True), (False,)),
}


def node_classes():
    """Every :class:`Node` subclass defined in ``repro``, private bases
    included."""
    found, frontier = set(), [Node]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            frontier.append(sub)
            if sub.__module__.startswith(repro.__name__ + "."):
                found.add(sub)
    return found


class TestDerivedState:
    @pytest.mark.parametrize("label", sorted(RESET_SNAPSHOTS))
    def test_reset_snapshot(self, label):
        factory, expected = RESET_SNAPSHOTS[label]
        node = factory()
        assert node.snapshot() == expected
        node.reset()
        assert node.snapshot() == expected

    @pytest.mark.parametrize("label", sorted(RESET_SNAPSHOTS))
    def test_restore_round_trip(self, label):
        factory, expected = RESET_SNAPSHOTS[label]
        node = factory()
        node.restore(expected)
        assert node.snapshot() == expected

    def test_no_kind_overrides_the_derived_methods(self):
        for cls in node_classes():
            for name in ("reset", "snapshot", "restore"):
                assert getattr(cls, name) is getattr(Stateful, name), \
                    f"{cls.__name__}.{name}"

    def test_mutable_reset_values_are_fresh(self):
        a, b = Sink("a"), Sink("b")
        a.received.append((0, 3))
        assert b.received == []
        a.reset()
        assert a.received == []

    def test_restore_rejects_a_state_of_another_arity(self):
        with pytest.raises(ValueError):
            PermissionSource("p").restore((False,))

    def test_bare_slot_needs_exactly_one_slot(self):
        with pytest.raises(TypeError, match="bare_slot"):
            type("TwoBare", (Node,), {"state_slots": {"_a": 0, "_b": 0},
                                      "bare_slot": True})

    def test_shared_module_state_is_its_schedulers(self):
        shared = SharedModule("s", abs, TwoBitScheduler())
        shared.grants = 5
        shared.restore((3, 1))
        assert (shared.scheduler._counter, shared.scheduler._repair) == (3, 1)
        assert shared.snapshot() == (3, 1)
        shared.reset()
        assert shared.snapshot() == (1, None)
        assert shared.grants == 0


# -- the parent's snapshots on every canned netlist ------------------------------

#: label -> (digest after reset, digest after 40 worklist cycles), each
#: over ``repr`` of the sorted ``(node, repr(node.snapshot()))`` pairs
NETLIST_DIGESTS = {
    "design:fig1a": ("0a51d7d7f705ac19", "be8aa4381e2be702"),
    "design:fig1d": ("b524fae08a02bef5", "9dc20370ec12efba"),
    "design:fig6b": ("3e75ff74fa548882", "72b5e16d98dd7c53"),
    "design:fig7b": ("188bbf3bb4db8c5e", "5007b6ee9bea35ca"),
    "mc:eb": ("69c040f37b7cc0a8", None),
    "mc:spec-nondet": ("a1c67db4cae6b719", None),
    "mc:spec-static": ("a1c67db4cae6b719", None),
    "mc:spec-toggle": ("a1c67db4cae6b719", None),
    "mc:zbl": ("cc441779f4dd33e6", None),
    "preset:fig1-accuracy:0": ("b524fae08a02bef5", "599f74ad6849dfd6"),
    "preset:fig1-accuracy:1": ("b524fae08a02bef5", "599f74ad6849dfd6"),
    "preset:fig1-accuracy:2": ("b524fae08a02bef5", "4d540e0935142c7f"),
    "preset:fig1-accuracy:3": ("b524fae08a02bef5", "4d540e0935142c7f"),
    "preset:fig1-accuracy:4": ("b524fae08a02bef5", "c5f9f5e47a2fa930"),
    "preset:fig1-accuracy:5": ("b524fae08a02bef5", "c5f9f5e47a2fa930"),
    "preset:fig1-accuracy:6": ("b524fae08a02bef5", "b8a03278e1a7ee21"),
    "preset:fig1:0": ("0a51d7d7f705ac19", "be8aa4381e2be702"),
    "preset:fig1:1": ("1c219af7bb3980e1", "bca15c3a5b745550"),
    "preset:fig1:2": ("5962945d9f85d017", "26425fcc7ec7112d"),
    "preset:fig1:3": ("6f5d8d1abb65d097", "1bc90d43d07fe96f"),
    "preset:fig6-lanes:0": ("3e75ff74fa548882", "763a426081ac7447"),
    "preset:fig6-lanes:1": ("3e75ff74fa548882", "a05e2b3c90390c11"),
    "preset:fig6-lanes:2": ("3e75ff74fa548882", "9e070b1851ba76e9"),
    "preset:fig6-lanes:3": ("3e75ff74fa548882", "b4005b7443f56c92"),
    "preset:fig6-lanes:4": ("3e75ff74fa548882", "97dc478d8f8e6f61"),
    "preset:fig6-lanes:5": ("3e75ff74fa548882", "ce3105fee3bf5a98"),
    "preset:fig6-lanes:6": ("3e75ff74fa548882", "2194858efd919692"),
    "preset:fig6-lanes:7": ("3e75ff74fa548882", "fdd85a23d530c20a"),
    "preset:fig6:0": ("85f7ce0c2c024aca", "98577f4f4d9442bf"),
    "preset:fig6:1": ("85f7ce0c2c024aca", "98577f4f4d9442bf"),
    "preset:fig6:10": ("85f7ce0c2c024aca", "3a0b70157660ea5c"),
    "preset:fig6:11": ("85f7ce0c2c024aca", "4ddd86a619359e23"),
    "preset:fig6:12": ("3e75ff74fa548882", "763a426081ac7447"),
    "preset:fig6:13": ("3e75ff74fa548882", "763a426081ac7447"),
    "preset:fig6:14": ("3e75ff74fa548882", "2793e71fda9a20fa"),
    "preset:fig6:15": ("3e75ff74fa548882", "a05e2b3c90390c11"),
    "preset:fig6:16": ("3e75ff74fa548882", "5938ed500ea98ea5"),
    "preset:fig6:17": ("3e75ff74fa548882", "b4005b7443f56c92"),
    "preset:fig6:18": ("3e75ff74fa548882", "8a89107e9f37128c"),
    "preset:fig6:19": ("3e75ff74fa548882", "97dc478d8f8e6f61"),
    "preset:fig6:2": ("85f7ce0c2c024aca", "6338b670981d5877"),
    "preset:fig6:20": ("3e75ff74fa548882", "b6410c47c31b5c96"),
    "preset:fig6:21": ("3e75ff74fa548882", "51b78fe389b8e213"),
    "preset:fig6:22": ("3e75ff74fa548882", "6fd0e9ffd312b91c"),
    "preset:fig6:23": ("3e75ff74fa548882", "fdd85a23d530c20a"),
    "preset:fig6:3": ("85f7ce0c2c024aca", "60e3d625a14c53bb"),
    "preset:fig6:4": ("85f7ce0c2c024aca", "fec6965edd85d1e0"),
    "preset:fig6:5": ("85f7ce0c2c024aca", "a463406a9a8853cd"),
    "preset:fig6:6": ("85f7ce0c2c024aca", "b644a9e8c3b46164"),
    "preset:fig6:7": ("85f7ce0c2c024aca", "9ffd9696c3ae66f3"),
    "preset:fig6:8": ("85f7ce0c2c024aca", "eb6aa9e6df86e423"),
    "preset:fig6:9": ("85f7ce0c2c024aca", "9429938c09ecb0d6"),
    "preset:fig7:0": ("ca87c49f2bc4d093", "5d7753f8eddf4a92"),
    "preset:fig7:1": ("ca87c49f2bc4d093", "28628919a86b8b5f"),
    "preset:fig7:10": ("188bbf3bb4db8c5e", "0c7a714b5865f3c9"),
    "preset:fig7:11": ("188bbf3bb4db8c5e", "5c5d3922cc6999d1"),
    "preset:fig7:2": ("ca87c49f2bc4d093", "a62b81ab44f20a69"),
    "preset:fig7:3": ("ca87c49f2bc4d093", "81583da21371a87c"),
    "preset:fig7:4": ("ca87c49f2bc4d093", "7a3bca3ab67093cc"),
    "preset:fig7:5": ("ca87c49f2bc4d093", "00f2a858aca116e6"),
    "preset:fig7:6": ("188bbf3bb4db8c5e", "f8d057ab4565c7c4"),
    "preset:fig7:7": ("188bbf3bb4db8c5e", "599d0016f7fa01ec"),
    "preset:fig7:8": ("188bbf3bb4db8c5e", "c298de98b9c26789"),
    "preset:fig7:9": ("188bbf3bb4db8c5e", "686a04b55e0d253d"),
    "wrap:fig1a": ("2b593cf773605466", "28e0ec1ced88bdea"),
    "wrap:fig1d": ("2b9ef16b98d36c35", "f647f07208dbc784"),
    "wrap:fig6b": ("b083d6f7309ffd2a", "7ccfaa12b63a64df"),
    "wrap:fig7b": ("02399be2181a8db3", "645c7eacef28ef1c"),
}


def canned_netlists():
    """The 64 DESIGNS / MC_DESIGNS / preset netlists plus the seed-7
    stall+bubble wrap of each DESIGNS entry."""
    for name, make in DESIGNS.items():
        yield f"design:{name}", make()
    for name, make in MC_DESIGNS.items():
        yield f"mc:{name}", make()
    for preset, build in PRESET_SWEEPS.items():
        spec = build()
        for i, config in enumerate(spec.expand()):
            made = spec.factory(**config.params)
            yield (f"preset:{preset}:{i}",
                   made[0] if isinstance(made, tuple) else made)
    for name, make in DESIGNS.items():
        net = make()
        wrap(net, ChaosPlan.seeded(7, list(net.channels),
                                   kinds=("stall", "bubble"),
                                   coverage=1.0, rate=0.25))
        yield f"wrap:{name}", net


def _digest(net):
    pairs = sorted((name, repr(node.snapshot()))
                   for name, node in net.nodes.items())
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]


class TestCannedNetlists:
    def test_table_covers_every_netlist(self):
        labels = [label for label, _net in canned_netlists()]
        assert len(labels) == 68
        assert sorted(labels) == sorted(NETLIST_DIGESTS)

    @pytest.mark.parametrize("label", sorted(NETLIST_DIGESTS))
    def test_snapshots_match_the_hand_written_ones(self, label):
        net = dict(canned_netlists())[label]
        reset_digest, run_digest = NETLIST_DIGESTS[label]
        for node in net.nodes.values():
            node.reset()
        assert _digest(net) == reset_digest
        if run_digest is not None:
            Simulator(net, check_protocol=False, engine="worklist").run(40)
            assert _digest(net) == run_digest


#: explored states per model-checking design (the ``verify`` verdicts):
#: a canonical form that moves changes these counts
MC_STATE_COUNTS = {"eb": 97, "zbl": 49, "spec-toggle": 257,
                   "spec-nondet": 257, "spec-static": 97}


@pytest.mark.parametrize("design", sorted(MC_STATE_COUNTS))
def test_explored_state_counts(design):
    assert set(MC_STATE_COUNTS) == set(MC_DESIGNS)
    result = StateExplorer(build_mc_design(design)).explore()
    assert result.complete
    assert result.n_states == MC_STATE_COUNTS[design]


# -- the flat netlist snapshot -------------------------------------------------


def _slot_count(node):
    if type(node).snapshot is not Stateful.snapshot:
        return 1
    return len(node.state_host().state_slots)


class BinarySelect(NondetSource):
    """A user subclass keeping its own snapshot (the examples' select
    source): the netlist calls it instead of reading slots."""

    def snapshot(self):
        return (self._offering, self._counter)

    def restore(self, state):
        self._offering, self._counter = state


class TestFlatSnapshot:
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_one_flat_tuple_of_slot_values(self, design):
        net = DESIGNS[design]()
        snap = net.snapshot()
        nodes = [node for _name, node in sorted(net.nodes.items())]
        assert len(snap) == sum(_slot_count(node) for node in nodes)
        assert not set(net.nodes) & {v for v in snap if isinstance(v, str)}
        flat = []
        for node in nodes:
            host = node.state_host()
            flat += [getattr(host, slot) for slot in host.state_slots]
        assert tuple(flat) == snap

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_restore_rewinds_every_node(self, design):
        net = DESIGNS[design]()
        sim = Simulator(net)
        sim.run(15)
        snap = net.snapshot()
        per_node = {name: node.snapshot() for name, node in net.nodes.items()}
        sim.run(15)
        net.restore(snap)
        assert net.snapshot() == snap
        assert {name: node.snapshot()
                for name, node in net.nodes.items()} == per_node

    def test_restore_rejects_another_structure(self):
        net = DESIGNS["fig1a"]()
        with pytest.raises(ValueError):
            net.restore(net.snapshot()[:-1])

    def test_accessor_follows_structural_edits(self):
        net = DESIGNS["fig1a"]()
        before = net.snapshot()
        net.add(ElasticBuffer("zz_extra", init=[9]))
        assert net.snapshot() == before + (1, (9,))

    def test_clone_reads_its_own_nodes(self):
        net = MC_DESIGNS["eb"]()
        snap = net.snapshot()
        other = net.clone()
        other.nodes["eb"].restore((1, (0,)))
        assert net.snapshot() == snap
        assert other.snapshot() != snap

    def test_overriding_node_is_called(self):
        net = Netlist("user")
        net.add(BinarySelect("src"))
        net.add(NondetSink("snk"))
        net.connect("src.o", "snk.i", name="c")
        net.nodes["src"]._counter = 6
        # sorted node order: snk (one slot), then src (its own tuple)
        assert net.snapshot() == (False, (False, 6))
        net.restore((True, (True, 9)))
        assert (net.nodes["src"]._offering, net.nodes["src"]._counter) == (True, 9)
        assert net.nodes["snk"]._killing is True

    def test_shared_module_slots_are_read_from_the_scheduler(self):
        net = MC_DESIGNS["spec-toggle"]()
        shared = next(node for node in net.nodes.values()
                      if isinstance(node, SharedModule))
        assert isinstance(shared.scheduler, ToggleScheduler)
        snap = net.snapshot()
        shared.scheduler._current = 1
        assert net.snapshot() != snap
        net.restore(snap)
        assert shared.scheduler._current == 0


# -- undeclared state audit ------------------------------------------------------


class CountingBuffer(ElasticBuffer):
    """Seeded offender: its tick keeps a private counter it never
    declares, so the snapshot drops it."""

    def tick(self):
        super().tick()
        self._ticks = getattr(self, "_ticks", 0) + 1


class ResettingSink(Sink):
    def reset(self):
        super().reset()
        self._armed, self.public_counter = True, 0


class OwnSnapshotBuffer(CountingBuffer):
    def snapshot(self):
        return super().snapshot() + (self._ticks,)

    def restore(self, state):
        super().restore(state[:-1])
        self._ticks = state[-1]


class DeclaredBuffer(CountingBuffer):
    state_slots = {**ElasticBuffer.state_slots, "_ticks": 0}


class TestUndeclaredStateAudit:
    @pytest.mark.parametrize("cls", sorted(node_classes(),
                                           key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_every_kind_declares_its_state(self, cls):
        assert undeclared_state(cls) == []

    def test_mutants_are_covered(self):
        assert {LatencySensitiveBuffer, BrokenKillBuffer} <= node_classes()

    def test_flags_an_undeclared_tick_attribute(self):
        assert undeclared_state(CountingBuffer) == ["_ticks"]

    def test_flags_an_undeclared_reset_attribute(self):
        assert undeclared_state(ResettingSink) == ["_armed"]

    def test_an_override_states_its_own_state(self):
        assert undeclared_state(OwnSnapshotBuffer) == []

    def test_a_declared_slot_is_clean(self):
        assert undeclared_state(DeclaredBuffer) == []
        buf = DeclaredBuffer("b")
        assert buf.snapshot() == (0, (), 0)


# -- plain-attribute state ----------------------------------------------------------

#: the slots that *canonicalize* rather than store, so they stay properties
#: (definer class, slot) -> why: storing the canonical value instead would
#: change what the node does between snapshots
CANONICALIZING_SLOTS = {
    (NondetSource, "_token_phase"):
        "the running counter is the token data; the snapshot keeps it "
        "modulo 4, so the explored state space stays finite",
    (_RecordingSink, "_n_received"):
        "the snapshot keeps the transfer stream's length; a restore "
        "truncates received",
}


def state_host_classes():
    """Every class whose declared slots a snapshot reads: the node kinds
    and the shared module's schedulers."""
    found, frontier = set(node_classes()), [Scheduler]
    while frontier:
        cls = frontier.pop()
        frontier += cls.__subclasses__()
        if cls.__module__.startswith(repro.__name__ + "."):
            found.add(cls)
    return found


def _definer(cls, name):
    return next(k for k in cls.__mro__ if name in k.__dict__)


class TestPlainSlots:
    @pytest.mark.parametrize("cls", sorted(state_host_classes(),
                                           key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_no_slot_is_a_property(self, cls):
        for name in cls.state_slots:
            view = inspect.getattr_static(cls, name, None)
            if isinstance(view, property):
                assert (_definer(cls, name), name) in CANONICALIZING_SLOTS, \
                    f"{cls.__name__}.{name} is a property"

    def test_the_allowlist_is_live(self):
        for (cls, name), reason in CANONICALIZING_SLOTS.items():
            assert name in cls.state_slots and reason
            assert isinstance(cls.__dict__[name], property)


def stall_wrap(design):
    """``design`` under the nondeterministic stall plan an exhaustive
    chaos exploration explores."""
    net = DESIGNS[design]()
    wrap(net, ChaosPlan.seeded(0, sorted(net.channels), kinds=("stall",),
                               coverage=0.3, budget=2), nondet=True)
    return net


def _python_frames(fn, *args):
    """The code objects of every Python frame ``fn(*args)`` runs."""
    codes = []

    def profile(frame, event, _arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return codes


_PHASE = (NondetSource, "_token_phase")
_RECEIVED = (_RecordingSink, "_n_received")


@pytest.mark.parametrize("label, canonicalizing", [
    ("stall:fig1d", {}),
    ("stall:fig6b", {_RECEIVED: 1}),
    ("mc:zbl", {_PHASE: 1}),
    ("mc:spec-toggle", {_PHASE: 2}),
])
def test_snapshot_and_restore_run_only_the_accessor(label, canonicalizing):
    """A count of Python frames, not a timing: a snapshot or restore runs
    ``Netlist.snapshot``/``restore``, ``Netlist.state_access`` and the
    compiled accessor, plus one getter or setter per canonicalizing slot
    of a node — no other getter, setter or method."""
    kind, design = label.split(":")
    net = stall_wrap(design) if kind == "stall" else MC_DESIGNS[design]()
    snap = net.snapshot()          # binds the accessor
    net.restore(snap)
    views = {key: key[0].__dict__[key[1]] for key in CANONICALIZING_SLOTS}
    for method, args, role in ((net.snapshot, (), "fget"),
                               (net.restore, (snap,), "fset")):
        frames = Counter()
        for code in _python_frames(method, *args):
            if code.co_filename == "<netlist state>":
                frames["accessor"] += 1
            elif code in (getattr(Netlist, method.__name__).__code__,
                          Netlist.state_access.__code__):
                frames["netlist"] += 1
            else:
                frames[next((key for key, view in views.items()
                             if code is getattr(view, role).__code__),
                            f"{code.co_filename}:{code.co_name}")] += 1
        assert frames == Counter({"netlist": 2, "accessor": 1,
                                  **canonicalizing}), method.__name__


ALIASING_NETLISTS = sorted([f"design:{name}" for name in DESIGNS]
                           + [f"mc:{name}" for name in MC_DESIGNS])


@pytest.mark.parametrize("engine", ["worklist", "codegen"])
@pytest.mark.parametrize("label", ALIASING_NETLISTS)
def test_ticks_never_mutate_a_stored_state(label, engine):
    """A snapshot shares its values with the nodes' slots, so no tick may
    change a value in place: 40 cycles later, a snapshot still equals its
    deep copy from capture time.  A design runs (one compiled run-entry
    call on codegen); a model-checking composition steps with seeded
    random choices (the expansion entry)."""
    kind, design = label.split(":")
    net = (DESIGNS if kind == "design" else MC_DESIGNS)[design]()
    sim = Simulator(net, check_protocol=False, engine=engine)
    rng = random.Random(label)
    choosers = [node for node in net.nodes.values()
                if type(node).choice_space is not Node.choice_space]

    def cycles(n):
        """Run ``n`` cycles; the states they end in."""
        if not choosers:
            sim.run(n)
            return {net.snapshot()}
        visited = set()
        for _ in range(n):
            sim.step_with_choices({node.name: rng.randrange(
                node.choice_space()) for node in choosers})
            visited.add(net.snapshot())
        return visited

    cycles(5)                      # spec-static starves from cycle 7
    snap = net.snapshot()
    frozen = copy.deepcopy(snap)
    assert cycles(40) - {frozen}   # the run left the captured state
    assert snap == frozen


# -- content keys over the state shape ----------------------------------------------

#: serve job keys under the ``serve-v2`` format (node-named snapshots)
SERVE_V2_KEYS = {
    "lint:fig1a": "3c2d3ee62910190d4ce7ae95db8b0361f02740d44239bbe2bbfbe73b9ea134b6",
    "lint:fig1d": "b61373e4dad047fec2cf13f9b77574503842d97ab07e7447e8ae20716301e9e9",
    "lint:fig6b": "c8d56493da31d428a756fa3ec2b6fedd069544ce55277973467090aa07c89eb7",
    "lint:fig7b": "957dce9235e937c6f8a712034adf443ae8a4df98bcb234a84cc315cae727ca71",
    "measure:fig1a": "3029f612ab16c88a83279ea292ee1aa06aacfa30b0e82cea20e0d915be070bd3",
    "measure:fig1d": "a88b20fd7aff7ed0c0d59ef45e79cf0de38dea281e8b8e9380bb819cc0dfa49a",
    "measure:fig6b": "5dd2f1e1d9a337e2a55b8e95e5082ef0ba28516e3ba9a994ab42487fde9d17f6",
    "measure:fig7b": "b7b5a3710f4387f8014a69c48f934bdc565b9f391a9738f7f60ac774aae86d80",
    "verify:eb": "e31a9dd7fca9bb50769eb301d4b7eb0ebdc376565e91f91cf5d55a3bb2faf4a9",
    "verify:spec-nondet": "c51c5adcb78c0f9fc1bb2655d56b751dc7537a5174b4862cb5ac9fbf99e9cb47",
    "verify:spec-static": "a576362b4a398497cf02c1da986b554dc68dbfbb984b052e24698a242d3192cc",
    "verify:spec-toggle": "525be1bfc366e41862b3ee62e870b2637ff68498d5956cbb9a58949c705d3360",
    "verify:zbl": "c1a9eb96ae27e1e970f13141af9e70d39c263f2a8fc77db05996778710574489",
}


def _key(label):
    kind, design = label.split(":")
    return job_key(validate_job({"kind": kind, "design": design}))


class TestKeys:
    def test_every_design_is_keyed(self):
        assert {label.split(":")[1] for label in SERVE_V2_KEYS} \
            == set(DESIGNS) | set(MC_DESIGNS)

    @pytest.mark.parametrize("label", sorted(SERVE_V2_KEYS))
    def test_serve_keys_moved_and_are_stable(self, label):
        key = _key(label)
        assert key != SERVE_V2_KEYS[label]
        assert _key(label) == key

    def test_v1_checkpoint_is_not_resumed(self, tmp_path):
        """The fixture was written by the node-named-snapshot explorer
        (kind ``explore``): an exploration of MC design ``eb`` interrupted
        at state 12.  It cannot resume; the exploration starts fresh,
        reaches the same verdict and leaves a current checkpoint."""
        self._starts_fresh(tmp_path, "explore_v1_eb.ckpt")

    def test_v2_checkpoint_is_not_resumed(self, tmp_path):
        """The fixture was written by the explorer whose transitions
        carried events (kind ``explore-v2``), interrupted at state 12 of
        MC design ``eb``: it starts fresh too."""
        self._starts_fresh(tmp_path, "explore_v2_eb.ckpt")

    @staticmethod
    def _starts_fresh(tmp_path, fixture):
        path = tmp_path / "eb.ckpt"
        shutil.copy(os.path.join(DATA, fixture), path)
        fresh = StateExplorer(build_mc_design("eb")).explore()
        net = build_mc_design("eb")
        resumed = StateExplorer(net, checkpoint=str(path)).explore()
        assert ((resumed.n_states, resumed.complete, resumed.violations,
                 len(resumed.transitions))
                == (fresh.n_states, fresh.complete, fresh.violations,
                    len(fresh.transitions)))
        net.reset()
        assert resumed.states[0] == (net.snapshot(), None)
        with open(path, "rb") as fh:
            assert fh.read().split(b"\n")[1] == b"explore-v4"
