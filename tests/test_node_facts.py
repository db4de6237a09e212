"""Per-kind facts live on the node class; chaos splices carry a marker.

Lint, the transformations and the dot export ask a node's class, its
lint descriptors (``width_pairs``, ``anti_token_paths``, ``kill_ports``,
``arity_checks``) and its ``splice_of`` marker, never its ``kind`` label,
which a chaos splice overwrites.  The table pins every concrete node
class's descriptors; the splice tests check that each transformation
refuses every node a chaos wrap adds, on all four canned designs.
"""

import pytest

import repro
from repro.chaos import BrokenKillBuffer, ChaosPlan, LatencySensitiveBuffer, wrap
from repro.chaos.mutants import broken_kill_design, latency_sensitive_design
from repro.core.scheduler import ToggleScheduler
from repro.core.shared import SharedModule
from repro.core.speculation import find_speculation_candidates
from repro.designs import DESIGNS, MC_DESIGNS
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
)
from repro.elastic.node import Node
from repro.errors import TransformError
from repro.lint import run_lint
from repro.netlist.dot import to_dot
from repro.transform.bubbles import remove_empty_buffer
from repro.transform.early_eval import convert_to_early_eval
from repro.transform.retiming import retime_backward, retime_forward
from repro.transform.shannon import shannon_decompose
from repro.transform.sharing import share_blocks

IO = [("i", "o")]

#: label -> (factory, width pairs, anti-token paths, kill ports, arity checks)
FACTS = {
    "ElasticBuffer": (lambda: ElasticBuffer("n"), IO, IO, [], ()),
    "ZeroBackwardLatencyBuffer": (
        lambda: ZeroBackwardLatencyBuffer("n"), IO, IO, [], ()),
    "AbstractElasticFifo": (lambda: AbstractElasticFifo("n"), IO, IO, [], ()),
    # a Figure 5 controller that latches a cycle-dependent value: the
    # buffer's facts are inherited unchanged
    "LatencySensitiveBuffer": (
        lambda: LatencySensitiveBuffer("n"), IO, IO, [], ()),
    # refuses every anti-token at its output: no counterflow path
    "BrokenKillBuffer": (lambda: BrokenKillBuffer("n"), IO, [], [], ()),
    "Func": (
        lambda: Func("n", lambda a, b: a, n_inputs=2),
        [], [("i0", "o"), ("i1", "o")], [],
        (("n_inputs", "in_ports", 0),)),
    "EagerFork": (
        lambda: EagerFork("n", n_outputs=3),
        [("i", "o0"), ("i", "o1"), ("i", "o2")], [], [],
        (("n_outputs", "out_ports", 0),)),
    "EarlyEvalMux": (
        lambda: EarlyEvalMux("n", n_inputs=2),
        [("i0", "o"), ("i1", "o")], [], ["i0", "i1"],
        (("n_inputs", "in_ports", 1),)),
    "SharedModule": (
        lambda: SharedModule("n", abs, ToggleScheduler(2), n_channels=2),
        [], [("i0", "o0"), ("i1", "o1")], [],
        (("n_channels", "in_ports", 0), ("n_channels", "out_ports", 0))),
    "VariableLatencyUnit": (
        lambda: VariableLatencyUnit("n", abs, lambda x: False),
        [], [], [], ()),
    "ListSource": (lambda: ListSource("n", [1]), [], [], [], ()),
    "FunctionSource": (lambda: FunctionSource("n", abs), [], [], [], ()),
    "PermissionSource": (lambda: PermissionSource("n"), [], [], [], ()),
    "NondetSource": (lambda: NondetSource("n"), [], [], [], ()),
    "NondetChoiceSource": (lambda: NondetChoiceSource("n"), [], [], [], ()),
    "Sink": (lambda: Sink("n"), [], [], [], ()),
    "KillerSink": (lambda: KillerSink("n"), [], [], ["i"], ()),
    "NondetSink": (lambda: NondetSink("n"), [], [], [], ()),
    "NondetSink(can_kill)": (
        lambda: NondetSink("n", can_kill=True), [], [], ["i"], ()),
}


def concrete_node_classes():
    """Every public :class:`Node` subclass defined in ``repro``."""
    found, frontier = set(), [Node]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            frontier.append(sub)
            if (sub.__module__.startswith(repro.__name__ + ".")
                    and not sub.__name__.startswith("_")):
                found.add(sub.__name__)
    return found


class TestPerClassFacts:
    def test_every_concrete_class_is_pinned(self):
        pinned = {label.partition("(")[0] for label in FACTS}
        assert pinned == concrete_node_classes()

    @pytest.mark.parametrize("label", sorted(FACTS))
    def test_facts(self, label):
        factory, widths, anti, kills, arity = FACTS[label]
        node = factory()
        assert node.width_pairs() == widths
        assert node.anti_token_paths() == anti
        assert node.kill_ports() == kills
        assert node.arity_checks == arity
        assert node.splice_of is None


# -- chaos splices -------------------------------------------------------------

WRAPS = {"stall+bubble": ("stall", "bubble"), "corrupt": ("corrupt",)}


def wrapped(design, kinds):
    net = DESIGNS[design]()
    handle = wrap(net, ChaosPlan.seeded(7, list(net.channels), kinds=kinds,
                                        coverage=1.0, rate=0.0))
    return net, handle.splices


def refused(net, transform, *args):
    version = net.version
    with pytest.raises(TransformError):
        transform(net, *args)
    return net.version == version


@pytest.mark.parametrize("kinds", sorted(WRAPS))
@pytest.mark.parametrize("design", sorted(DESIGNS))
class TestSpliceRefusal:
    def test_transforms_refuse_every_splice(self, design, kinds):
        net, splices = wrapped(design, WRAPS[kinds])
        muxes = [node.name for node in net.nodes.values()
                 if isinstance(node, EarlyEvalMux) or getattr(node, "is_mux", False)]
        assert splices and muxes
        for name in splices:
            assert refused(net, remove_empty_buffer, name)
            assert refused(net, retime_forward, name)
            assert refused(net, retime_backward, name)
            assert refused(net, shannon_decompose, name, name)
            for mux in muxes:
                assert refused(net, shannon_decompose, mux, name)
            assert refused(net, share_blocks, [name, name], ToggleScheduler(2))
            assert refused(net, convert_to_early_eval, name)

    def test_retime_backward_refuses_a_splice_feeding_an_empty_eb(self, design, kinds):
        net, splices = wrapped(design, WRAPS[kinds])
        fed = [node.name for node in net.nodes.values()
               if isinstance(node, ElasticBuffer) and node.name not in splices
               and node.count == 0
               and node.channel("i").producer[0] in splices]
        for name in fed:
            assert refused(net, retime_backward, name)

    def test_no_speculation_candidate_is_a_splice(self, design, kinds):
        net, splices = wrapped(design, WRAPS[kinds])
        for pair in find_speculation_candidates(net):
            assert not set(pair) & set(splices)

    def test_fork_join_rule_ignores_splice_joins(self, design, kinds):
        net, _splices = wrapped(design, WRAPS[kinds])
        assert not run_lint(net, rules=["fork-join"]).diagnostics


@pytest.mark.parametrize("design", [broken_kill_design, latency_sensitive_design])
def test_transforms_refuse_a_mutant_buffer(design):
    # a subclass inherits the buffer's lint facts, not its proofs
    assert refused(design(), remove_empty_buffer, "buf")


class TestSpliceMarker:
    def test_wrap_marks_every_splice_with_its_channel(self):
        net = DESIGNS["fig1a"]()
        plan = ChaosPlan.seeded(7, list(net.channels), coverage=1.0)
        handle = wrap(net, plan)
        marked = {name: node.splice_of for name, node in net.nodes.items()
                  if node.splice_of is not None}
        assert set(marked) == set(handle.splices)
        assert {fault.channel for fault in plan.faults} == set(marked.values())

    def test_w211_follows_the_marker_not_the_label(self):
        net, splices = wrapped("fig1d", WRAPS["stall+bubble"])
        for name in splices:
            net.nodes[name].kind = "func"
        flagged = {d.node for d in run_lint(net, rules=["chaos"]).diagnostics}
        assert flagged == set(splices)

    def test_w211_ignores_a_design_node_labelled_chaos(self):
        net = DESIGNS["fig1d"]()
        for node in net.nodes.values():
            node.kind = "chaos_x"
        assert not run_lint(net, rules=["chaos"]).diagnostics

    def test_w211_message_keeps_the_chaos_label(self):
        net, splices = wrapped("fig1a", WRAPS["corrupt"])
        messages = [d.message for d in run_lint(net, rules=["chaos"]).diagnostics]
        assert len(messages) == len(splices)
        assert all(message.startswith("chaos_") for message in messages)


# -- dot -----------------------------------------------------------------------


def dot_shapes(net):
    return {line.split('"')[1]: line.split("shape=")[1].split(",")[0]
            for line in to_dot(net).splitlines() if "shape=" in line}


class TestDotShapes:
    @pytest.mark.parametrize("name", sorted(DESIGNS) + sorted(MC_DESIGNS))
    def test_environments_are_cds(self, name):
        net = {**DESIGNS, **MC_DESIGNS}[name]()
        shapes = dot_shapes(net)
        for node in net.nodes.values():
            assert (shapes[node.name] == "cds") == node.is_environment, node

    def test_choice_source_is_drawn_like_its_parent(self):
        shapes = dot_shapes(MC_DESIGNS["spec-toggle"]())
        assert shapes["sel"] == shapes["a"] == "cds"

    def test_splices_are_drawn_plainly(self):
        net, splices = wrapped("fig1a", WRAPS["stall+bubble"])
        shapes = dot_shapes(net)
        dot = to_dot(net)
        for name in splices:
            node = net.nodes[name]
            shape = "cds" if node.is_environment else "ellipse"
            assert shapes[name] == shape
            assert f'"{name}" [shape={shape}, label="{name}"];' in dot
