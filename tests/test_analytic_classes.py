"""The analytic models classify nodes by class, never by ``kind`` tag.

Chaos splices retag their nodes per instance (a ``chaos_bubble`` is an
:class:`ElasticBuffer`, a ``chaos_stall`` join a :class:`Func`), so the
cycle-time, marked-graph, area and retry-exemption analyses must read the
node class and its declared timing arcs.  The pins hold the static figures
of every canned design, and an AST guard keeps ``kind`` switches out of
every ``repro`` package: only the modules in :data:`KIND_ALLOWLIST`, whose
``kind`` is not a node kind or which map node kinds to HDL primitives,
may switch on one.
"""

import ast
import pathlib
from fractions import Fraction

import pytest

import repro
from repro.chaos import ChaosPlan, wrap
from repro.designs import DESIGNS, MC_DESIGNS
from repro.elastic import environment
from repro.errors import NetlistError
from repro.netlist import patterns
from repro.perf.area import total_area
from repro.perf.mcr import min_cycle_ratio
from repro.perf.throughput import measure_throughput
from repro.perf.timing import analyze_timing
from repro.verif.properties import retry_exempt_channels


def strip_kind_tags(net):
    """Drop the instance-level ``kind`` attributes chaos splices set;
    returns how many nodes carried one."""
    return sum(vars(node).pop("kind", None) is not None
               for node in net.nodes.values())


def wrapped_ring(kinds):
    net = patterns.token_ring(4, 2)
    wrap(net, ChaosPlan.seeded(3, list(net.channels), kinds=kinds,
                               coverage=1.0, rate=0.0))
    return net


class TestChaosWrappedAnalysis:
    def test_bubble_wrapped_ring_ratio_matches_simulation(self):
        # four splice bubbles double the ring's stages: 2 tokens / 8 EBs
        net = wrapped_ring(("bubble",))
        ratio = min_cycle_ratio(net)
        assert ratio == Fraction(1, 4)
        measured = measure_throughput(net, "ring0", cycles=3000).throughput
        assert measured == pytest.approx(float(ratio), abs=1 / 3000)

    def test_stall_bubble_wrapped_ring_timed_as_untagged(self):
        net = wrapped_ring(("stall", "bubble"))
        tagged = analyze_timing(net).cycle_time
        assert strip_kind_tags(net) > 0
        assert tagged == analyze_timing(net).cycle_time
        assert tagged == pytest.approx(1.8)

    @pytest.mark.parametrize("kinds", [("stall", "bubble"), ("corrupt",)],
                             ids=["stall+bubble", "corrupt"])
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_tags_do_not_change_the_figures(self, design, kinds):
        net = DESIGNS[design]()
        wrap(net, ChaosPlan.seeded(7, list(net.channels), kinds=kinds,
                                   coverage=0.6, rate=0.25))

        def figures():
            try:
                ratio = min_cycle_ratio(net, force=True)
            except NetlistError as err:
                # the cloud contraction's verdict on a splice bubble
                # that sits on one branch of a fork/join
                ratio = str(err)
            return (analyze_timing(net).cycle_time, total_area(net), ratio,
                    retry_exempt_channels(net))

        tagged = figures()
        assert strip_kind_tags(net) > 0
        assert tagged == figures()


#: design -> (cycle time, total area, retry-exempt channels, critical path)
PINNED = {
    "fig1a": (
        11.1, 329.7, [],
        "G.i0[D] G.o[D] mux.i0[D] mux.o[D] F.i0[D] F.o[D]"),
    "fig1d": (
        8.8, 390.7, ["fin0__tail", "fin1__tail", "mux_f"],
        "G.i0[D] G.o[D] mux.s[D] mux.i0[B] shared_F_c0.o0[B] "
        "shared_F_c0.i0[B] P0.o[B] P0.i0[B] fork.o1[B] fork.i[B]"),
    "fig6b": (
        24.900000000000002, 784.2999999999998, ["fout0", "fout1", "mux_out"],
        "Ferr.i0[D] Ferr.o[D] mux.s[D] mux.i0[B] sharedG.o0[B] "
        "sharedG.i0[B] Fapprox.o[B] Fapprox.i0[B] fork.o0[B] fork.i[B]"),
    "fig7b": (
        17.2, 7979.599999999916, ["fout0", "fout1", "mux_out"],
        "detect.i0[D] detect.o[D] mux.s[D] mux.i0[B] sharedAdd.o0[B] "
        "sharedAdd.i0[B] raw.o[B] raw.i0[B] fork.o0[B] fork.i[B]"),
    "eb": (1.0, 51.2, [], "src.o[D]"),
    "zbl": (2.5, 51.0, [], "eb.o[B] eb.i[B]"),
    **{name: (4.4, 86.0, ["fout0", "fout1", "out"],
              "sh.i0[V] sh.o0[V] mux.i0[V] mux.i0[B] sh.o0[B] sh.i0[B]")
       for name in ("spec-toggle", "spec-nondet", "spec-static")},
}


class TestPinnedFigures:
    def test_every_canned_design_is_pinned(self):
        assert set(PINNED) == set(DESIGNS) | set(MC_DESIGNS)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_static_figures(self, name):
        net = {**DESIGNS, **MC_DESIGNS}[name]()
        cycle, area, exempt, path = PINNED[name]
        timing = analyze_timing(net)
        assert timing.cycle_time == cycle
        assert " ".join(f"{n}.{p}[{pl}]" for n, p, pl in timing.path) == path
        assert total_area(net) == area
        assert sorted(retry_exempt_channels(net)) == exempt


class TestEnvironments:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_environments_are_the_testbench_classes(self, name):
        net = {**DESIGNS, **MC_DESIGNS}[name]()
        for node in net.nodes.values():
            testbench = type(node).__module__ == environment.__name__
            assert node.is_environment == testbench, node


SRC = pathlib.Path(repro.__file__).parent
#: every package of ``repro``; ``"repro"`` stands for its top-level modules.
GUARDED = ("repro", *sorted(path.name for path in SRC.iterdir()
                            if (path / "__init__.py").is_file()))

#: modules allowed to switch on a ``kind``: the reason for each.
KIND_ALLOWLIST = {
    "runtime/faults.py": "fault kinds (crash, hang, ...)",
    "chaos/plan.py": "fault kinds (stall, bubble, corrupt)",
    "tech/gates.py": "gate kinds",
    "backend/blif.py": "gate kinds",
    "cli.py": "args.kind, the serve-control subcommand",
    "backend/verilog.py": "node kinds mapped to HDL primitives",
    "backend/smv.py": "node kinds mapped to SMV modules",
}


def guarded_modules(package):
    if package == "repro":
        return sorted(SRC.glob("*.py"))
    return sorted((SRC / package).rglob("*.py"))


def _is_string_display(node):
    """A tuple, set or list display holding string constants, possibly
    wrapped in ``frozenset(...)``, ``set(...)`` or ``tuple(...)``."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("frozenset", "set", "tuple")
            and len(node.args) == 1):
        node = node.args[0]
    return isinstance(node, (ast.Tuple, ast.Set, ast.List)) and any(
        isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        for elt in node.elts)


def kind_switches(source):
    """Line numbers where ``source`` compares a ``.kind`` attribute with a
    string literal, tests it for membership in a literal collection
    (written inline or bound to a module-level name), looks it up in a
    table (``T.get(x.kind)``, ``T[x.kind]``) or tests its prefix
    (``x.kind.startswith(...)``)."""
    tree = ast.parse(source)
    literal_names = {
        target.id
        for stmt in tree.body if isinstance(stmt, ast.Assign)
        and _is_string_display(stmt.value)
        for target in stmt.targets if isinstance(target, ast.Name)}

    def is_kind(expr):
        return isinstance(expr, ast.Attribute) and expr.attr == "kind"

    def is_literal(expr):
        return ((isinstance(expr, ast.Constant) and isinstance(expr.value, str))
                or _is_string_display(expr)
                or (isinstance(expr, ast.Name) and expr.id in literal_names))

    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_kind(node.slice):
            hits.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method = node.func
            if ((method.attr == "get" and node.args and is_kind(node.args[0]))
                    or (method.attr == "startswith" and is_kind(method.value))):
                hits.append(node.lineno)
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for left, right in zip(operands, operands[1:]):
            if (is_kind(left) and is_literal(right)) or \
                    (is_kind(right) and is_literal(left)):
                hits.append(node.lineno)
    return hits


class TestKindGuard:
    @pytest.mark.parametrize("package", GUARDED)
    def test_no_kind_string_switches(self, package):
        found = {path.relative_to(SRC).as_posix(): kind_switches(path.read_text())
                 for path in guarded_modules(package)}
        assert {path: lines for path, lines in found.items()
                if lines and path not in KIND_ALLOWLIST} == {}

    @pytest.mark.parametrize("module", sorted(KIND_ALLOWLIST))
    def test_allowlisted_modules_still_switch(self, module):
        # an entry whose module no longer switches on a kind must go
        assert kind_switches((SRC / module).read_text())

    @pytest.mark.parametrize("snippet", [
        'if node.kind == "eb":\n    pass\n',
        'ok = "shared" != producer.kind\n',
        'ok = node.kind in ("eemux", "shared")\n',
        'ok = node.kind not in {"source", "sink"}\n',
        '_KINDS = frozenset({"func", "fork"})\nok = node.kind in _KINDS\n',
        'fn = _HANDLERS.get(node.kind)\n',
        'shape = _SHAPES.get(node.kind, "ellipse")\n',
        'shape = _SHAPES[node.kind]\n',
        'ok = node.kind.startswith("chaos_")\n',
    ])
    def test_guard_catches_kind_switches(self, snippet):
        assert kind_switches(snippet)

    @pytest.mark.parametrize("snippet", [
        'ok = isinstance(node, ElasticBuffer)\n',
        'ok = node.kind not in include\n',
        'label = f"{node.kind}"\n',
        'kind = spec.get("kind")\n',
        'ok = node.splice_of is not None\n',
    ])
    def test_guard_passes_class_checks(self, snippet):
        assert kind_switches(snippet) == []
