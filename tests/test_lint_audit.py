"""Tests for the sensitivity-soundness auditor (``repro.lint.audit``).

The worklist scheduler and its seed order — which a codegen simulator
also runs on a netlist it cannot compile — trust each node's
sensitivity, derived from its own ``comb`` (``comb_reads()``), and its
port-role drives without ever checking them.  The auditor executes
``comb()`` against recording channel proxies under fuzzed channel states;
these tests pin **derived == observed** for every built-in node kind (so
a derivation bug becomes a test failure, not a silent missed wakeup) and
prove a seeded derivation bug is caught."""

import pytest

from repro.core import SharedModule, StaticScheduler
from repro.elastic import (
    AbstractElasticFifo,
    EagerFork,
    EarlyEvalMux,
    ElasticBuffer,
    Func,
    FunctionSource,
    KillerSink,
    ListSource,
    NondetSink,
    NondetSource,
    Sink,
    VariableLatencyUnit,
    ZeroBackwardLatencyBuffer,
)
from repro.elastic.environment import NondetChoiceSource, PermissionSource
from repro.lint import audit_netlist, audit_node, run_lint
from repro.netlist import Netlist, patterns
from repro.sim import inline


def _ident(v):
    return v


#: every built-in node kind, with the sequential states (when the default
#: reset state cannot reach every declared read — e.g. a ZBL buffer only
#: consults its environment's back-pressure while *full*).
BUILTIN_NODES = {
    "eb_empty": (lambda: ElasticBuffer("n", capacity=2), None),
    "eb_full": (lambda: ElasticBuffer("n", init=(1, 2), capacity=2), None),
    "zbl": (lambda: ZeroBackwardLatencyBuffer("n"),
            [(True, 7), (False, None)]),
    "func": (lambda: Func("n", fn=lambda a, b: a, n_inputs=2), None),
    "fork": (lambda: EagerFork("n", n_outputs=2), None),
    "eemux": (lambda: EarlyEvalMux("n", n_inputs=2), None),
    "varlat": (lambda: VariableLatencyUnit("n", fn=_ident, err_fn=_ident),
               None),
    "list_source": (lambda: ListSource("n", [1, 2]), None),
    "function_source": (lambda: FunctionSource("n", fn=_ident), None),
    "sink": (lambda: Sink("n"), None),
    "killer_sink": (lambda: KillerSink("n"), None),
    "nondet_source": (lambda: NondetSource("n"), None),
    "nondet_sink": (lambda: NondetSink("n", can_kill=True), None),
    "nondet_choice_source": (lambda: NondetChoiceSource("n"), None),
    "permission_source": (lambda: PermissionSource("n", rate=0.5), None),
    "abstract_fifo": (lambda: AbstractElasticFifo("n"), None),
}


class TestBuiltinKinds:
    @pytest.mark.parametrize("tag", sorted(BUILTIN_NODES))
    def test_declared_matches_observed(self, tag):
        factory, states = BUILTIN_NODES[tag]
        audit = audit_node(factory(), states=states)
        assert audit.undeclared_reads == frozenset(), (
            f"{tag}: comb() reads beyond its derived reads: "
            f"{sorted(audit.undeclared_reads)}")
        assert audit.undeclared_writes == frozenset(), (
            f"{tag}: comb() writes outside its port roles: "
            f"{sorted(audit.undeclared_writes)}")
        # the fuzz schedule must also *reach* every derived read, or the
        # derivation could drift into an over-approximation unnoticed
        assert audit.observed_reads == audit.declared_reads, (
            f"{tag}: derived reads never observed: "
            f"{sorted(audit.declared_reads - audit.observed_reads)}")

    def test_shared_module_covers_both_predictions(self):
        # The shared module reads o<j>.sp only for the currently predicted
        # channel, so one schedule covers one prediction; the union over
        # both static favourites must equal the derived reads.
        audits = [
            audit_node(SharedModule(
                "n", fn=_ident,
                scheduler=StaticScheduler(2, favourite=favourite),
                n_channels=2))
            for favourite in (0, 1)
        ]
        for audit in audits:
            assert audit.ok
        union = audits[0].observed_reads | audits[1].observed_reads
        assert union == audits[0].declared_reads

    def test_audit_does_not_perturb_the_node(self):
        eb = ElasticBuffer("n", init=(1, 2), capacity=2)
        before = eb.snapshot()
        audit_node(eb)
        assert eb.snapshot() == before
        assert eb._channels == {}


class _Interrupt(BaseException):
    """Escapes the audit's per-trial ``except Exception``."""


def _bound_func(fn):
    """A two-input ``Func`` wired into a netlist, and its channel map."""
    net = Netlist("audit")
    net.add(ListSource("a", [1, 2]))
    net.add(ListSource("b", [3, 4]))
    node = net.add(Func("f", fn=fn, n_inputs=2))
    net.add(Sink("snk"))
    net.connect("a.o", "f.i0")
    net.connect("b.o", "f.i1")
    net.connect("f.o", "snk.i")
    return node, dict(node._channels)


class TestAuditRestoresNode:
    """``audit_node(clone=False)`` binds the node's ``drive`` to a
    recorder and its ports to proxies; afterwards the node drives through
    its class's ``drive`` again, over its real channels, also when a
    trial's ``comb`` raises."""

    def _assert_restored(self, node, channels):
        assert "drive" not in vars(node)
        assert node.drive.__func__ is type(node).drive
        assert node._channels == channels
        assert all(node._channels[port] is channel
                   for port, channel in channels.items())

    def test_restored_after_clean_audit(self):
        node, channels = _bound_func(lambda a, b: a + b)
        audit = audit_node(node, clone=False)
        assert audit.aborted == 0 and audit.ok
        self._assert_restored(node, channels)

    def test_restored_after_aborted_trials(self):
        def fail(a, b):
            raise ValueError("fuzzed operands")

        node, channels = _bound_func(fail)
        audit = audit_node(node, clone=False)
        assert audit.aborted > 0
        assert audit.observed_writes
        self._assert_restored(node, channels)

    def test_restored_when_an_error_escapes(self):
        def interrupt(a, b):
            raise _Interrupt

        node, channels = _bound_func(interrupt)
        with pytest.raises(_Interrupt):
            audit_node(node, clone=False)
        self._assert_restored(node, channels)

    def test_in_place_audit_leaves_the_design_simulating(self):
        """Every node of fig1d audited in place: the netlist still runs
        and streams exactly what a fresh one does."""
        from repro.sim.engine import Simulator

        def stream(net):
            sim = Simulator(net, engine="worklist").run(40)
            return sim.stats.summary()

        net, _ = patterns.table1_design()
        for node in net.nodes.values():
            audit_node(node, clone=False)
            assert "drive" not in vars(node)
        assert stream(net) == stream(patterns.table1_design()[0])


class TestWholeNetlistAudit:
    def test_table1_design_is_sound(self):
        net, _ = patterns.table1_design()
        for audit in audit_netlist(net):
            assert audit.ok, (
                f"{audit.node} ({audit.kind}): "
                f"reads {sorted(audit.undeclared_reads)}, "
                f"writes {sorted(audit.undeclared_writes)}")

    def test_chaos_wrapped_design_is_sound(self):
        from repro.chaos import ChaosPlan, wrap

        net, _ = patterns.table1_design()
        wrap(net, ChaosPlan.seeded(3, list(net.channels),
                                   kinds=("stall", "bubble", "corrupt")))
        for audit in audit_netlist(net):
            assert audit.ok, (audit.node, audit.kind)

    def test_audit_runs_on_a_clone(self):
        net, _ = patterns.table1_design()
        snap = net.snapshot()
        audit_netlist(net)
        assert net.snapshot() == snap


# -- a seeded derivation bug and a wrong-role drive are caught -----------------


class UnderDeclaredReads(Func):
    """A function block whose derived reads lose ``("i0", "data")`` to the
    derivation bug :func:`underived` seeds."""


@pytest.fixture
def underived(monkeypatch):
    """Seed a derivation bug: the tasks and reads derived for an
    :class:`UnderDeclaredReads` drop ``("i0", "data")``."""
    derived = inline.comb_sensitivity

    def buggy(node):
        tasks, reads = derived(node)
        if isinstance(node, UnderDeclaredReads):
            def keep(pairs):
                return tuple(p for p in pairs if p != ("i0", "data"))
            tasks = tuple((keep(r), w) for r, w in tasks)
            reads = keep(reads)
        return tasks, reads

    monkeypatch.setattr(inline, "comb_sensitivity", buggy)


class UndeclaredWrite(Func):
    """Drives a consumer-side signal on a producer port."""

    def comb(self):
        super().comb()
        self.drive("o", "sp", True)


def _one_func_net(cls):
    net = Netlist("lie")
    net.add(ListSource("src", [1]))
    net.add(cls("F", fn=_ident, n_inputs=1))
    net.add(Sink("snk"))
    net.connect("src.o", "F.i0")
    net.connect("F.o", "snk.i")
    return net


class TestMisdeclarationsCaught:
    def test_undeclared_read_flagged_e110(self, underived):
        net = _one_func_net(UnderDeclaredReads)
        assert ("i0", "data") not in net.nodes["F"].comb_reads()
        [audit] = [a for a in audit_netlist(net) if a.node == "F"]
        assert ("i0", "data") in audit.undeclared_reads
        report = run_lint(net, rules="all")
        [diag] = [d for d in report.errors if d.code == "E110"]
        assert diag.node == "F" and "i0.data" in diag.message

    def test_undeclared_write_flagged_e111(self):
        net = _one_func_net(UndeclaredWrite)
        report = run_lint(net, rules="all")
        [diag] = [d for d in report.errors if d.code == "E111"]
        assert diag.node == "F" and "o.sp" in diag.message

    def test_sensitivity_rule_is_opt_in(self, underived):
        # the derivation bug is invisible to the static default set
        report = run_lint(_one_func_net(UnderDeclaredReads))
        assert not any(d.code in ("E110", "E111") for d in report.diagnostics)
