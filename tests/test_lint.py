"""Tests for the ``repro.lint`` static-analysis subsystem: one minimal
broken netlist per diagnostic code, a clean sweep over every ``patterns``
factory, report/CLI plumbing, the session hook and the dot overlay."""

import json

import pytest

from repro.cli import main
from repro.core import SharedModule, StaticScheduler
from repro.elastic import EagerFork, ElasticBuffer, Func, ListSource, Sink
from repro.elastic.channel import CONSUMER, PRODUCER, Channel
from repro.errors import LintError
from repro.lint import (
    ALL_RULES,
    CODES,
    DEFAULT_RULES,
    Diagnostic,
    cached_lint,
    resolve_rules,
    run_lint,
)
from repro.netlist import Netlist, patterns, to_dot
from repro.transform import Session


def codes_of(report):
    return {d.code for d in report.diagnostics}


def linear(net, *hops, width=8):
    for src, dst in zip(hops, hops[1:]):
        net.connect(src, dst, width=width)
    return net


# -- one minimal broken netlist per code ---------------------------------------


class TestBrokenFixtures:
    def test_dangling_port_e001(self):
        net = Netlist("dangling")
        net.add(ListSource("src", [1]))
        net.add(Func("F", fn=lambda a, b: a, n_inputs=2))
        net.add(Sink("snk"))
        linear(net, "src.o", "F.i0")
        linear(net, "F.o", "snk.i")
        report = run_lint(net)
        assert codes_of(report) == {"E001"}
        [diag] = report.errors
        assert diag.node == "F" and "F.i1" in diag.message

    def test_unbound_channel_e002(self):
        net = Netlist("unbound")
        net.add(ListSource("src", [1]))
        net.add(Sink("snk"))
        linear(net, "src.o", "snk.i")
        loose = Channel("loose", width=8)
        loose.attach(PRODUCER, "src", "o")
        net.channels["loose"] = loose
        assert "E002" in codes_of(run_lint(net))

    def test_multiply_driven_port_e003(self):
        net = Netlist("multi")
        net.add(ListSource("s0", [1]))
        rogue_src = net.add(ListSource("s1", [1]))
        net.add(Sink("snk"))
        linear(net, "s0.o", "snk.i")
        # A second channel claiming the already-bound sink port can only be
        # smuggled in past connect()'s own check.
        rogue = Channel("rogue", width=8)
        rogue.attach(PRODUCER, "s1", "o")
        rogue.attach(CONSUMER, "snk", "i")
        rogue_src._channels["o"] = rogue
        net.channels["rogue"] = rogue
        report = run_lint(net)
        assert "E003" in codes_of(report)
        assert any("snk.i" in d.message for d in report.errors)

    def test_width_mismatch_e004(self):
        net = Netlist("widths")
        net.add(ListSource("src", [1]))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk"))
        net.connect("src.o", "eb.i", width=16)
        net.connect("eb.o", "snk.i", width=8)
        report = run_lint(net)
        assert codes_of(report) == {"E004"}
        [diag] = report.errors
        assert diag.node == "eb"

    def test_width_change_through_func_is_legal(self):
        # Function blocks legitimately resize data (the real patterns go
        # 18 -> 8 bits through a shared module); only width-preserving
        # kinds are checked.
        net = Netlist("resize")
        net.add(ListSource("src", [1]))
        net.add(Func("F", fn=lambda a: a & 0xFF, n_inputs=1))
        net.add(Sink("snk"))
        net.connect("src.o", "F.i0", width=16)
        net.connect("F.o", "snk.i", width=8)
        assert run_lint(net).ok

    def test_arity_drift_e005(self):
        fork = EagerFork("fork", n_outputs=2)
        fork.n_outputs = 3        # declared arity no longer matches ports
        net = Netlist("arity")
        net.add(ListSource("src", [1]))
        net.add(fork)
        net.add(Sink("s0"))
        net.add(Sink("s1"))
        linear(net, "src.o", "fork.i")
        linear(net, "fork.o0", "s0.i")
        linear(net, "fork.o1", "s1.i")
        assert "E005" in codes_of(run_lint(net))

    def test_combinational_cycle_e101(self):
        net = Netlist("comb_loop")
        net.add(Func("F", fn=lambda a: a, n_inputs=1))
        net.add(Func("G", fn=lambda a: a, n_inputs=1))
        linear(net, "F.o", "G.i0")
        linear(net, "G.o", "F.i0")
        report = run_lint(net)
        assert "E101" in codes_of(report)
        [diag] = [d for d in report.errors if d.code == "E101"]
        assert "F" in diag.message and "G" in diag.message

    def test_zero_bubble_cycle_e102(self):
        net = Netlist("full_ring")
        for i in range(3):
            net.add(ElasticBuffer(f"eb{i}", init=(i, i), capacity=2))
        for i in range(3):
            net.connect(f"eb{i}.o", f"eb{(i + 1) % 3}.i")
        report = run_lint(net)
        assert codes_of(report) == {"E102"}

    def test_ring_with_free_slot_is_clean(self):
        net = Netlist("ring_ok")
        for i in range(3):
            init = (i,) if i < 2 else ()
            net.add(ElasticBuffer(f"eb{i}", init=init, capacity=2))
        for i in range(3):
            net.connect(f"eb{i}.o", f"eb{(i + 1) % 3}.i")
        assert run_lint(net).ok

    def test_token_free_cycle_w201(self):
        net = Netlist("empty_ring")
        for i in range(3):
            net.add(ElasticBuffer(f"eb{i}", capacity=2))
        for i in range(3):
            net.connect(f"eb{i}.o", f"eb{(i + 1) % 3}.i")
        report = run_lint(net)
        assert "W201" in codes_of(report)
        assert not report.errors

    def test_unkillable_speculation_e103(self):
        net = Netlist("unkillable")
        net.add(ListSource("a", [1, 2]))
        net.add(ListSource("b", [3, 4]))
        net.add(SharedModule("sh", fn=lambda v: v,
                             scheduler=StaticScheduler(2), n_channels=2))
        net.add(Sink("s0"))
        net.add(Sink("s1"))
        linear(net, "a.o", "sh.i0")
        linear(net, "b.o", "sh.i1")
        linear(net, "sh.o0", "s0.i")
        linear(net, "sh.o1", "s1.i")
        report = run_lint(net)
        assert codes_of(report) == {"E103"}
        assert len(report.errors) == 2   # one per shared output channel

    def test_dead_node_w202(self):
        net = Netlist("dead")
        net.add(ListSource("src", [1]))
        net.add(Sink("snk"))
        net.add(ElasticBuffer("orphan_in"))
        net.add(ElasticBuffer("orphan_out"))
        linear(net, "src.o", "snk.i")
        linear(net, "orphan_in.o", "orphan_out.i")
        linear(net, "orphan_out.o", "orphan_in.i")
        report = run_lint(net)
        dead = {d.node for d in report.diagnostics if d.code == "W202"}
        assert dead == {"orphan_in", "orphan_out"}

    def test_fork_join_imbalance_w203(self):
        net = Netlist("imbalance")
        net.add(ListSource("src", [1]))
        net.add(ListSource("other", [2]))
        net.add(EagerFork("fork", n_outputs=2))
        net.add(Func("join", fn=lambda a, b: a + b, n_inputs=2))
        net.add(Sink("snk"))
        net.add(Sink("spill"))
        linear(net, "src.o", "fork.i")
        linear(net, "fork.o0", "join.i0")
        linear(net, "fork.o1", "spill.i")     # second branch never rejoins
        linear(net, "other.o", "join.i1")
        linear(net, "join.o", "snk.i")
        report = run_lint(net)
        assert "W203" in codes_of(report)


# -- every shipped design lints clean ------------------------------------------


def _sel(i):
    return i % 2


CLEAN_FACTORIES = {
    "fig1a": lambda: patterns.fig1a(_sel),
    "fig1b": lambda: patterns.fig1b(_sel),
    "fig1c": lambda: patterns.fig1c(_sel),
    "fig1d": lambda: patterns.fig1d(_sel),
    "table1_design": lambda: patterns.table1_design(),
    "kway_loop": lambda: patterns.kway_loop(_sel, k=3),
    "eb_chain": lambda: patterns.eb_chain(4),
    "token_ring": lambda: patterns.token_ring(4, 2),
    "deep_pipeline": lambda: patterns.deep_pipeline(8),
    "pipeline_with_func": lambda: patterns.pipeline_with_func(
        [1, 2, 3], lambda v: v + 1),
    "speculative_mc": lambda: patterns.speculative_mc(),
    "speculative_mc_zbl": lambda: patterns.speculative_mc(n_zbl=1),
    "speculative_mc_killable": lambda: patterns.speculative_mc(
        can_kill_sink=True),
}


class TestCleanDesigns:
    @pytest.mark.parametrize("name", sorted(CLEAN_FACTORIES))
    def test_pattern_lints_clean(self, name):
        built = CLEAN_FACTORIES[name]()
        net = built[0] if isinstance(built, tuple) else built
        report = run_lint(net)
        assert report.ok, report.format()
        assert report.diagnostics == []


# -- report / selection / caching plumbing -------------------------------------


class TestPlumbing:
    def test_code_catalog_is_complete(self):
        assert set(CODES) == {
            "E001", "E002", "E003", "E004", "E005",
            "E101", "E102", "E103", "E110", "E111",
            "W201", "W202", "W203", "W211",
        }

    def test_resolve_rules(self):
        assert resolve_rules() == DEFAULT_RULES
        assert resolve_rules("all") == ALL_RULES
        assert "sensitivity" not in DEFAULT_RULES
        assert resolve_rules("cycles") == ("cycles",)
        assert resolve_rules(["E103"]) == ("speculation",)
        assert resolve_rules(["cycles", "E102"]) == ("cycles",)
        with pytest.raises(ValueError):
            resolve_rules(["no-such-rule"])

    def test_fail_on_raises_lint_error(self):
        net = Netlist("comb_loop")
        net.add(Func("F", fn=lambda a: a, n_inputs=1))
        net.add(Func("G", fn=lambda a: a, n_inputs=1))
        linear(net, "F.o", "G.i0")
        linear(net, "G.o", "F.i0")
        report = run_lint(net)            # fail_on=None returns the report
        assert not report.ok
        with pytest.raises(LintError) as excinfo:
            run_lint(net, fail_on="error")
        assert "E101" in str(excinfo.value)
        assert excinfo.value.report.errors

    def test_fail_on_warning(self):
        net = Netlist("empty_ring")
        for i in range(3):
            net.add(ElasticBuffer(f"eb{i}"))
        for i in range(3):
            net.connect(f"eb{i}.o", f"eb{(i + 1) % 3}.i")
        run_lint(net, fail_on="error")    # warnings alone do not trip
        with pytest.raises(LintError):
            run_lint(net, fail_on="warning")
        with pytest.raises(ValueError):
            run_lint(net, fail_on="sometimes")

    def test_report_round_trips_to_json(self):
        net, _ = patterns.table1_design()
        payload = json.loads(run_lint(net).to_json())
        assert payload["ok"] is True
        assert payload["netlist"] == net.name
        assert payload["rules"] == list(DEFAULT_RULES)

    def test_cached_lint_memoizes_on_version(self):
        net, _ = patterns.table1_design()
        first = cached_lint(net)
        assert cached_lint(net) is first
        net.connect(net.add(ListSource("extra", [1])).name,
                    net.add(Sink("extra_snk")).name)
        second = cached_lint(net)
        assert second is not first
        assert cached_lint(net, force=True) is not second

    def test_severity_and_hint(self):
        diag = Diagnostic(code="E102", message="m")
        assert diag.severity == "error"
        assert "bubble" in diag.fix_hint
        assert Diagnostic(code="W202", message="m").severity == "warning"


# -- CLI -----------------------------------------------------------------------


class TestLintCli:
    def test_clean_design_exits_zero(self, capsys):
        assert main(["lint", "--design", "fig1d"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_json_output(self, capsys):
        assert main(["lint", "--design", "fig1a", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_script_introducing_error_fails(self, tmp_path, capsys):
        # Sharing the two pipeline stages of fig1a behind a static
        # scheduler leaves the speculative outputs with no kill point.
        script = tmp_path / "break.txt"
        script.write_text("share P0 P1 --scheduler=static --force\n")
        assert main(["lint", str(script), "--design", "fig1a"]) == 1
        out = capsys.readouterr().out
        assert "E103" in out

    def test_fail_on_never_reports_but_exits_zero(self, tmp_path, capsys):
        script = tmp_path / "break.txt"
        script.write_text("share P0 P1 --scheduler=static --force\n")
        assert main(["lint", str(script), "--design", "fig1a",
                     "--fail-on", "never"]) == 0
        assert "E103" in capsys.readouterr().out


# -- session integration -------------------------------------------------------


class TestSessionLint:
    @staticmethod
    def _ring():
        net = Netlist("ring")
        net.add(ElasticBuffer("eb0", init=(1, 2), capacity=2))
        net.add(ElasticBuffer("eb1", capacity=2))
        net.connect("eb0.o", "eb1.i")
        net.connect("eb1.o", "eb0.i")
        return net

    def test_lint_failure_rolls_back_transform(self):
        # Removing the only empty buffer leaves a full one-buffer loop —
        # structurally valid, but a zero-bubble cycle (E102).
        session = Session(self._ring(), lint_after_transforms=True)
        before = session.netlist.version
        with pytest.raises(LintError):
            session.remove_buffer("eb1")
        assert "eb1" in session.netlist.nodes
        assert set(session.netlist.channels) == {"eb0_o__eb1_i", "eb1_o__eb0_i"}
        assert session.log == []
        # rollback replays inverse edits, so the version moved but the
        # structure is back
        assert session.netlist.version >= before

    def test_lint_disabled_by_default(self):
        session = Session(self._ring())
        session.remove_buffer("eb1")     # same edit sails through
        assert "eb1" not in session.netlist.nodes


# -- dot overlay ---------------------------------------------------------------


class TestDotOverlay:
    def test_overlay_colors_offenders(self):
        net = Netlist("full_ring")
        for i in range(3):
            net.add(ElasticBuffer(f"eb{i}", init=(i, i), capacity=2))
        for i in range(3):
            net.connect(f"eb{i}.o", f"eb{(i + 1) % 3}.i")
        report = run_lint(net)
        dot = to_dot(net, diagnostics=report.diagnostics)
        assert "E102" in dot
        assert "#ffc4c4" in dot          # error fill on the flagged node
        assert "penwidth=2" in dot

    def test_clean_report_leaves_dot_unchanged(self):
        net, _ = patterns.table1_design()
        report = run_lint(net)
        assert to_dot(net, diagnostics=report.diagnostics) == to_dot(net)
