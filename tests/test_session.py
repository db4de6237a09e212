"""Tests for the scripted exploration session (the Section 5 toolkit)."""

import pytest

from repro.core.shared import SharedModule
from repro.errors import TransformError
from repro.netlist import patterns
from repro.sim.engine import Simulator
from repro.sim.stats import TransferLog
from repro.transform.session import Session


def fig1a_session():
    net, names = patterns.fig1a(lambda g: g % 2)
    return Session(net), names


def stream(net, channel, cycles=150):
    log = TransferLog([channel])
    Simulator(net, observers=[log]).run(cycles)
    return log.values(channel)


class TestUndoRedo:
    def test_undo_restores_structure(self):
        session, _names = fig1a_session()
        before = set(session.netlist.nodes)
        session.insert_bubble("mux_f")
        assert set(session.netlist.nodes) != before
        session.undo()
        assert set(session.netlist.nodes) == before

    def test_redo_reapplies(self):
        session, _names = fig1a_session()
        session.insert_bubble("mux_f")
        after = set(session.netlist.nodes)
        session.undo()
        session.redo()
        assert set(session.netlist.nodes) == after

    def test_undo_empty_raises(self):
        session, _names = fig1a_session()
        with pytest.raises(TransformError):
            session.undo()

    def test_new_transform_clears_redo(self):
        session, _names = fig1a_session()
        session.insert_bubble("mux_f")
        session.undo()
        session.insert_zbl("mux_f")
        with pytest.raises(TransformError):
            session.redo()

    def test_failed_transform_leaves_netlist_intact(self):
        session, _names = fig1a_session()
        nodes_before = set(session.netlist.nodes)
        with pytest.raises(TransformError):
            session.shannon("F", "mux")        # arguments swapped: invalid
        assert set(session.netlist.nodes) == nodes_before

    def test_invalid_result_rolls_back_mutations(self):
        """Regression (ISSUE 4): a transform that mutates and only *then*
        turns out invalid must be rolled back — validation runs inside the
        rollback scope, so the session never keeps a corrupted netlist."""
        from repro.errors import NetlistError

        session, _names = fig1a_session()
        nodes_before = set(session.netlist.nodes)
        channels_before = set(session.netlist.channels)

        def bad_transform(netlist):
            # mutate successfully, but leave dangling ports behind
            netlist.disconnect("mux_f")

        with pytest.raises(NetlistError):
            session._apply("bad_transform", bad_transform)
        assert set(session.netlist.nodes) == nodes_before
        assert set(session.netlist.channels) == channels_before
        session.netlist.validate()
        assert session.log == [] and session._undo == []
        # the session keeps working normally afterwards
        session.insert_bubble("mux_f")
        session.undo()

    def test_undo_keeps_netlist_object_identity(self):
        """Edit-log history patches in place: ``session.netlist`` stays the
        same object across transform/undo/redo (what keeps a warm
        edit-following simulator attached)."""
        session, _names = fig1a_session()
        net = session.netlist
        session.insert_bubble("mux_f")
        session.undo()
        session.redo()
        assert session.netlist is net

    def test_original_netlist_untouched(self):
        net, _names = patterns.fig1a(lambda g: 0)
        session = Session(net)
        session.insert_bubble("mux_f")
        assert "bub_mux_f" not in net.nodes


class TestCommandScripts:
    def test_full_speculation_script(self):
        """The paper's workflow as a command script: Shannon, early
        evaluation, sharing — ending with a working speculative design."""
        session, names = fig1a_session()
        session.run_script(
            """
            # Section 4 recipe
            shannon mux F
            early_eval mux
            share F_c0 F_c1 --scheduler=toggle
            """
        )
        kinds = {node.kind for node in session.netlist.nodes.values()}
        assert "shared" in kinds and "eemux" in kinds
        # after Shannon the EB is fed by the mux-output channel directly
        values = stream(session.netlist, "mux_f", 200)
        reference, _ = patterns.fig1a(lambda g: g % 2)
        ref_values = stream(reference, names["ebin"], 200)
        n = min(len(values), len(ref_values))
        assert n > 20 and values[:n] == ref_values[:n]

    def test_bubble_and_undo_script(self):
        session, _names = fig1a_session()
        session.run_script("insert_bubble mux_f\nundo")
        assert all(node.kind != "eb" or node.name == "eb"
                   for node in session.netlist.nodes.values())

    def test_unknown_command_rejected(self):
        session, _names = fig1a_session()
        with pytest.raises(TransformError):
            session.run_command("frobnicate x")

    def test_unknown_scheduler_rejected(self):
        session, _names = fig1a_session()
        session.run_command("shannon mux F")
        with pytest.raises(TransformError):
            session.run_command("share F_c0 F_c1 --scheduler=psychic")

    def test_custom_scheduler_factory(self):
        from repro.core.scheduler import OracleScheduler

        session, _names = fig1a_session()
        session.run_command("shannon mux F")
        session.run_command(
            "share F_c0 F_c1 --scheduler=oracle",
            schedulers={"oracle": lambda n: OracleScheduler(lambda k: 0, n)},
        )
        assert any(isinstance(node, SharedModule)
                   for node in session.netlist.nodes.values())

    def test_log_records_history(self):
        session, _names = fig1a_session()
        session.run_script("insert_bubble mux_f\nundo")
        assert session.log[0].startswith("insert_bubble")
        assert session.log[-1].startswith("undo")


class TestReporting:
    def test_dot_export(self):
        session, _names = fig1a_session()
        assert "digraph" in session.to_dot()

    def test_perf_report(self):
        session, _names = fig1a_session()
        report = session.report()
        assert report.cycle_time > 0
        assert report.area > 0
