"""CLI tests (``python -m repro``)."""

import os
import shlex

import pytest

from repro.cli import main


#: ``repro verify`` stdout after its engine line.
VERIFY_REPORT = """\
elastic buffers under nondeterministic environments:
  standard EB                states=97     violations=0 deadlocks=0 -> OK
  ZBL EB (Fig. 5)            states=49     violations=0 deadlocks=0 -> OK
speculative composition (shared + EE mux):
  toggle                     states=257    safe=True leads-to=True -> OK
  nondet (any prediction)    states=257    safe=True leads-to=False -> OK (safety for any prediction)
  static w/o repair          states=97     safe=True leads-to=False -> OK (starves as predicted)
"""


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "A - C - E F F" in " ".join(out.split())
        assert "mispredictions=2" in out

    def test_fig1(self, capsys):
        assert main(["fig1", "--cycles", "300"]) == 0
        out = capsys.readouterr().out
        assert "fig1a" in out and "fig1d" in out

    def test_fig6(self, capsys):
        assert main(["fig6", "--cycles", "400"]) == 0
        out = capsys.readouterr().out
        assert "effective improvement" in out

    def test_fig7(self, capsys):
        assert main(["fig7", "--cycles", "300", "--error-rate", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "fig7b" in out

    def test_export(self, tmp_path, capsys):
        assert main(["export", str(tmp_path), "--design", "fig1d"]) == 0
        assert (tmp_path / "fig1d.v").exists()
        assert (tmp_path / "fig1d.smv").exists()
        assert (tmp_path / "fig1d.dot").exists()

    def test_export_fig6b(self, tmp_path):
        assert main(["export", str(tmp_path), "--design", "fig6b"]) == 0
        assert (tmp_path / "fig6b.v").exists()

    @pytest.mark.slow
    def test_verify(self, capsys):
        assert main(["verify", "--max-states", "60000"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "starves as predicted" in out

    @pytest.mark.slow
    def test_verify_lane_batched(self, capsys):
        """``--lanes 8`` runs the explorations on codegen and says so."""
        assert main(["verify", "--max-states", "60000", "--lanes", "8"]) == 0
        out = capsys.readouterr().out
        assert "exploration engine: codegen" in out
        assert "OK" in out
        assert "starves as predicted" in out
        assert "FAIL" not in out

    def test_verify_report_and_checkpoint_slugs(self, tmp_path, capsys):
        """One exploration per ``MC_DESIGNS`` entry, each checkpointed
        under its historical slug (existing checkpoint directories keep
        resuming)."""
        assert main(["verify", "--checkpoint", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.split("\n", 1)[1] == VERIFY_REPORT
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "eb.ckpt", "nondet.ckpt", "static.ckpt", "toggle.ckpt", "zbl.ckpt"]

    def test_verify_past_deadline_stops_every_line(self, capsys):
        """``--timeout 0``: every slice's deadline has passed before the
        first state boundary, so each exploration stops there, on each
        of its two slices."""
        assert main(["verify", "--timeout", "0", "--retries", "1"]) == 1
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("  ")]
        assert len(rows) == 5
        for row in rows:
            assert row.endswith("states=1      -> STOPPED (deadline exceeded; "
                                "partial progress lost (no --checkpoint))")

    def test_verify_incomplete_exploration_fails(self, capsys):
        """The speculative compositions need 257 states: under a bound of
        100 their verdict is not reached, whatever leads-to says on the
        truncated graph."""
        assert main(["verify", "--max-states", "100"]) == 1
        out = capsys.readouterr().out
        assert ("  toggle                     states=100    violations=0 "
                "incomplete (state bound hit; raise --max-states) -> FAIL"
                in out)
        assert "static w/o repair          states=97     safe=True " \
               "leads-to=False -> OK (starves as predicted)" in out

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--cycles", "-1"], "cycles must be >= 1, got -1"),
        (["sweep", "--cycles", "0"], "cycles must be >= 1, got 0"),
        (["verify", "--max-states", "0"], "max_states must be >= 1, got 0"),
        (["chaos", "--soak", "--budget", "3"],
         "unknown keys for a chaos soak job: budget"),
        (["chaos", "--soak", "--iterations", "0"],
         "iterations must be >= 1, got 0"),
        (["chaos", "--iterations", "3"],
         "unknown keys for a chaos invariance job: iterations"),
        (["chaos", "--design", "spec-toggle", "--exhaustive",
          "--cycles", "40"], "unknown keys for a chaos exhaustive job: "
                             "cycles"),
        (["chaos", "--design", "spec-toggle", "--exhaustive",
          "--max-states", "0"], "max_states must be >= 1, got 0"),
    ])
    def test_malformed_job_flags_exit_2(self, capsys, argv, message):
        """The job layer's admission check is the CLI's too."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_readme_exhaustive_chaos_example_passes(self, capsys):
        """The README's exhaustive chaos command, run as written, closes
        its state space and exits 0."""
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        with open(readme) as fh:
            [line] = [ln for ln in fh
                      if ln.startswith("python -m repro chaos ")
                      and "--exhaustive" in ln]
        argv = shlex.split(line.split("#")[0])
        assert argv[:3] == ["python", "-m", "repro"]
        assert main(argv[3:]) == 0
        assert "complete=True" in capsys.readouterr().out

    def test_batch_is_not_an_engine_choice(self, capsys):
        """There is no lane engine (nor a naive one) to select."""
        for engine in ("batch", "naive"):
            with pytest.raises(SystemExit) as err:
                main(["--engine", engine, "table1"])
            assert err.value.code == 2
            assert f"invalid choice: '{engine}'" in capsys.readouterr().err

    def test_verify_lanes_reject_scalar_engine(self, capsys):
        assert main(["--engine", "worklist", "verify", "--lanes", "4"]) == 2
        err = capsys.readouterr().err
        assert "--lanes 4 implies --engine codegen" in err

    def test_sweep_lanes_reject_scalar_engine(self, capsys):
        assert main(["--engine", "worklist", "sweep", "--lanes", "4"]) == 2
        assert "implies --engine codegen" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("lanes", ["0", "-3"])
    def test_bad_lane_count_exits_2(self, capsys, command, lanes):
        """A lane count below 1 is a usage error at argument parsing, not
        a ValueError traceback from deep inside the run."""
        with pytest.raises(SystemExit) as err:
            main([command, "--lanes", lanes])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert f"lanes must be >= 1, got {lanes}" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("argv", [["verify"], ["sweep"],
                                      ["serve", "ROOT"]])
    def test_negative_retries_exit_2(self, capsys, argv):
        """A negative retry budget is a usage error on every subcommand
        that takes one, not clamped or passed through."""
        with pytest.raises(SystemExit) as err:
            main([*argv, "--retries", "-1"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "retries must be >= 0, got -1" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("window", ["0", "-2"])
    def test_bad_fig6_window_exits_2(self, capsys, window):
        """A carry window below one bit would let the detector miss real
        approximation errors; it is a usage error, not a silent run."""
        with pytest.raises(SystemExit) as err:
            main(["fig6", "--window", window])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert f"window must be >= 1, got {window}" in stderr
        assert "Traceback" not in stderr

    def test_sweep_serial(self, tmp_path, capsys):
        out_json = tmp_path / "sweep.json"
        assert main(["sweep", "--grid", "fig1", "--cycles", "60",
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "fig1[design=fig1d]" in out
        assert "4 configurations" in out
        assert out_json.exists()
        import json

        payload = json.loads(out_json.read_text())
        assert payload["n_configs"] == 4
        assert [c["throughput_source"] for c in payload["configs"]] == \
            ["marked-graph"] * 3 + ["simulation"]

    def test_sweep_workers_engine_flag(self, capsys):
        """--engine must reach the spawn workers (they don't inherit the
        parent's set_default_engine)."""
        from repro.sim.engine import get_default_engine

        # worklist is not the default, so a leaking flag shows below
        assert main(["--engine", "worklist", "sweep", "--grid", "fig1",
                     "--cycles", "40", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "(engine=worklist)" in out
        assert get_default_engine() == "codegen"

    def test_explore_script(self, tmp_path, capsys):
        script = tmp_path / "explore.txt"
        script.write_text(
            "# the paper's recipe, with a detour\n"
            "insert_bubble mux_f\n"
            "undo\n"
            "shannon mux F\n"
            "early_eval mux\n"
            "share F_c0 F_c1 --scheduler=toggle\n"
        )
        assert main(["explore", str(script), "--design", "fig1a",
                     "--measure", "mux_f", "--cycles", "120",
                     "--warmup", "20"]) == 0
        out = capsys.readouterr().out
        assert "insert_bubble mux_f" in out and "theta=" in out
        assert "0 simulator rebuilds" in out

    def test_explore_without_measure(self, tmp_path, capsys):
        script = tmp_path / "explore.txt"
        script.write_text("insert_bubble mux_f\nundo\n")
        assert main(["explore", str(script), "--design", "fig1a"]) == 0
        out = capsys.readouterr().out
        assert "2 steps" in out

    def test_profile(self, capsys):
        # the comb() call counts are worklist output
        assert main(["--engine", "worklist", "profile", "--design", "fig1d",
                     "--cycles", "50"]) == 0
        out = capsys.readouterr().out
        assert "engine=worklist" in out
        assert "comb() calls" in out

    def test_engine_flag_selects_codegen(self, capsys):
        from repro.designs import build_design
        from repro.sim.engine import Simulator, get_default_engine

        assert main(["--engine", "codegen", "profile", "--cycles", "20"]) == 0
        out = capsys.readouterr().out
        assert "engine=codegen" in out
        assert "evaluations per cycle" in out
        # the flag must not leak into the process-wide default, which
        # followers, defaulting to worklist, would inherit
        assert get_default_engine() == "codegen"
        net = build_design("fig1d")
        assert Simulator(net, follow_edits=True).engine == "worklist"

    def test_engine_flag_table1_unchanged(self, capsys):
        """The codegen engine reproduces Table 1 identically."""
        assert main(["--engine", "codegen", "table1"]) == 0
        out = capsys.readouterr().out
        assert "A - C - E F F" in " ".join(out.split())
        assert "mispredictions=2" in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])
