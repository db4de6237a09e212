"""The elastic-protocol chaos harness (:mod:`repro.chaos`).

The paper's central claim is latency-insensitivity: inserting empty
buffers or stalling channels must not change *what* a SELF design
computes, only *when*.  This suite turns that claim into an adversarial
test battery:

* chaos splices (stall / bubble / corrupt, made of existing node kinds)
  behave bit-identically on every engine (the diff-fuzz suites carry
  the corpus; here the paper designs, kills entering a permission
  source and the codegen-engagement pin);
* the stream-invariance oracle passes on every canned design under
  stall/bubble injection — and *fails* on a deliberately
  latency-sensitive mutant and under state corruption (an oracle that
  cannot fail proves nothing);
* exhaustive mode verifies the speculative composition over every
  injection interleaving, and catches a broken-kill mutant with a
  concrete counterexample trace;
* the soak loop survives SIGINT with a flushed checkpoint (exit 130
  through the real CLI) and resumes byte-identically;
* wrap/unwrap is a true inverse through the edit log (warm simulators
  patch through it), lint flags leftover saboteurs, and the liveness
  monitor's lifecycle hooks keep it reusable across runs and edits.
"""

import json

import pytest

from repro.chaos import (
    ChaosFault,
    ChaosPlan,
    broken_kill_design,
    check_stream_invariance,
    explore_invariance,
    latency_sensitive_design,
    run_soak,
    unwrap,
    wrap,
)
from repro.chaos import verify as chaos_verify
from repro.designs import DESIGNS, build_design, build_mc_design
from repro.errors import ChaosError
from repro.sim.engine import Simulator
from repro.sim.monitors import BoundedLivenessMonitor

from helpers import DenseSweepSimulator


# -- plans -------------------------------------------------------------------

class TestChaosPlan:
    def test_seeded_is_deterministic(self):
        channels = ["a", "b", "c", "d"]
        p1 = ChaosPlan.seeded(7, channels)
        p2 = ChaosPlan.seeded(7, channels)
        assert p1 == p2
        assert p1.digest() == p2.digest()

    def test_seed_changes_plan_and_digest(self):
        channels = ["a", "b", "c", "d"]
        assert ChaosPlan.seeded(1, channels).digest() != \
            ChaosPlan.seeded(2, channels).digest()

    def test_seeded_never_empty(self):
        plan = ChaosPlan.seeded(3, ["only"], coverage=0.0)
        assert len(plan.faults) >= 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ChaosError):
            ChaosFault(channel="x", kind="gremlin")

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ChaosError):
            ChaosFault(channel="x", rate=rate)

    def test_budget_below_unbounded_rejected(self):
        ChaosFault(channel="x", budget=-1)      # -1 = unbounded
        ChaosFault(channel="x", budget=0)       # 0 = disarmed
        with pytest.raises(ChaosError):
            ChaosFault(channel="x", budget=-2)

    @pytest.mark.parametrize("coverage", [-0.5, 1.01])
    def test_seeded_coverage_outside_unit_interval_rejected(self, coverage):
        with pytest.raises(ChaosError):
            ChaosPlan.seeded(1, ["a", "b"], coverage=coverage)

    def test_seeded_rejects_empty_kinds(self):
        with pytest.raises(ChaosError):
            ChaosPlan.seeded(1, ["a", "b"], kinds=())

    def test_unknown_channel_rejected_by_wrap(self):
        net = build_design("fig6b")
        plan = ChaosPlan(faults=(ChaosFault(channel="nope"),), seed=0)
        with pytest.raises(ChaosError):
            wrap(net, plan)


# -- wrap / unwrap as a true inverse -----------------------------------------

class TestWrapUnwrap:
    def test_unwrap_restores_structure(self):
        net = build_design("fig6b")
        nodes = set(net.nodes)
        channels = set(net.channels)
        plan = ChaosPlan.seeded(5, list(net.channels))
        handle = wrap(net, plan)
        assert set(net.nodes) != nodes          # fault nodes spliced in
        assert all(node.kind.startswith("chaos_")
                   for name, node in net.nodes.items() if name not in nodes)
        unwrap(handle)
        assert set(net.nodes) == nodes
        assert set(net.channels) == channels

    def test_unwrapped_design_still_runs_clean(self):
        def golden():
            net = build_design("fig7b")
            Simulator(net).run(120)
            return {n: list(node.values) for n, node in net.nodes.items()
                    if isinstance(getattr(type(node), "values", None),
                                  property)}

        reference = golden()
        net = build_design("fig7b")
        handle = wrap(net, ChaosPlan.seeded(2, list(net.channels)))
        unwrap(handle)
        Simulator(net).run(120)
        got = {n: list(node.values) for n, node in net.nodes.items()
               if isinstance(getattr(type(node), "values", None), property)}
        assert got == reference

    def test_warm_simulator_patches_through_wrap_and_unwrap(self):
        """A follow_edits simulator survives wrap -> run -> unwrap -> run
        without a rebuild: the saboteur splice and its inverse both go
        through the PR 4 edit log."""
        net = build_design("fig6b")
        sim = Simulator(net, follow_edits=True)
        sim.run(15)
        plan = ChaosPlan(
            faults=(ChaosFault(channel="out", kind="bubble", rate=0.4,
                               seed=3),),
            seed=3)
        handle = wrap(net, plan)
        sim.run(15)
        unwrap(handle)
        sim.run(15)
        assert sim.cycle == 45
        assert not any(node.kind.startswith("chaos_")
                       for node in net.nodes.values())


# -- the oracle: positive direction ------------------------------------------

class TestStreamInvariance:
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("engine", [None, "naive", "codegen"])
    def test_paper_designs_latency_insensitive(self, design, engine,
                                               monkeypatch):
        if engine == "naive":
            # the dense sweep, kept as the test suite's reference
            monkeypatch.setattr(chaos_verify, "Simulator",
                                DenseSweepSimulator)
            engine = None
        plan = ChaosPlan.seeded(11, list(build_design(design).channels))
        report = check_stream_invariance(lambda: build_design(design), plan,
                                         cycles=100, engine=engine)
        assert report.ok, (report.mismatches, report.stuck)
        assert report.plan_digest == plan.digest()

    @pytest.mark.parametrize("seed", [1, 3])
    def test_multiple_seeds(self, seed):
        plan = ChaosPlan.seeded(seed, list(build_design("fig6b").channels))
        report = check_stream_invariance(lambda: build_design("fig6b"),
                                         plan, cycles=120)
        assert report.ok, (report.mismatches, report.stuck)


# -- the oracle: negative direction ------------------------------------------

class TestOracleCatchesViolations:
    def test_latency_sensitive_mutant_fails(self):
        """A buffer that folds arrival *time* into its data is the
        canonical non-elastic mutant: stall injection must change its
        output stream, and the oracle must say so."""
        plan = ChaosPlan.seeded(5, ["in", "out"])
        report = check_stream_invariance(latency_sensitive_design, plan,
                                         cycles=120)
        assert not report.ok
        assert report.mismatches

    def test_corruption_is_visible(self):
        """State corruption is *supposed* to break stream invariance —
        that failure is the proof the oracle actually compares data."""
        plan = ChaosPlan(
            faults=(ChaosFault(channel="out", kind="corrupt", rate=0.8,
                               seed=2),),
            seed=2)
        report = check_stream_invariance(lambda: build_design("fig6b"),
                                         plan, cycles=120)
        assert not report.ok
        assert any("diverged" in m for m in report.mismatches)

    def test_corruption_budget_respected(self):
        """budget=0 disarms the corruptor entirely: the wrapped run is a
        pure wire and the oracle passes."""
        plan = ChaosPlan(
            faults=(ChaosFault(channel="out", kind="corrupt", rate=0.8,
                               seed=2, budget=0),),
            seed=2)
        report = check_stream_invariance(lambda: build_design("fig6b"),
                                         plan, cycles=120)
        assert report.ok, (report.mismatches, report.stuck)


# -- exhaustive mode ----------------------------------------------------------

class TestExhaustive:
    def test_speculative_composition_verified_under_stall_choices(self):
        """Every stall interleaving of the speculative composition stays
        protocol-clean and deadlock-free: the paper's Section 4.2 result,
        now under adversarial injection."""
        plan = ChaosPlan(
            faults=(ChaosFault(channel="out", kind="stall", budget=2),),
            seed=0)
        report = explore_invariance(lambda: build_mc_design("spec-toggle"),
                                    plan, max_states=20000)
        assert report.ok, (report.deadlocks,
                           report.result and report.result.violations)
        assert report.result.complete
        assert report.result.n_states > 100   # choices actually explored

    def test_broken_kill_mutant_caught_with_counterexample(self):
        """A buffer that never honours S- violates the cancellation
        invariant under *some* injection interleaving; exhaustive mode
        finds it and hands back a concrete state path."""
        plan = ChaosPlan(
            faults=(ChaosFault(channel="out", kind="stall", budget=1),),
            seed=0)
        report = explore_invariance(broken_kill_design, plan,
                                    max_states=20000)
        assert not report.ok
        assert report.result.violations
        assert report.counterexample, "violation must carry a trace"
        # the trace ends at the violating state
        state = int(str(report.result.violations[0]).split()[1])
        assert report.counterexample[-1] == state
        assert report.counterexample[0] == 0

    def test_incomplete_exploration_reports_no_phantom_deadlocks(self):
        plan = ChaosPlan(
            faults=(ChaosFault(channel="out", kind="stall", budget=2),),
            seed=0)
        report = explore_invariance(lambda: build_mc_design("spec-toggle"),
                                    plan, max_states=50)
        assert not report.ok            # truncated, so not a verdict
        assert not report.result.complete
        assert report.deadlocks == []   # frontier states are not deadlocks


# -- soak + recovery ----------------------------------------------------------

class TestSoak:
    def test_soak_deterministic_and_reports_identity(self):
        a = run_soak("fig6b", seed=1, iterations=2, cycles=60)
        b = run_soak("fig6b", seed=1, iterations=2, cycles=60)
        assert a == b
        assert a["ok"]
        for i, row in enumerate(a["rows"]):
            assert row["iteration"] == i
            assert row["seed"] == 1 * 1000003 + i
            assert row["plan_digest"]

    def test_sigint_flushes_checkpoint_and_exits_130(self, tmp_path):
        """The PR 6 fault harness pins recovery: a synthetic SIGINT at
        iteration 2 must flush completed rows, exit 130 through the real
        CLI entry point, and the resumed soak must equal an uninterrupted
        one byte for byte."""
        from repro import cli
        from repro.runtime.checkpoint import content_key, load_checkpoint
        from repro.runtime.faults import Fault, FaultPlan, install_plan

        ckpt = str(tmp_path / "soak.ckpt")
        argv = ["chaos", "--design", "fig6b", "--seed", "1", "--soak",
                "--iterations", "3", "--cycles", "60",
                "--checkpoint", ckpt]
        install_plan(FaultPlan([Fault("chaos_iter", 2, kind="sigint")]))
        try:
            code = cli.main(argv)
        finally:
            install_plan(None)
        assert code == 130

        key = content_key(("chaos-soak-v1", "fig6b", 1, 3, 60, "default",
                           0.5, ("stall", "bubble")))
        body = load_checkpoint(ckpt, "chaos", key)
        assert body is not None and len(body["rows"]) == 2

        assert cli.main(argv + ["--json"]) in (0, 1)
        resumed = load_checkpoint(ckpt, "chaos", key)
        clean = run_soak("fig6b", seed=1, iterations=3, cycles=60)
        assert resumed["rows"] == clean["rows"]

    @pytest.mark.soak
    def test_long_soak(self):
        """Excluded from tier-1 (REPRO_RUN_SOAK=1 to include): a longer
        randomized campaign across designs and seeds."""
        for design in sorted(DESIGNS):
            payload = run_soak(design, seed=3, iterations=6, cycles=150)
            assert payload["ok"], payload["rows"]


# -- serve integration --------------------------------------------------------

class TestServeJob:
    def test_chaos_job_normalizes_and_runs_deterministically(self):
        from repro.serve.jobs import job_key, run_job, validate_job

        spec = validate_job({"kind": "chaos", "design": "fig6b", "seed": 1,
                             "iterations": 2, "cycles": 60})
        assert spec["iterations"] == 2 and spec["cycles"] == 60
        assert job_key(spec) == job_key(dict(spec))
        assert run_job(spec) == run_job(spec)

    def test_chaos_job_rejects_foreign_keys(self):
        from repro.errors import ServeError
        from repro.serve.jobs import validate_job

        with pytest.raises(ServeError):
            validate_job({"kind": "chaos", "design": "fig6b",
                          "max_states": 10})

    def test_chaos_job_defaults(self):
        from repro.serve.jobs import validate_job

        spec = validate_job({"kind": "chaos", "design": "fig7b"})
        assert spec == {"kind": "chaos", "seed": 0, "design": "fig7b",
                        "mode": "soak", "coverage": 0.5,
                        "kinds": ["stall", "bubble"],
                        "cycles": 150, "iterations": 5}
        spec = validate_job({"kind": "chaos", "design": "fig7b",
                             "mode": "invariance"})
        assert spec == {"kind": "chaos", "seed": 0, "design": "fig7b",
                        "mode": "invariance", "coverage": 0.5,
                        "kinds": ["stall", "bubble"],
                        "cycles": 150, "budget": -1}
        spec = validate_job({"kind": "chaos", "design": "spec-toggle",
                             "mode": "exhaustive"})
        assert spec == {"kind": "chaos", "seed": 0, "design": "spec-toggle",
                        "mode": "exhaustive", "coverage": 0.5,
                        "kinds": ["stall", "bubble"],
                        "budget": 2, "max_states": 20000}


# -- CLI ----------------------------------------------------------------------

class TestCli:
    def test_json_reports_resolved_seed_and_plan_digest(self, capsys):
        from repro import cli

        code = cli.main(["chaos", "--design", "fig6b", "--seed", "4",
                         "--cycles", "60", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == (0 if payload["ok"] else 1)
        assert payload["seed"] == 4
        net = build_design("fig6b")
        assert payload["plan_digest"] == \
            ChaosPlan.seeded(4, list(net.channels)).digest()
        assert payload["faults"]

    def test_corrupt_kind_fails_exit_1(self, capsys):
        from repro import cli

        code = cli.main(["chaos", "--design", "fig6b", "--seed", "3",
                         "--cycles", "80", "--kinds", "corrupt", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and not payload["ok"]

    def test_exhaustive_requires_mc_design(self, capsys):
        from repro import cli

        assert cli.main(["chaos", "--design", "fig6b", "--exhaustive"]) == 2
        assert cli.main(["chaos", "--design", "spec-toggle"]) == 2

    def test_exhaustive_spec_toggle_ok(self, capsys):
        from repro import cli

        code = cli.main(["chaos", "--design", "spec-toggle", "--seed", "2",
                         "--exhaustive", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["ok"]
        assert payload["complete"] and not payload["violations"]

    def test_unknown_kind_rejected(self, capsys):
        from repro import cli

        assert cli.main(["chaos", "--design", "fig6b",
                         "--kinds", "gremlin"]) == 2

    @pytest.mark.parametrize("extra", [
        ["--budget", "-9"],
        ["--coverage", "1.5"],
        ["--coverage", "-0.1"],
        ["--soak", "--budget", "-9"],
        ["--kinds", ","],
    ])
    def test_out_of_range_knobs_exit_2(self, extra, capsys):
        from repro import cli

        assert cli.main(["chaos", "--design", "fig6b", "--cycles", "40",
                         *extra]) == 2
        assert "error:" in capsys.readouterr().err


# -- lint ---------------------------------------------------------------------

class TestLint:
    def test_w211_flags_leftover_saboteurs(self):
        from repro.lint import run_lint

        net = build_design("fig6b")
        handle = wrap(net, ChaosPlan.seeded(1, list(net.channels)))
        report = run_lint(net)
        flagged = {d.node for d in report.by_code("W211")}
        assert flagged == set(handle.splices)
        assert not report.errors        # splices are protocol-clean
        unwrap(handle)
        assert not run_lint(net).by_code("W211")

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_factory_designs_stay_clean(self, design):
        from repro.lint import run_lint

        assert not run_lint(build_design(design)).by_code("W211")


# -- codegen engagement -------------------------------------------------------

class TestCodegenEngagement:
    def test_saboteurs_compile_to_straight_line_tasks(self):
        """Every node a splice adds must compile from its kind's own comb
        and tick — visible as named straight-line comb and tick sections
        in the generated module, not an interpreted fallback."""
        from repro.backend.pysim import generated_source
        from repro.elastic.buffers import ElasticBuffer
        from repro.elastic.environment import ListSource, Sink
        from repro.netlist.graph import Netlist

        net = Netlist("line")
        net.add(ListSource("src", list(range(12))))
        net.add(ElasticBuffer("e1"))
        net.add(ElasticBuffer("e2"))
        net.add(Sink("snk", stall_rate=0.2, seed=3))
        net.connect("src.o", "e1.i", name="in")
        net.connect("e1.o", "e2.i", name="mid")
        net.connect("e2.o", "snk.i", name="out")
        faults = tuple(
            ChaosFault(channel=ch, kind=kind, rate=0.3, seed=i)
            for i, (ch, kind) in enumerate(
                [("in", "stall"), ("mid", "bubble"), ("out", "corrupt")]))
        handle = wrap(net, ChaosPlan(faults=faults, seed=0))
        source = generated_source(net)
        for name in handle.splices:
            node = net.nodes[name]
            assert f"# {name} ({node.kind})" in source
            assert f"# tick {name} ({node.kind})" in source


# -- splices of existing kinds -------------------------------------------------

class TestSplices:
    def test_fig1d_kills_reach_the_permission_inputs(self):
        """fig1d's fork branches carry the early-evaluation mux's
        anti-tokens back to the fork.  A stall join on each branch takes
        those kills and hands one to its permission source, which either
        cancels its offered permission or absorbs the kill while idle.
        Worklist, codegen and the dense sweep stay bit-identical."""
        from test_engine_diff import _run_one

        plan = ChaosPlan(faults=tuple(
            ChaosFault(channel=channel, kind="stall", rate=0.5, seed=seed)
            for seed, channel in enumerate(("fork_p0", "fork_p1"))), seed=0)

        def make():
            net = build_design("fig1d")
            wrap(net, plan)
            return net

        runs = {engine: _run_one(make, engine, 400)[1:]
                for engine in ("worklist", "codegen", "dense")}
        assert runs["codegen"] == runs["worklist"]
        assert runs["dense"] == runs["worklist"]
        stats = runs["worklist"][0]
        permits = ("fork_p0__permit", "fork_p1__permit")
        assert sum(stats["cancels"][name] for name in permits) > 0
        assert sum(stats["backwards"][name] for name in permits) > 0

    @pytest.mark.parametrize("engine", ["worklist", "codegen"])
    def test_corrupt_budget_caps_the_flipped_tokens(self, engine):
        """With ``rate=1`` every mask is drawn nonzero, so exactly the
        first ``budget`` tokens arrive flipped and the rest intact."""
        from repro.elastic.environment import ListSource, Sink
        from repro.netlist.graph import Netlist

        net = Netlist("line")
        net.add(ListSource("src", list(range(10))))
        net.add(Sink("snk", stall_rate=0.3, seed=1))
        net.connect("src.o", "snk.i", name="out")
        wrap(net, ChaosPlan(faults=(ChaosFault(
            channel="out", kind="corrupt", rate=1.0, seed=4, budget=3),)))
        Simulator(net, engine=engine).run(60)
        got = net.nodes["snk"].values
        assert len(got) == 10
        assert all(got[i] != i for i in range(3))
        assert got[3:] == list(range(3, 10))

    def test_import_leaves_codegen_tables_alone(self):
        """Importing the chaos package registers nothing with the codegen
        backend: the spliced kinds' comb and tick derive from their own
        methods, so no module-level table of pysim changes."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        code = (
            "import sys\n"
            "from repro.backend import pysim\n"
            "assert 'repro.chaos' not in sys.modules\n"
            "before = dict(vars(pysim))\n"
            "import repro.chaos\n"
            "import repro.chaos.mutants, repro.chaos.plan, repro.chaos.verify\n"
            "assert vars(pysim) == before\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr


# -- liveness-monitor lifecycle (satellite 1) ---------------------------------

class TestBoundedLivenessLifecycle:
    def _stalled_net(self):
        from repro.elastic.buffers import ElasticBuffer
        from repro.elastic.environment import ListSource, Sink
        from repro.netlist.graph import Netlist

        net = Netlist("stall")
        net.add(ListSource("src", [1, 2, 3]))
        net.add(ElasticBuffer("eb"))
        net.add(Sink("snk", stall_rate=1.0, seed=1))   # never accepts
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        return net

    def test_reset_clears_armed_counters_and_stuck(self):
        net = self._stalled_net()
        monitor = BoundedLivenessMonitor(net, window=10)
        sim = Simulator(net, observers=(monitor,))
        sim.run(40)
        assert monitor.stuck                    # the full sink wedges "out"
        monitor.reset()
        assert monitor.stuck == [] and monitor._since_event == {}
        # a fresh run over a fresh design re-arms from zero
        net2 = self._stalled_net()
        monitor2 = BoundedLivenessMonitor(net2, window=50)
        Simulator(net2, observers=(monitor2,)).run(20)
        assert monitor2.stuck == []             # window not yet reached

    def test_structure_changed_restarts_windows(self):
        net = self._stalled_net()
        monitor = BoundedLivenessMonitor(net, window=30)
        sim = Simulator(net, observers=(monitor,))
        sim.run(25)                             # counters nearly expired
        assert not monitor.stuck
        monitor.structure_changed()             # splice forgives the past
        sim.run(25)
        # each window restarted at cycle 25; 25 further cycles < 30
        assert [c for _, c in monitor.stuck] == []
        sim.run(10)
        assert monitor.stuck                    # but it still fires later

    def test_wrap_notifies_warm_simulator_observers(self):
        """Wrapping mid-run must reach observers through the engine's
        _refresh_structures hook — the monitor restarts its windows
        instead of blaming the splice for the freeze it caused."""
        net = build_design("fig6b")
        monitor = BoundedLivenessMonitor(net, window=40)
        sim = Simulator(net, follow_edits=True, observers=(monitor,))
        sim.run(35)
        handle = wrap(net, ChaosPlan(
            faults=(ChaosFault(channel="out", kind="stall", rate=0.9,
                               seed=1),),
            seed=1))
        sim.run(40)
        unwrap(handle)
        sim.run(40)
        assert monitor.stuck == []
