"""Perf smoke: deterministic work counters that guard the recorded
engine-level speedups against regression, without timing anything.

A lane-width request must run the compiled engine, with nothing
interpreted; the deep pipeline must compile with nothing deferred
(:func:`test_codegen_runs_deep_pipeline_straight_line`); a
transform-simulate-measure loop must keep one simulator, clone nothing
and rebuild its sensitivity tables once per refresh, not per edit
(:func:`test_warm_transform_loop_never_rebuilds`); the worklist fix-point
must evaluate each paper design's nodes exactly as often as recorded
(:func:`test_worklist_schedule_is_pinned`); a chaos-wrapped
design must compile with nothing deferred and keep its worklist
evaluations per node bounded
(:func:`test_chaos_wrap_compiles_and_stays_incremental`); and a repeated
job-server submit must be a result-cache hit that runs no job
(:func:`test_serve_cache_hit_runs_no_job`).  The speedups, the wrap
overhead and the cache-hit latency themselves are timed by
``benchmarks/bench_engine.py``, ``benchmarks/bench_incremental.py``,
``benchmarks/bench_chaos.py`` and ``benchmarks/bench_serve.py``."""

import json

from repro.perf.presets import fig6_lane_spec
from repro.perf.sweep import run_sweep


# -- lanes=N runs compiled -----------------------------------------------------

def test_lane_sweep_runs_compiled():
    """``run_sweep(..., lanes=8)`` resolves to codegen, and its rows are
    the worklist rows apart from the engine label."""
    spec = fig6_lane_spec(cycles=250, warmup=50)
    serial = run_sweep(spec, n_workers=1, engine="worklist")
    laned = run_sweep(spec, n_workers=1, lanes=8)
    assert laned.engine == "codegen"
    assert [dict(row, engine="codegen") for row in serial.rows] == laned.rows


def test_lane_exploration_runs_compiled():
    """``StateExplorer(..., lanes=16)`` steps a codegen simulator whose
    module defers no node: no interpreted ``comb()`` runs during the
    exploration, and the explored graph is the worklist one."""
    from repro.backend import pysim
    from repro.core.scheduler import ToggleScheduler
    from repro.netlist import patterns
    from repro.verif.explore import StateExplorer

    def design():
        return patterns.speculative_mc(
            ToggleScheduler(2), n_zbl=2, can_kill_sink=True)[0]

    net = design()
    calls = []
    for node in net.nodes.values():
        def counted(_comb=node.comb):
            calls.append(1)
            return _comb()
        node.comb = counted
    explorer = StateExplorer(net, max_states=1200, lanes=16)
    assert explorer.sim.engine == "codegen"
    assert pysim._build_plan(net).deferred == []
    laned = explorer.explore()
    assert calls == []
    scalar = StateExplorer(design(), max_states=1200,
                           engine="worklist").explore()
    assert laned.states == scalar.states
    assert laned.transitions == scalar.transitions


# -- warm transform loop: one simulator, no clone ------------------------------

def _transform_script(design, steps=40, seed=9):
    """A ``benchmarks/bench_incremental.py``-style command script, made by a
    dry run so every undo/redo is legal."""
    import random

    from repro.errors import TransformError
    from repro.transform.session import Session

    rng = random.Random(seed)
    commands = []
    scratch = Session(design())
    while len(commands) < steps:
        channels = sorted(scratch.netlist.channels)
        roll = rng.random()
        if roll < 0.55:
            command = f"insert_bubble {rng.choice(channels)}"
        elif roll < 0.75:
            command = f"insert_zbl {rng.choice(channels)}"
        elif roll < 0.9:
            command = "undo"
        else:
            command = "redo"
        try:
            scratch.run_command(command)
        except TransformError:
            continue
        commands.append(command)
    return commands


def test_warm_transform_loop_never_rebuilds(monkeypatch):
    """The transform-simulate-measure loop behind the recorded
    ``incremental_loop`` speedup of ``benchmarks/bench_incremental.py``:
    over a 40-step script on fig6b, measuring after every step, no netlist
    is cloned, one simulator is constructed, and the sensitivity tables
    are rebuilt once per structure refresh, at most once per step — fewer
    times than there are edits.  Scores match the clone-and-rebuild path.  Counters, not wall
    clock, so the guard is deterministic; the timing stays in the bench."""
    from repro.netlist.graph import Netlist
    from repro.netlist.varlat import variable_latency_speculative
    from repro.perf.throughput import measure_throughput
    from repro.sim import engine
    from repro.transform.session import Session

    def design():
        return variable_latency_speculative(seed=3, pure_stream=True)[0]

    commands = _transform_script(design)
    session = Session(design())
    counts = {"clone": 0, "simulator": 0, "sensitivity": 0, "refresh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Netlist, "clone", counted("clone", Netlist.clone))
    monkeypatch.setattr(engine.Simulator, "__init__",
                        counted("simulator", engine.Simulator.__init__))
    monkeypatch.setattr(engine, "sensitivity",
                        counted("sensitivity", engine.sensitivity))
    monkeypatch.setattr(
        engine.Simulator, "_refresh_structures",
        counted("refresh", engine.Simulator._refresh_structures))
    session.simulator()
    version = session.netlist.version
    warm_scores = []
    for command in commands:
        session.run_command(command)
        warm_scores.append(
            session.measure("out", cycles=6, warmup=2).transfers)
    edits = session.netlist.version - version
    monkeypatch.undo()
    assert counts["clone"] == 0
    assert counts["simulator"] == 1
    assert counts["sensitivity"] == 1 + counts["refresh"]
    assert counts["refresh"] <= len(commands) < edits

    cold = Session(design())
    cold_scores = []
    for command in commands:
        cold.run_command(command)
        cold_scores.append(
            measure_throughput(cold.netlist, "out", cycles=6,
                               warmup=2).transfers)
    assert warm_scores == cold_scores


# -- codegen engine guard ------------------------------------------------------

def test_codegen_runs_deep_pipeline_straight_line():
    """The 12-stage deep pipeline, the design behind the recorded
    ``codegen_speedup.pipeline12`` of ``benchmarks/bench_engine.py``,
    compiles without a residue: no deferred node, no interpreted
    ``comb()`` call in a profiled codegen run (every node is evaluated
    once per cycle, straight-line), and the worklist engine's sink stream.
    Counters, not wall clock, so the guard is deterministic; the timing
    stays in the bench."""
    from repro.backend import pysim
    from repro.netlist import patterns
    from repro.sim.engine import Simulator

    cycles = 300

    def design():
        return patterns.deep_pipeline(12, source_values=list(range(cycles)))

    assert pysim._build_plan(design()).deferred == []
    net = design()
    calls = []
    for node in net.nodes.values():
        def counted(_comb=node.comb):
            calls.append(1)
            _comb()
        node.comb = counted
    sim = Simulator(net, engine="codegen", profile=True).run(cycles)
    assert calls == []
    assert sim.profile_report().evals_per_cycle == [len(net.nodes)] * cycles
    reference = design()
    Simulator(reference, engine="worklist").run(cycles)
    assert net.nodes["snk"].values == reference.nodes["snk"].values


# -- serve result cache: a repeat is a hit, not a job --------------------------

def test_serve_cache_hit_runs_no_job():
    """A repeated submit to an in-process job server is answered from its
    result cache: the first submit misses and runs one job, the second
    hits and runs none, and both payloads are byte-identical.  A cache
    that misses on every read re-runs the sweep and fails the job count.
    Counters, not wall clock; ``benchmarks/bench_serve.py`` times it."""
    import asyncio
    import tempfile
    import threading

    from repro.serve.client import ServeClient
    from repro.serve.server import JobServer

    spec = {"kind": "sweep", "grid": "fig6", "cycles": 150}
    with tempfile.TemporaryDirectory() as root:
        server = JobServer(root, retries=0)
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(server.run(ready=ready)), daemon=True)
        thread.start()
        assert ready.wait(10)
        client = ServeClient(root=root, timeout=120)
        try:
            cold = client.submit(spec)
            after_cold = client.status()
            warm = client.submit(spec)
            after_warm = client.status()
        finally:
            client.shutdown()
            thread.join(30)
    assert cold["type"] == warm["type"] == "result"
    assert not cold.get("cached") and warm["cached"]
    assert after_cold["jobs"] == after_warm["jobs"] == {"result": 1}
    assert (after_cold["cache"]["misses"], after_cold["cache"]["hits"]) == (1, 0)
    assert (after_warm["cache"]["misses"], after_warm["cache"]["hits"]) == (1, 1)
    assert json.dumps(cold["payload"], sort_keys=True) == \
        json.dumps(warm["payload"], sort_keys=True)


# -- chaos wrap: splices compile and stay incremental -------------------------

#: ceiling on the mean worklist comb() evaluations per node per cycle of
#: the wrapped fig6b run (it measures about 1.8; a spliced node declaring
#: every signal as a comb read pushes it past 2.1).
CHAOS_EVALS_PER_NODE = 2.0


def test_chaos_wrap_compiles_and_stays_incremental():
    """The fig6b wrap that ``benchmarks/bench_chaos.py`` times
    (``ChaosPlan.seeded(1, ...)``: stall and bubble splices on about half
    the channels) splices in only kinds whose comb compiles, so the
    compiled module defers no node; and a profiled worklist run
    evaluates fewer than ``CHAOS_EVALS_PER_NODE`` comb() calls per node
    per cycle on average.  A spliced node that does not compile fails the
    first check; one that declares every signal as a comb read fails the
    second.  Counters, not wall clock; the timing stays in the bench."""
    from repro.backend import pysim
    from repro.chaos import ChaosPlan, wrap
    from repro.designs import build_design
    from repro.sim.engine import Simulator

    cycles = 600
    net = build_design("fig6b")
    wrap(net, ChaosPlan.seeded(1, list(net.channels)))
    assert pysim._build_plan(net).deferred == []
    sim = Simulator(net, engine="worklist", profile=True).run(cycles)
    evals = sim.profile_report().evals_per_cycle
    assert len(evals) == cycles
    assert sum(evals) <= CHAOS_EVALS_PER_NODE * len(net.nodes) * cycles, (
        f"{sum(evals) / cycles:.1f} comb evaluations per cycle over "
        f"{len(net.nodes)} nodes")


# -- the worklist schedule -------------------------------------------------------

#: ``comb()`` calls per node over 500 profiled worklist cycles of each
#: registered design, in node order.  The totals divided by 500 are the
#: evaluations per cycle: 12 (fig1a), 14 (fig1d), 16.996 (fig6b, fig7b).
WORKLIST_COMB_CALLS = {
    "fig1a": {"eb": 500, "fork": 1000, "G": 1000, "P0": 1000, "P1": 1000,
              "mux": 1000, "F": 500},
    "fig1d": {"eb": 500, "fork": 1500, "G": 1000, "P0": 1000, "P1": 1000,
              "mux": 1000, "shared_F_c0": 1000},
    "fig6b": {"src": 500, "eb_in": 500, "fork": 1998, "Fapprox": 1000,
              "Fexact": 500, "recovery_eb": 500, "Ferr": 1000,
              "sharedG": 1000, "mux": 500, "eb_out": 500, "snk": 500},
    "fig7b": {"src": 500, "eb_in": 500, "fork": 1998, "raw": 1000,
              "correct": 500, "recovery_eb": 500, "detect": 1000,
              "sharedAdd": 1000, "mux": 500, "eb_out": 500, "snk": 500},
}


def test_worklist_schedule_is_pinned():
    """The interpreted cycle's plumbing (the monotone write, the Kleene
    helpers, the clear and the resolution check) must not change which
    nodes the worklist evaluates: per-node ``comb()`` calls and the
    evaluations per cycle of every registered design equal the recorded
    counts.  Counters, not timings."""
    from repro.designs import DESIGNS
    from repro.sim.engine import Simulator

    cycles = 500
    assert sorted(DESIGNS) == sorted(WORKLIST_COMB_CALLS)
    for name, make in DESIGNS.items():
        sim = Simulator(make(), engine="worklist", profile=True).run(cycles)
        calls = dict(zip(sim.netlist.nodes, sim.comb_calls))
        assert calls == WORKLIST_COMB_CALLS[name], name
        evals = sim.profile_report().evals_per_cycle
        assert len(evals) == cycles
        assert sum(evals) == sum(WORKLIST_COMB_CALLS[name].values()), name
