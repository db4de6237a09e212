"""Command-line interface to the exploration toolkit.

Usage (after installation)::

    python -m repro table1                     # reproduce Table 1
    python -m repro fig1 [--bias 0.8]          # Figure 1(a)-(d) comparison
    python -m repro fig6                       # variable-latency ALU study
    python -m repro fig7 [--error-rate 0.1]    # SECDED resilience study
    python -m repro verify [--lanes 8]         # model-check the controllers
    python -m repro export DIR [--design fig1d]  # Verilog/SMV/dot artifacts
    python -m repro profile [--design fig1d]   # fix-point engine profile
    python -m repro sweep [--grid fig6] [--workers 4] [--lanes 8]  # sharded sweeps
    python -m repro explore SCRIPT [--design fig1a] [--measure CH]  # warm transform loop
    python -m repro lint [SCRIPT] [--design fig1a] [--json] [--fail-on warning]  # static analysis
    python -m repro elaborate [SCRIPT] [--design fig1d] [--dump [FILE]]  # generated codegen module
    python -m repro serve ROOT [--max-queue 8] [--deadline S]   # persistent job server
    python -m repro submit KIND --root ROOT [--design D]        # run a job on the server

The global ``--engine {worklist,codegen}`` option (before the
subcommand) selects the fix-point engine for every simulation and
model-checking run.  The codegen engine, the default, compiles each
topology into a specialized straight-line Python module (``elaborate``
inspects the generated source); the event-driven worklist engine is the
default only for simulators that follow netlist edits (``explore``'s
session), and ``--engine`` applies to those too.  Unknown engine
names are rejected up front with the valid-choices list.  On ``sweep``
and ``verify``, ``--lanes N`` with ``N > 1`` is another way to ask for
the codegen engine; it does not combine with ``--engine``, and a lane
count below 1 is rejected at argument parsing.

Long-running subcommands are resilient: ``sweep`` and ``verify`` accept
``--checkpoint`` / ``--timeout`` / ``--retries`` (supervised workers with
kill-and-respawn, atomic checksummed checkpoints, resume after a crash or
Ctrl-C — see :mod:`repro.runtime`), and an interrupt exits with the
conventional status — 130 for SIGINT, 143 for SIGTERM — after flushing
the last consistent checkpoint.  ``serve`` drains gracefully on either
signal: the running job stops at its checkpoint boundary, queued jobs
stay journaled and a restarted server finishes them (see
:mod:`repro.serve`).

Each subcommand prints the same tables the benchmarks regenerate, so the
paper's results are reproducible without pytest.
"""

from __future__ import annotations

import argparse
import os
import sys


def _lane_count(text):
    """argparse type of ``--lanes``: an integer >= 1."""
    lanes = int(text)
    if lanes < 1:
        raise argparse.ArgumentTypeError(f"lanes must be >= 1, got {lanes}")
    return lanes


def _lanes_conflict(args):
    """Print the error and return exit status 2 when ``--lanes N > 1``
    meets an explicit ``--engine``; ``None`` otherwise."""
    if args.lanes > 1 and args.engine is not None:
        print(f"error: --lanes {args.lanes} implies --engine codegen; "
              f"drop --engine {args.engine}", file=sys.stderr)
        return 2
    return None


def _cmd_table1(args):
    from repro.netlist import patterns
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceRecorder, format_trace_table

    net, names = patterns.table1_design()
    order = ["fin0", "fout0", "fin1", "fout1", "ebin"]
    labels = ["Fin0", "Fout0", "Fin1", "Fout1", "EBin"]
    trace = TraceRecorder([names[k] for k in order],
                          aliases=dict(zip((names[k] for k in order), labels)))
    shared = net.nodes[names["shared"]]
    sel_row, sched_row = [], []

    class Extra:
        def observe(self, cycle, netlist):
            st = netlist.channels[names["sel"]].state
            sel_row.append(st.data if st.vp else "*")
            sched_row.append(shared.scheduler.prediction())

    Simulator(net, observers=[trace, Extra()]).run(args.cycles)
    print(format_trace_table(trace,
                             extra_rows={"Sel": sel_row, "Sched": sched_row},
                             title="Table 1 (reproduced)"))
    print(f"\ntransfers={shared.grants} mispredictions={shared.mispredicts}")
    return 0


def _cmd_fig1(args):
    import random

    from repro.core.scheduler import TwoBitScheduler
    from repro.netlist import patterns
    from repro.perf import performance_report
    from repro.perf.report import format_report_table

    rng = random.Random(args.seed)
    cache = {}

    def sel(generation):
        if generation not in cache:
            cache[generation] = 0 if rng.random() < args.bias else 1
        return cache[generation]

    reports = []
    for label, make in [("fig1a", patterns.fig1a), ("fig1b", patterns.fig1b),
                        ("fig1c", patterns.fig1c)]:
        net, _names = make(sel)
        reports.append(performance_report(net, name=label))
    net, names = patterns.fig1d(sel, scheduler=TwoBitScheduler())
    reports.append(performance_report(net, sim_channel=names["ebin"],
                                      cycles=args.cycles, warmup=100,
                                      name="fig1d"))
    print(format_report_table(reports))
    return 0


def _cmd_fig6(args):
    from repro.datapath.alu import Alu
    from repro.netlist.varlat import (
        variable_latency_speculative,
        variable_latency_stalling,
    )
    from repro.perf import performance_report
    from repro.perf.report import format_report_table

    alu = Alu(width=8, window=args.window)
    net_a, _ = variable_latency_stalling(alu, seed=args.seed)
    net_b, _ = variable_latency_speculative(alu, seed=args.seed)
    ra = performance_report(net_a, sim_channel="out", cycles=args.cycles,
                            warmup=100, name="fig6a_stalling")
    rb = performance_report(net_b, sim_channel="out", cycles=args.cycles,
                            warmup=100, name="fig6b_speculative")
    print(format_report_table([ra, rb]))
    improvement = (ra.effective_cycle_time / rb.effective_cycle_time - 1) * 100
    overhead = (rb.area / ra.area - 1) * 100
    print(f"\neffective improvement: {improvement:.1f}% (paper: 9%)")
    print(f"area overhead: {overhead:.1f}% (paper: 12%)")
    return 0


def _cmd_fig7(args):
    from repro.datapath.secded import Secded
    from repro.netlist.resilient import (
        plain_adder,
        resilient_nonspeculative,
        resilient_speculative,
    )
    from repro.perf import performance_report
    from repro.perf.report import format_report_table

    code = Secded(64)
    reports = []
    for label, maker in [("unprotected", plain_adder),
                         ("fig7a", resilient_nonspeculative),
                         ("fig7b", resilient_speculative)]:
        net, _names = maker(code, error_rate=args.error_rate, seed=args.seed)
        reports.append(performance_report(net, sim_channel="out",
                                          cycles=args.cycles, warmup=50,
                                          name=label))
    print(format_report_table(reports))
    return 0


def _cmd_verify(args):
    from repro.core.scheduler import NondetScheduler, StaticScheduler, ToggleScheduler
    from repro.runtime.control import install_term_handler

    install_term_handler()
    from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer
    from repro.elastic.environment import NondetSink, NondetSource
    from repro.netlist import patterns
    from repro.netlist.graph import Netlist
    from repro.sim.engine import get_default_engine, lanes_engine
    from repro.verif.deadlock import find_deadlocks
    from repro.verif.explore import StateExplorer
    from repro.verif.leads_to import check_leads_to

    conflict = _lanes_conflict(args)
    if conflict is not None:
        return conflict
    if args.checkpoint:
        os.makedirs(args.checkpoint, exist_ok=True)

    failures = 0

    def explore(net, slug):
        """One (possibly checkpointed, possibly time-sliced) exploration:
        ``--timeout`` bounds each slice's wall clock, ``--retries`` allows
        that many further slices, each resuming the checkpoint where the
        previous one stopped."""
        ckpt = (os.path.join(args.checkpoint, f"{slug}.ckpt")
                if args.checkpoint else None)
        slices = 0
        while True:
            result = StateExplorer(net, max_states=args.max_states,
                                   lanes=args.lanes, checkpoint=ckpt,
                                   time_budget=args.timeout).explore()
            if result.stopped is None or slices >= args.retries:
                return result
            slices += 1

    def report_stopped(label, result):
        nonlocal failures
        failures += 1
        where = ("resumable via --checkpoint" if args.checkpoint
                 else "partial progress lost (no --checkpoint)")
        print(f"  {label:<26} states={result.n_states:<6} "
              f"-> STOPPED ({result.stopped}; {where})")

    def check_buffer(make, label, slug):
        nonlocal failures
        net = Netlist("mc")
        node = net.add(make())
        net.add(NondetSource("src"))
        net.add(NondetSink("snk", can_kill=True))
        net.connect("src.o", (node.name, "i"), name="in")
        net.connect((node.name, "o"), "snk.i", name="out")
        result = explore(net, slug)
        if result.stopped is not None:
            report_stopped(label, result)
            return
        deadlocks = find_deadlocks(result)
        ok = not result.violations and not deadlocks and result.complete
        failures += not ok
        print(f"  {label:<26} states={result.n_states:<6} "
              f"violations={len(result.violations)} deadlocks={len(deadlocks)}"
              f" -> {'OK' if ok else 'FAIL'}")

    print("exploration engine: "
          f"{lanes_engine(args.lanes) or get_default_engine()}")
    print("elastic buffers under nondeterministic environments:")
    check_buffer(lambda: ElasticBuffer("eb"), "standard EB", "eb")
    check_buffer(lambda: ZeroBackwardLatencyBuffer("eb"), "ZBL EB (Fig. 5)",
                 "zbl")

    print("speculative composition (shared + EE mux):")
    for slug, label, scheduler in [
            ("toggle", "toggle", ToggleScheduler(2)),
            ("nondet", "nondet (any prediction)", NondetScheduler(2)),
            ("static", "static w/o repair", StaticScheduler(
                2, favourite=0, repair=False))]:
        net, names = patterns.speculative_mc(scheduler)
        result = explore(net, slug)
        if result.stopped is not None:
            report_stopped(label, result)
            continue
        ok0, _ = check_leads_to(result, names["fin0"], names["fout0"])
        ok1, _ = check_leads_to(result, names["fin1"], names["fout1"])
        safe = not result.violations
        leads = ok0 and ok1
        if label.startswith("static"):
            # deliberately broken: must be safe but starving
            ok = safe and not leads
            verdict = "OK (starves as predicted)" if ok else "FAIL"
        elif label.startswith("nondet"):
            # the nondeterministic *specification*: safety must hold for
            # any prediction; leads-to is only owed by compliant
            # implementations, so it is reported but not required
            ok = safe
            verdict = "OK (safety for any prediction)" if ok else "FAIL"
        else:
            ok = safe and leads
            verdict = "OK" if ok else "FAIL"
        failures += not ok
        print(f"  {label:<26} states={result.n_states:<6} safe={safe} "
              f"leads-to={leads} -> {verdict}")
    return 1 if failures else 0


# The canned design registry is shared with the job server (`repro
# serve` resolves the same names), so it lives in repro.designs; the
# alias keeps this module's historical spelling.
from repro.designs import DESIGNS as _DESIGNS


def _cmd_profile(args):
    from repro.sim.profile import format_profile, profile_run

    net = _DESIGNS[args.design]()
    report = profile_run(net, cycles=args.cycles)
    print(f"design={args.design}")
    print(format_profile(report))
    return 0


def _cmd_sweep(args):
    from repro.perf.presets import PRESET_SWEEPS
    from repro.perf.sweep import run_sweep
    from repro.runtime.control import install_term_handler, interrupt_exit_code

    install_term_handler()
    conflict = _lanes_conflict(args)
    if conflict is not None:
        return conflict
    kwargs = {}
    if args.cycles is not None:
        kwargs["cycles"] = args.cycles
    spec = PRESET_SWEEPS[args.grid](**kwargs)
    # run_sweep resolves the engine (the --engine process default) in this
    # process and ships it inside every worker payload — spawn workers do
    # not inherit set_default_engine().
    try:
        result = run_sweep(spec, n_workers=args.workers, lanes=args.lanes,
                           engine=args.engine, timeout=args.timeout,
                           retries=args.retries, checkpoint=args.checkpoint)
    except KeyboardInterrupt:
        # run_sweep already flushed every completed row to the checkpoint
        # before re-raising.
        if args.checkpoint:
            print(f"\ninterrupted: progress saved to {args.checkpoint}; "
                  f"re-run with the same --checkpoint to resume",
                  file=sys.stderr)
        else:
            print("\ninterrupted (no --checkpoint; progress lost)",
                  file=sys.stderr)
        return interrupt_exit_code()
    print(result.table())
    print(f"\n{len(result.rows)} configurations in "
          f"{result.elapsed_seconds:.2f}s on {args.workers} worker(s) "
          f"(engine={result.engine})")
    stats = result.stats
    if stats is not None and (stats.retries or stats.respawns
                              or stats.timeouts):
        print(f"supervisor: {stats.retries} retries, "
              f"{stats.respawns} respawns, {stats.timeouts} timeouts")
    if result.failures:
        print(f"\n{len(result.failures)} configuration(s) failed:")
        for failure in result.failures:
            print(f"  #{failure.index} {failure.design}: {failure.error} "
                  f"(after {failure.attempts} attempt(s))")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(result.to_json() + "\n")
        print(f"wrote {args.json}")
    return 1 if result.failures else 0


def _cmd_explore(args):
    from repro.errors import TransformError
    from repro.transform.session import Session

    net = _DESIGNS[args.design]()
    session = Session(net)
    if args.script == "-":
        text = sys.stdin.read()
    else:
        with open(args.script) as fh:
            text = fh.read()
    print(f"design={args.design} (netlist version {session.netlist.version})")
    if args.measure:
        # One warm simulator for the whole loop: it follows every edit,
        # and each measurement resets and runs it in place.
        session.simulator()
    followed_from = session.netlist.version
    for number, line in enumerate(text.splitlines(), start=1):
        command = line.split("#", 1)[0].strip()
        if not command:
            continue
        try:
            session.run_command(command)
        except TransformError as err:
            # The failed transform was rolled back edit by edit; the
            # session (and any warm simulator) is still on the last good
            # design point.
            print(f"error: line {number}: {command!r}: {err}",
                  file=sys.stderr)
            return 1
        row = f"  {command:<44}"
        if args.measure:
            measured = session.measure(args.measure, cycles=args.cycles,
                                       warmup=args.warmup)
            row += f" theta={measured.throughput:.4f}"
        print(row)
    if session._sim is not None:
        print(f"\n{len(session.log)} steps, netlist version "
              f"{session.netlist.version}: "
              f"{session.netlist.version - followed_from} edits followed, "
              f"0 simulator rebuilds")
    else:
        print(f"\n{len(session.log)} steps, netlist version "
              f"{session.netlist.version}")
    return 0


def _cmd_lint(args):
    from repro.lint import run_lint

    net = _DESIGNS[args.design]()
    if args.script:
        # Lint the design point a transform script produces, not the
        # canned seed: the session applies (and validates) every command,
        # then the final netlist is analyzed.
        from repro.transform.session import Session

        session = Session(net)
        if args.script == "-":
            text = sys.stdin.read()
        else:
            with open(args.script) as fh:
                text = fh.read()
        session.run_script(text)
        net = session.netlist
    rules = "all" if args.audit else None
    report = run_lint(net, rules=rules)
    if args.json:
        print(report.to_json())
    else:
        print(f"design={args.design} rules={','.join(report.rules)}")
        print(report.format())
    return 1 if report.exceeds(args.fail_on) else 0


def _cmd_elaborate(args):
    from repro.backend import pysim

    net = _DESIGNS[args.design]()
    if args.script:
        # Elaborate the design point a transform script produces, not the
        # canned seed (same convention as `lint`).
        from repro.transform.session import Session

        session = Session(net)
        if args.script == "-":
            text = sys.stdin.read()
        else:
            with open(args.script) as fh:
                text = fh.read()
        session.run_script(text)
        net = session.netlist
    source = pysim.generated_source(net, check_protocol=not args.no_protocol)
    if args.dump == "-":
        print(source)
    elif args.dump is not None:
        with open(args.dump, "w") as fh:
            fh.write(source)
        print(f"wrote {args.dump}")
    else:
        # Header summary only (the generated banner comments).
        for line in source.splitlines():
            if not line.startswith("#"):
                break
            print(line.lstrip("# "))
    stats = pysim.cache_stats()
    print(f"cache: {stats['hits']} hits, "
          f"{stats['re_elaborations']} re-elaborations, "
          f"{stats['modules']} modules cached")
    return 0


def _cmd_serve(args):
    from repro.runtime.control import install_term_handler
    from repro.serve.server import serve_forever

    # Parity fallback: where the event loop cannot own the signal
    # (non-main thread, exotic platforms) SIGTERM still flushes and exits
    # 143 through the KeyboardInterrupt path.
    install_term_handler()
    fault_plan = None
    if args.faults:
        # JSON list of Fault field dicts — the resilience suites drive a
        # real subprocess server through every failure site with this.
        import json

        from repro.runtime.faults import Fault, FaultPlan

        with open(args.faults) as fh:
            fault_plan = FaultPlan([Fault(**spec) for spec in json.load(fh)])
    return serve_forever(
        args.root, socket_path=args.socket, host=args.host, port=args.port,
        max_queue=args.max_queue, retries=args.retries,
        deadline=args.deadline, cache_entries=args.cache_entries,
        engine=args.engine, fault_plan=fault_plan)


def _cmd_submit(args):
    import json

    from repro.errors import JobRejected, ServeError
    from repro.serve.client import ServeClient

    try:
        client = ServeClient(root=args.root, timeout=args.timeout)
        if args.kind == "status":
            print(json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.kind == "shutdown":
            client.shutdown()
            print("server draining")
            return 0
        spec = {"kind": args.kind}
        for name in ("design", "grid", "channel", "cycles", "warmup",
                     "max_states", "lanes", "rules", "seed", "iterations"):
            value = getattr(args, name, None)
            if value is not None:
                spec[name] = value

        def on_event(event):
            if args.json:
                return
            if event["type"] == "accepted":
                print(f"job {event['job']} accepted "
                      f"(key {event['key'][:12]}, "
                      f"queue depth {event['queue_depth']})")
            elif event["type"] == "retry":
                print(f"attempt {event['attempt']} failed: {event['error']}; "
                      f"retrying")

        terminal = client.submit(spec, deadline=args.deadline,
                                 fresh=args.fresh, on_event=on_event)
    except JobRejected as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 75       # EX_TEMPFAIL: back off and retry
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(terminal, indent=2, sort_keys=True))
        return 0 if terminal["type"] == "result" else 1
    if terminal["type"] == "result":
        source = "cache" if terminal.get("cached") else "fresh run"
        print(f"result ({source}):")
        print(json.dumps(terminal["payload"], indent=2, sort_keys=True))
        return 0
    detail = terminal.get("error") or terminal.get("reason") or ""
    print(f"{terminal['type']}: {detail}", file=sys.stderr)
    return 1


def _cmd_chaos(args):
    import json

    from repro.chaos import (ChaosPlan, check_knobs, check_stream_invariance,
                             explore_invariance, run_soak)
    from repro.errors import ChaosError, DeadlineExceeded, JobCancelled
    from repro.runtime.control import (JobControl, install_term_handler,
                                       interrupt_exit_code)

    install_term_handler()
    kinds = tuple(k for k in args.kinds.split(",") if k)
    # Unbounded injection keeps the differential oracle honest, but makes
    # the exhaustive product grow with every fault; default the budget
    # to a couple of injections per fault there so canned designs
    # finish within --max-states.
    budget = args.budget
    if budget is None:
        budget = 2 if args.exhaustive else -1
    try:
        check_knobs(kinds, budget=budget, coverage=args.coverage)
    except ChaosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.designs import MC_DESIGNS
    if args.exhaustive:
        # Exhaustive mode explores every injection interleaving, so it
        # needs the finite model-checking compositions (nondeterministic
        # environments); the seeded simulation designs carry RNG state and
        # never close their state graph.
        if args.design not in MC_DESIGNS:
            print(f"error: --exhaustive explores the model-checking "
                  f"compositions (choose from: "
                  f"{', '.join(sorted(MC_DESIGNS))})", file=sys.stderr)
            return 2
        from repro.designs import build_mc_design

        def build():
            return build_mc_design(args.design)
    else:
        if args.design not in _DESIGNS:
            print(f"error: design {args.design!r} is a model-checking "
                  f"composition (--exhaustive only); simulation designs: "
                  f"{', '.join(sorted(_DESIGNS))}", file=sys.stderr)
            return 2
        build = _DESIGNS[args.design]

    if args.soak:
        control = JobControl()
        if args.time_budget is not None:
            control.arm_deadline(args.time_budget)
        try:
            payload = run_soak(args.design, seed=args.seed,
                               iterations=args.iterations, cycles=args.cycles,
                               engine=args.engine, coverage=args.coverage,
                               kinds=kinds, checkpoint=args.checkpoint,
                               control=control)
        except KeyboardInterrupt:
            # run_soak flushed every completed iteration before re-raising.
            if args.checkpoint:
                print(f"\ninterrupted: progress saved to {args.checkpoint}; "
                      f"re-run with the same --checkpoint to resume",
                      file=sys.stderr)
            else:
                print("\ninterrupted (no --checkpoint; progress lost)",
                      file=sys.stderr)
            return interrupt_exit_code()
        except (JobCancelled, DeadlineExceeded) as exc:
            hint = (f"progress saved to {args.checkpoint}; re-run with the "
                    f"same --checkpoint to resume" if args.checkpoint
                    else "no --checkpoint; progress lost")
            print(f"stopped: {exc} ({hint})", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0 if payload["ok"] else 1
        print(f"chaos soak: design={payload['design']} "
              f"seed={payload['seed']} engine={payload['engine']}")
        for row in payload["rows"]:
            verdict = "OK" if row["ok"] else "FAIL"
            print(f"  iter {row['iteration']:<2} seed={row['seed']:<12} "
                  f"faults={row['faults']} plan={row['plan_digest'][:12]} "
                  f"cycles={row['chaos_cycles']:<5} -> {verdict}")
            for problem in row["problems"]:
                print(f"      {problem}")
        print(f"soak: {len(payload['rows'])}/{payload['iterations']} "
              f"iteration(s) -> {'OK' if payload['ok'] else 'FAIL'}")
        return 0 if payload["ok"] else 1

    net = build()
    plan = ChaosPlan.seeded(args.seed, list(net.channels), kinds=kinds,
                            coverage=args.coverage, budget=budget)
    fault_rows = [{"channel": f.channel, "kind": f.kind, "rate": f.rate,
                   "seed": f.seed, "budget": f.budget}
                  for f in plan.faults]

    if args.exhaustive:
        report = explore_invariance(build, plan, max_states=args.max_states,
                                    checkpoint=args.checkpoint,
                                    time_budget=args.time_budget)
        result = report.result
        payload = {
            "mode": "exhaustive",
            "design": args.design,
            "seed": args.seed,
            "plan_digest": report.plan_digest,
            "faults": fault_rows,
            "n_states": result.n_states,
            "violations": [str(v) for v in result.violations],
            "deadlocks": list(report.deadlocks),
            "counterexample": list(report.counterexample),
            "complete": bool(result.complete),
            "stopped": result.stopped,
            "ok": report.ok,
        }
    else:
        report = check_stream_invariance(build, plan, cycles=args.cycles,
                                         engine=args.engine)
        payload = {
            "mode": "invariance",
            "design": args.design,
            "engine": report.engine,
            "seed": args.seed,
            "plan_digest": report.plan_digest,
            "faults": fault_rows,
            "cycles": report.cycles,
            "chaos_cycles": report.chaos_cycles,
            "mismatches": list(report.mismatches),
            "stuck": [f"{name}@{cycle}" for name, cycle in report.stuck],
            "ok": report.ok,
        }

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if payload["ok"] else 1
    print(f"chaos {payload['mode']}: design={args.design} seed={args.seed} "
          f"plan={payload['plan_digest'][:12]}")
    for row in fault_rows:
        print(f"  fault {row['kind']:<8} on {row['channel']:<12} "
              f"rate={row['rate']} budget={row['budget']}")
    if args.exhaustive:
        print(f"  states={payload['n_states']} "
              f"violations={len(payload['violations'])} "
              f"deadlocks={len(payload['deadlocks'])} "
              f"complete={payload['complete']}")
        if not payload["complete"] and not payload["stopped"]:
            print("  incomplete: state bound exhausted "
                  "(raise --max-states or lower --budget/--coverage)")
        for violation in payload["violations"][:4]:
            print(f"      {violation}")
        if payload["counterexample"]:
            print(f"  counterexample (state path): "
                  f"{payload['counterexample']}")
        if payload["stopped"]:
            print(f"  stopped: {payload['stopped']}")
    else:
        print(f"  golden {payload['cycles']} cycles, sabotaged "
              f"{payload['chaos_cycles']} cycles")
        for problem in payload["mismatches"] + payload["stuck"]:
            print(f"      {problem}")
    print(f"-> {'OK' if payload['ok'] else 'FAIL'}")
    return 0 if payload["ok"] else 1


def _cmd_export(args):
    from repro.backend.smv import to_smv
    from repro.backend.verilog import to_verilog
    from repro.netlist.dot import to_dot

    net = _DESIGNS[args.design]()
    os.makedirs(args.outdir, exist_ok=True)
    for ext, render in (("v", to_verilog), ("smv", to_smv), ("dot", to_dot)):
        path = os.path.join(args.outdir, f"{args.design}.{ext}")
        with open(path, "w") as fh:
            fh.write(render(net))
        print(f"wrote {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Speculation in Elastic Systems (DAC 2009) — reproduction toolkit",
    )
    parser.add_argument(
        "--engine", choices=["worklist", "codegen"],
        default=None,
        help="fix-point engine for all simulation/verification "
             "(default: codegen = compiled straight-line module per "
             "topology, except worklist = event-driven for simulators "
             "that follow netlist edits)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="reproduce Table 1")
    p.add_argument("--cycles", type=int, default=7)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("fig1", help="Figure 1(a)-(d) comparison")
    p.add_argument("--bias", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cycles", type=int, default=1500)
    p.set_defaults(fn=_cmd_fig1)

    p = sub.add_parser("fig6", help="variable-latency ALU study (Section 5.1)")
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cycles", type=int, default=2000)
    p.set_defaults(fn=_cmd_fig6)

    p = sub.add_parser("fig7", help="SECDED resilience study (Section 5.2)")
    p.add_argument("--error-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cycles", type=int, default=1000)
    p.set_defaults(fn=_cmd_fig7)

    p = sub.add_parser("verify", help="model-check controllers (Section 4.2)")
    p.add_argument("--max-states", type=int, default=60000)
    p.add_argument("--lanes", type=_lane_count, default=1,
                   help="N > 1 runs the explorations on the codegen engine "
                        "(not combinable with --engine)")
    p.add_argument("--checkpoint", metavar="DIR", default=None,
                   help="checkpoint directory: each exploration saves its "
                        "progress atomically and resumes after a crash or "
                        "Ctrl-C")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-exploration time budget in seconds; the search "
                        "stops at a consistent state boundary when spent "
                        "(flushing the checkpoint, if any)")
    p.add_argument("--retries", type=int, default=0,
                   help="extra time-budget slices per exploration, each "
                        "resuming where the previous one stopped")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("export", help="emit Verilog/SMV/dot for a canned design")
    p.add_argument("outdir")
    p.add_argument("--design", choices=sorted(_DESIGNS), default="fig1d")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser(
        "sweep",
        help="design-space sweep sharded over multiprocessing workers",
    )
    p.add_argument("--grid",
                   choices=["fig1", "fig1-accuracy", "fig6", "fig6-lanes",
                            "fig7"],
                   default="fig6",
                   help="preset parameter grid (default: the 24-point fig6 "
                        "stalling-vs-speculative grid)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes; 1 = serial in-process")
    p.add_argument("--lanes", type=_lane_count, default=1,
                   help="N > 1 runs the configurations on the codegen "
                        "engine (not combinable with --engine)")
    p.add_argument("--cycles", type=int, default=None,
                   help="override simulated cycles per configuration")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the merged machine-readable report")
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="checkpoint file: completed rows are saved "
                        "atomically and an interrupted sweep resumes "
                        "where it left off")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-configuration wall-clock seconds before a "
                        "hung worker is killed and the configuration "
                        "retried (multiprocessing only)")
    p.add_argument("--retries", type=int, default=0,
                   help="retry budget per configuration before it is "
                        "reported as a failed row instead of aborting "
                        "the sweep")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "explore",
        help="run a transform script against a canned design with one "
             "warm simulator that follows every edit",
    )
    p.add_argument("script",
                   help="transform command script (one command per line, "
                        "# comments; '-' reads stdin)")
    p.add_argument("--design", choices=sorted(_DESIGNS), default="fig1a")
    p.add_argument("--measure", metavar="CHANNEL", default=None,
                   help="measure throughput on CHANNEL after every step "
                        "(warm simulator, no rebuild)")
    p.add_argument("--cycles", type=int, default=400)
    p.add_argument("--warmup", type=int, default=50)
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser(
        "lint",
        help="static analysis: elastic-protocol rules, wiring hygiene and "
             "the sensitivity-soundness audit",
    )
    p.add_argument("script", nargs="?", default=None,
                   help="optional transform script to apply before linting "
                        "(one command per line, # comments; '-' reads "
                        "stdin)")
    p.add_argument("--design", choices=sorted(_DESIGNS), default="fig1a")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report instead of the "
                        "human rendering")
    p.add_argument("--fail-on", choices=["error", "warning", "never"],
                   default="error",
                   help="exit 1 when findings at or above this severity "
                        "exist (default: error)")
    p.add_argument("--audit", action="store_true",
                   help="also run the dynamic sensitivity-soundness audit "
                        "(executes every node's comb() under fuzzed "
                        "channel states)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "elaborate",
        help="compile a design with the codegen engine and show the "
             "generated module (debugging/inspection aid)",
    )
    p.add_argument("script", nargs="?", default=None,
                   help="optional transform script to apply before "
                        "elaborating (one command per line, # comments; "
                        "'-' reads stdin)")
    p.add_argument("--design", choices=sorted(_DESIGNS), default="fig1d")
    p.add_argument("--dump", nargs="?", const="-", default=None,
                   metavar="FILE",
                   help="print the full generated module source (or save "
                        "it to FILE); default shows the banner summary "
                        "only")
    p.add_argument("--no-protocol", action="store_true",
                   help="elaborate without the inlined protocol monitor "
                        "(check_protocol=False variant)")
    p.set_defaults(fn=_cmd_elaborate)

    p = sub.add_parser(
        "serve",
        help="persistent job server: queued sweep/verify/measure/lint jobs "
             "with a verified result cache",
    )
    p.add_argument("root",
                   help="server root directory (socket, journal, cache and "
                        "job checkpoints live here)")
    p.add_argument("--socket", default=None,
                   help="unix socket path (default: ROOT/serve.sock)")
    p.add_argument("--host", default=None,
                   help="serve on localhost TCP instead of a unix socket")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port (default: ephemeral; the bound port is "
                        "published in ROOT/endpoint.json)")
    p.add_argument("--max-queue", type=int, default=8,
                   help="admission bound: queued+running jobs beyond this "
                        "are rejected with structured backpressure")
    p.add_argument("--retries", type=int, default=1,
                   help="execution retries per job before quarantine")
    p.add_argument("--deadline", type=float, default=None,
                   help="default per-job wall-clock deadline in seconds")
    p.add_argument("--cache-entries", type=int, default=256,
                   help="result-cache capacity (LRU eviction beyond it)")
    p.add_argument("--faults", metavar="JSON", default=None,
                   help="fault-injection plan file (resilience testing)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "chaos",
        help="latency-insensitivity chaos harness: inject stalls/bubbles/"
             "corruption, check output streams stay invariant",
    )
    from repro.designs import MC_DESIGNS as _MC_DESIGNS

    p.add_argument("--design",
                   choices=sorted(set(_DESIGNS) | set(_MC_DESIGNS)),
                   default="fig6b",
                   help="simulation design (invariance/soak) or "
                        "model-checking composition (--exhaustive)")
    p.add_argument("--seed", type=int, default=0,
                   help="chaos plan seed (soak derives one sub-seed per "
                        "iteration)")
    p.add_argument("--cycles", type=int, default=150,
                   help="golden run length (the sabotaged run gets 8x slack)")
    p.add_argument("--coverage", type=float, default=0.5,
                   help="fraction of channels the seeded plan splices a "
                        "fault into, in [0, 1]")
    p.add_argument("--kinds", default="stall,bubble",
                   help="comma-separated fault kinds: stall (a join with a "
                        "permission source), bubble (an empty buffer "
                        "before that join), corrupt (a join XORing seeded "
                        "masks into the data; expected to FAIL the oracle)")
    p.add_argument("--budget", type=int, default=None,
                   help="stall cycles (corrupt: nonzero masks) per fault, "
                        ">= 0 or -1 = unbounded; default -1, or 2 under "
                        "--exhaustive to bound the state space")
    p.add_argument("--soak", action="store_true",
                   help="run many seeded plans, checkpointed per iteration")
    p.add_argument("--iterations", type=int, default=5,
                   help="soak iterations (each gets a fresh seeded plan)")
    p.add_argument("--exhaustive", action="store_true",
                   help="model-check every injection interleaving "
                        "(permission sources become nondeterministic "
                        "choice nodes)")
    p.add_argument("--max-states", type=int, default=20000, dest="max_states",
                   help="state bound for --exhaustive")
    p.add_argument("--time-budget", type=float, default=None,
                   dest="time_budget",
                   help="wall-clock budget in seconds (soak stops at an "
                        "iteration boundary, exhaustive at a checkpoint "
                        "boundary; progress is saved)")
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="checkpoint file: SIGINT/SIGTERM/budget flush "
                        "progress; re-run with the same flags to resume")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable payload (includes the "
                        "resolved seed and the plan digest)")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "submit",
        help="submit one job to a running server and stream its outcome",
    )
    p.add_argument("kind",
                   choices=["measure", "verify", "lint", "sweep", "chaos",
                            "status", "shutdown"],
                   help="job kind (or the status / shutdown server ops)")
    p.add_argument("--root", required=True,
                   help="server root directory (endpoint discovery)")
    p.add_argument("--design", default=None,
                   help="design name (measure/lint: fig1a fig1d fig6b "
                        "fig7b; verify: eb zbl spec-toggle spec-nondet "
                        "spec-static)")
    p.add_argument("--grid", default=None,
                   help="sweep preset grid (sweep jobs)")
    p.add_argument("--channel", default=None,
                   help="measurement channel (measure jobs)")
    p.add_argument("--cycles", type=int, default=None)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--max-states", type=int, default=None, dest="max_states")
    p.add_argument("--lanes", type=_lane_count, default=None)
    p.add_argument("--rules", choices=["all"], default=None,
                   help="lint rule set override")
    p.add_argument("--iterations", type=int, default=None,
                   help="soak iterations (chaos jobs)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--deadline", type=float, default=None,
                   help="wall-clock deadline for this job in seconds")
    p.add_argument("--fresh", action="store_true",
                   help="bypass the result cache (the fresh result still "
                        "refreshes it)")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="client-side reply timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="print the raw terminal event as JSON")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "profile", help="per-node-kind comb() call counts and evaluation histogram"
    )
    p.add_argument("--design", choices=sorted(_DESIGNS), default="fig1d")
    p.add_argument("--cycles", type=int, default=500)
    p.set_defaults(fn=_cmd_profile)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.engine is not None:
            from repro.sim.engine import set_default_engine

            previous = set_default_engine(args.engine)
            try:
                return args.fn(args)
            finally:
                set_default_engine(previous)
        return args.fn(args)
    except KeyboardInterrupt:
        # Checkpointing commands flushed their last consistent boundary
        # before the interrupt propagated this far (and `sweep` exits
        # itself, with a resume hint); conventional 128+signal — 130 for
        # SIGINT, 143 when the installed SIGTERM handler fired.
        from repro.runtime.control import interrupt_exit_code

        print("\ninterrupted", file=sys.stderr)
        return interrupt_exit_code()


if __name__ == "__main__":
    sys.exit(main())
