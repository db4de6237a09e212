"""Command-line interface to the exploration toolkit.

Usage (after installation)::

    python -m repro table1                     # reproduce Table 1
    python -m repro fig1 [--bias 0.8]          # Figure 1(a)-(d) comparison
    python -m repro fig6                       # variable-latency ALU study
    python -m repro fig7 [--error-rate 0.1]    # SECDED resilience study
    python -m repro verify [--lanes 8] [--json]  # model-check the controllers
    python -m repro export DIR [--design fig1d]  # Verilog/SMV/dot artifacts
    python -m repro profile [--design fig1d]   # fix-point engine profile
    python -m repro sweep [--grid fig6] [--workers 4] [--lanes 8]  # sharded sweeps
    python -m repro explore SCRIPT [--design fig1a] [--measure CH]  # warm transform loop
    python -m repro lint [SCRIPT] [--design fig1a] [--json] [--fail-on warning]  # static analysis
    python -m repro elaborate [SCRIPT] [--design fig1d] [--dump [FILE]]  # generated codegen module
    python -m repro chaos [--design fig6b] [--soak | --exhaustive]  # chaos oracles
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

``verify``, ``chaos`` and ``sweep`` turn their flags into a ``repro
serve`` job spec with ``validate_job`` (a refused one exits 2 with
``error: ...``); ``verify`` and ``chaos`` run it with ``run_job`` and
render the payload, so a local run and ``repro submit`` agree.

Long-running subcommands are resilient: ``sweep`` and ``verify`` accept
``--checkpoint`` / ``--timeout`` / ``--retries`` (supervised workers with
kill-and-respawn, atomic checksummed checkpoints, resume after a crash or
Ctrl-C — see :mod:`repro.runtime`; ``verify --timeout S`` is the
deadline of one :class:`~repro.runtime.control.JobControl` per slice,
and each retry resumes the checkpoint), and an interrupt exits with the
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

from repro.errors import ServeError


def _at_least(minimum, what):
    """argparse type of an integer option that must be >= ``minimum``
    (``--lanes``, ``--window``, ``--retries``); ``what`` names it in the
    error."""
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{what} must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"      # argparse's "invalid int value" message
    return parse


def _lanes_conflict(args):
    """Print the error and return exit status 2 when ``--lanes N > 1``
    meets an explicit ``--engine``; ``None`` otherwise."""
    if args.lanes > 1 and args.engine is not None:
        print(f"error: --lanes {args.lanes} implies --engine codegen; "
              f"drop --engine {args.engine}", file=sys.stderr)
        return 2
    return None


def _given(args, names, **spec):
    """``spec`` plus the flags among ``names`` that were given."""
    for name in names:
        if getattr(args, name, None) is not None:
            spec[name] = getattr(args, name)
    return spec


def _saved(checkpoint):
    """Where a stopped run's progress went (it flushed ``checkpoint``)."""
    return (f"progress saved to {checkpoint}; re-run with the same "
            f"--checkpoint to resume" if checkpoint
            else "no --checkpoint; progress lost")


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


#: ``repro verify``'s checks under their section headings: ``(design,
#: label, checkpoint slug)`` per :data:`repro.designs.MC_DESIGNS` entry.
#: The slugs name the ``--checkpoint`` files, so they stay put when a label
#: changes.
_VERIFY_CHECKS = (
    ("elastic buffers under nondeterministic environments:", (
        ("eb", "standard EB", "eb"),
        ("zbl", "ZBL EB (Fig. 5)", "zbl"),
    )),
    ("speculative composition (shared + EE mux):", (
        ("spec-toggle", "toggle", "toggle"),
        ("spec-nondet", "nondet (any prediction)", "nondet"),
        ("spec-static", "static w/o repair", "static"),
    )),
)

#: the verdict printed when a ``verify`` payload's rule holds
_VERDICT_TEXT = {"deadlock-free": "OK", "live": "OK",
                 "safe": "OK (safety for any prediction)",
                 "starves": "OK (starves as predicted)"}


def _verify_line(label, payload):
    """One ``repro verify`` report line of a ``verify`` job payload."""
    violations = payload["violations"]
    if not payload["complete"]:
        detail = (f"violations={violations} incomplete "
                  f"(state bound hit; raise --max-states)")
    elif payload["rule"] == "deadlock-free":
        detail = f"violations={violations} deadlocks={payload['deadlocks']}"
    else:
        detail = f"safe={violations == 0} leads-to={payload['leads_to']}"
    verdict = _VERDICT_TEXT[payload["rule"]] if payload["ok"] else "FAIL"
    return f"  {label:<26} states={payload['n_states']:<6} {detail} -> {verdict}"


def _cmd_verify(args):
    import json

    from repro.errors import DeadlineExceeded
    from repro.runtime.control import (JobControl, RetryPolicy,
                                       install_term_handler)
    from repro.serve.jobs import run_job, validate_job
    from repro.sim.engine import get_default_engine, lanes_engine

    install_term_handler()
    conflict = _lanes_conflict(args)
    if conflict is not None:
        return conflict
    # The flags are the same for every design; each row swaps its own in.
    spec = validate_job({"kind": "verify", "design": "eb",
                         "lanes": args.lanes, "max_states": args.max_states})
    if args.checkpoint:
        os.makedirs(args.checkpoint, exist_ok=True)

    # Each slice gets a fresh ``--timeout`` deadline and resumes the
    # checkpoint; only a deadline stop is worth another slice.
    policy = RetryPolicy(args.retries, backoff=0)
    failures = 0
    payloads = {}
    # --json prints only the payloads, keyed by design (None: stopped).
    say = (lambda line: None) if args.json else print
    say("exploration engine: "
        f"{lanes_engine(args.lanes) or get_default_engine()}")
    for heading, checks in _VERIFY_CHECKS:
        say(heading)
        for design, label, slug in checks:
            ckpt = (os.path.join(args.checkpoint, f"{slug}.ckpt")
                    if args.checkpoint else None)
            reached = {"n_states": 0}     # how far a stopped line got

            def run_slice(attempt):
                control = JobControl(
                    deadline=args.timeout, progress_interval=0,
                    on_progress=lambda site, info: reached.update(info))
                return run_job(dict(spec, design=design), control=control,
                               checkpoint=ckpt)

            try:
                payload = policy.run(run_slice, design,
                                     retry_on=DeadlineExceeded)
            except DeadlineExceeded as exc:
                payload, stopped = None, exc
            payloads[design] = payload
            if payload is None:
                where = ("resumable via --checkpoint" if args.checkpoint
                         else "partial progress lost (no --checkpoint)")
                say(f"  {label:<26} states={reached['n_states']:<6} "
                    f"-> STOPPED ({stopped}; {where})")
            else:
                say(_verify_line(label, payload))
            failures += payload is None or not payload["ok"]
    if args.json:
        print(json.dumps(payloads, indent=2, sort_keys=True))
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
    from repro.perf.sweep import run_sweep
    from repro.runtime.control import install_term_handler, interrupt_exit_code
    from repro.serve.jobs import preset_sweep, validate_job

    install_term_handler()
    conflict = _lanes_conflict(args)
    if conflict is not None:
        return conflict
    spec = preset_sweep(validate_job({"kind": "sweep", "grid": args.grid,
                                      "cycles": args.cycles,
                                      "lanes": args.lanes}))
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
        print(f"\ninterrupted ({_saved(args.checkpoint)})", file=sys.stderr)
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


def _read_script(path):
    """A transform script's text (``-`` reads stdin)."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _design_point(args):
    """The ``--design`` netlist after the optional transform SCRIPT."""
    net = _DESIGNS[args.design]()
    if args.script:
        from repro.transform.session import Session

        session = Session(net)
        session.run_script(_read_script(args.script))
        net = session.netlist
    return net


def _cmd_explore(args):
    from repro.errors import TransformError
    from repro.transform.session import Session

    net = _DESIGNS[args.design]()
    session = Session(net)
    text = _read_script(args.script)
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

    report = run_lint(_design_point(args),
                      rules="all" if args.audit else None)
    if args.json:
        print(report.to_json())
    else:
        print(f"design={args.design} rules={','.join(report.rules)}")
        print(report.format())
    return 1 if report.exceeds(args.fail_on) else 0


def _cmd_elaborate(args):
    from repro.backend import pysim

    source = pysim.generated_source(_design_point(args),
                                    check_protocol=not args.no_protocol)
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
    by_entry = ", ".join(f"{entry} {count}" for entry, count
                         in stats["modules_by_entry"].items())
    print(f"cache: {stats['hits']} hits, "
          f"{stats['re_elaborations']} re-elaborations, "
          f"{stats['modules']} modules cached ({by_entry})")
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

    from repro.errors import JobRejected
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
        spec = _given(args, ("design", "grid", "channel", "cycles", "warmup",
                             "max_states", "lanes", "rules", "seed",
                             "iterations"), kind=args.kind)

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

    from repro.errors import JobCancelled
    from repro.runtime.control import (JobControl, install_term_handler,
                                       interrupt_exit_code)
    from repro.serve.jobs import run_job, validate_job

    install_term_handler()
    mode = ("soak" if args.soak else
            "exhaustive" if args.exhaustive else "invariance")
    spec = validate_job(_given(args, ("cycles", "coverage", "kinds", "budget",
                                      "iterations", "max_states"),
                               kind="chaos", mode=mode, design=args.design,
                               seed=args.seed))
    try:
        payload = run_job(spec, control=JobControl(deadline=args.deadline),
                          checkpoint=args.checkpoint, engine=args.engine)
    except KeyboardInterrupt:
        # The soak and the explorer flushed their checkpoint first.
        print(f"\ninterrupted ({_saved(args.checkpoint)})", file=sys.stderr)
        return interrupt_exit_code()
    except JobCancelled as exc:         # incl. DeadlineExceeded
        print(f"stopped: {exc} ({_saved(args.checkpoint)})", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if payload["ok"] else 1
    verdict = "OK" if payload["ok"] else "FAIL"
    if mode == "soak":
        print(f"chaos soak: design={payload['design']} "
              f"seed={payload['seed']} engine={payload['engine']}")
        for row in payload["rows"]:
            print(f"  iter {row['iteration']:<2} seed={row['seed']:<12} "
                  f"faults={row['faults']} plan={row['plan_digest'][:12]} "
                  f"cycles={row['chaos_cycles']:<5} -> "
                  f"{'OK' if row['ok'] else 'FAIL'}")
            for problem in row["problems"]:
                print(f"      {problem}")
        print(f"soak: {len(payload['rows'])}/{payload['iterations']} "
              f"iteration(s) -> {verdict}")
        return 0 if payload["ok"] else 1
    print(f"chaos {mode}: design={args.design} seed={args.seed} "
          f"plan={payload['plan_digest'][:12]}")
    for row in payload["faults"]:
        print(f"  fault {row['kind']:<8} on {row['channel']:<12} "
              f"rate={row['rate']} budget={row['budget']}")
    if mode == "exhaustive":
        print(f"  states={payload['n_states']} "
              f"violations={len(payload['violations'])} "
              f"deadlocks={len(payload['deadlocks'])} "
              f"complete={payload['complete']}")
        if not payload["complete"]:
            print("  incomplete: state bound exhausted "
                  "(raise --max-states or lower --budget/--coverage)")
        for violation in payload["violations"][:4]:
            print(f"      {violation}")
        if payload["counterexample"]:
            print(f"  counterexample (state path): "
                  f"{payload['counterexample']}")
    else:
        print(f"  golden {payload['cycles']} cycles, sabotaged "
              f"{payload['chaos_cycles']} cycles")
        for problem in payload["mismatches"] + payload["stuck"]:
            print(f"      {problem}")
    print(f"-> {verdict}")
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
    p.add_argument("--window", type=_at_least(1, "window"), default=3,
                   help="carry window of the approximate adder, in bits")
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
    p.add_argument("--lanes", type=_at_least(1, "lanes"), default=1,
                   help="N > 1 runs the explorations on the codegen engine "
                        "(not combinable with --engine)")
    p.add_argument("--checkpoint", metavar="DIR", default=None,
                   help="checkpoint directory: each exploration saves its "
                        "progress atomically and resumes after a crash or "
                        "Ctrl-C")
    p.add_argument("--timeout", type=float, default=None,
                   help="deadline of each exploration slice in seconds; the "
                        "search stops at a consistent state boundary when "
                        "it passes (flushing the checkpoint, if any)")
    p.add_argument("--retries", type=_at_least(0, "retries"), default=0,
                   help="extra slices per exploration, each with a fresh "
                        "deadline, resuming where the previous one stopped")
    p.add_argument("--json", action="store_true",
                   help="print the job payloads (the ones `repro submit` "
                        "returns), keyed by design, instead of the report")
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
    p.add_argument("--lanes", type=_at_least(1, "lanes"), default=1,
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
    p.add_argument("--retries", type=_at_least(0, "retries"), default=0,
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
    p.add_argument("--retries", type=_at_least(0, "retries"), default=1,
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
    # The knobs default to None: the chaos job fills in its mode's
    # defaults and refuses a knob the mode does not use.
    p.add_argument("--cycles", type=int,
                   help="golden run length, default 150 (the sabotaged run "
                        "gets 8x slack; not with --exhaustive)")
    p.add_argument("--coverage", type=float,
                   help="fraction of channels the seeded plan splices a "
                        "fault into, in [0, 1]; default 0.5")
    p.add_argument("--kinds", type=lambda text: [k for k in text.split(",")
                                                  if k],
                   help="comma-separated fault kinds, default stall,bubble: "
                        "stall (a join with a permission source), bubble "
                        "(an empty buffer before that join), corrupt (a "
                        "join XORing seeded masks into the data; expected "
                        "to FAIL the oracle)")
    p.add_argument("--budget", type=int,
                   help="stall cycles (corrupt: nonzero masks) per fault, "
                        ">= 0 or -1 = unbounded; default -1, or 2 under "
                        "--exhaustive; not with --soak")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--soak", action="store_true",
                      help="run many seeded plans, checkpointed per "
                           "iteration")
    mode.add_argument("--exhaustive", action="store_true",
                      help="model-check every injection interleaving "
                           "(permission sources become nondeterministic "
                           "choice nodes)")
    p.add_argument("--iterations", type=int,
                   help="soak iterations, default 5 (each a fresh plan)")
    p.add_argument("--max-states", type=int, dest="max_states",
                   help="state bound for --exhaustive, default 20000")
    p.add_argument("--time-budget", type=float, dest="deadline",
                   help="wall-clock deadline in seconds (soak stops at an "
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
    p.add_argument("--lanes", type=_at_least(1, "lanes"), default=None)
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
    except ServeError as exc:
        # validate_job refused the job spec the flags describe.
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
