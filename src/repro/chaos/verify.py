"""The latency-insensitivity theorem as an executable oracle.

Three checkers, in increasing strength:

* :func:`check_stream_invariance` — differential: a golden run and a
  stall/bubble-sabotaged run of the same design must produce *identical*
  output token streams (the sabotaged run gets extra wall-clock slack;
  a :class:`~repro.sim.monitors.BoundedLivenessMonitor` rides along so
  chaos-induced deadlock is reported as such, not as a timeout).
* :func:`explore_invariance` — exhaustive: permission sources built
  with ``nondet=True`` expose each injection decision as a model-checking
  choice, so :class:`~repro.verif.explore.StateExplorer` verifies the
  protocol over *all* stall interleavings up to the state bound and
  :func:`~repro.verif.deadlock.find_deadlocks` establishes recovery.
* :func:`run_soak` — many seeded plans in sequence, checkpointed after
  every iteration through :mod:`repro.runtime.checkpoint` (SIGINT
  flushes; a resumed soak is byte-identical to an uninterrupted one).

:func:`run_soak` and :func:`plan_payload` build the ``chaos`` job's payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.plan import ChaosPlan, unwrap, wrap
from repro.sim.engine import Simulator
from repro.sim.monitors import BoundedLivenessMonitor


def sink_streams(netlist):
    """Output token streams: ``{sink_name: [values...]}`` for every node
    exposing a ``values`` stream property (Sink, KillerSink)."""
    streams = {}
    for name, node in netlist.nodes.items():
        if isinstance(getattr(type(node), "values", None), property):
            streams[name] = list(node.values)
    return streams


class StreamProbe:
    """Observer recording each channel's forward-transferred value
    sequence — the stream-semantics view of a channel.  Used for
    closed-loop designs (fig1a/fig1d) that have no environment sinks:
    latency-insensitivity makes every channel's transfer stream
    invariant there."""

    def __init__(self, netlist, channels):
        self.netlist = netlist
        self.streams = {name: [] for name in channels}
        #: channels that carried anti-token traffic — their transfer
        #: streams include speculative wrong-path tokens, which are
        #: legitimately timing-dependent, so invariance is not compared
        #: on them.
        self.killed = set()

    def observe(self, cycle, netlist=None):
        channels = self.netlist.channels
        for name, values in self.streams.items():
            ch = channels.get(name)
            if ch is None:
                continue
            ev = ch.events()
            if ev.forward:
                values.append(ch.state.data)
            if ev.cancel or ev.backward:
                self.killed.add(name)


@dataclass
class InvarianceReport:
    """Verdict of one golden-vs-sabotaged differential run."""

    engine: str = "default"
    plan_digest: str = ""
    cycles: int = 0                 #: golden run length
    chaos_cycles: int = 0           #: cycles the sabotaged run needed
    golden: dict = field(default_factory=dict)
    sabotaged: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    stuck: list = field(default_factory=list)   #: BLM (channel, cycle) hits

    @property
    def ok(self):
        return not self.mismatches and not self.stuck


def check_stream_invariance(build, plan, cycles=200, engine=None,
                            slack=8, window=256):
    """Latency-insensitivity oracle: run ``build()`` clean for ``cycles``,
    then run a fresh ``build()`` wrapped with ``plan`` for up to
    ``cycles * slack`` cycles — every output stream must reproduce the
    golden stream exactly (same values, same order, nothing dropped).

    ``build`` is a zero-argument netlist factory (the two runs must not
    share state).  Stall/bubble faults must pass; ``corrupt`` faults are
    expected to *fail* this oracle unless the design repairs them
    (fig7-style replay) — that direction is how the harness proves it can
    detect violations at all.
    """
    golden_net = build()
    use_sinks = bool(sink_streams(golden_net))
    skip = set()
    if use_sinks:
        Simulator(golden_net, engine=engine).run(cycles)
        golden = sink_streams(golden_net)
    else:
        from repro.verif.properties import retry_exempt_channels

        probe = StreamProbe(golden_net, list(golden_net.channels))
        Simulator(golden_net, engine=engine, observers=(probe,)).run(cycles)
        golden = {k: list(v) for k, v in probe.streams.items()}
        # Shared-module arbitration order and speculative wrong-path
        # traffic are timing-dependent by design — exempt those channels.
        skip = set(retry_exempt_channels(golden_net)) | set(probe.killed)

    net = build()
    handle = wrap(net, plan)
    monitor = BoundedLivenessMonitor(net, window=window)
    observers = [monitor]
    if not use_sinks:
        # Probe the original channel names (wrap keeps them on the
        # producer side of each splice).
        chaos_probe = StreamProbe(net, list(golden))
        observers.append(chaos_probe)
    sim = Simulator(net, engine=engine, observers=observers)
    budget = cycles * slack

    def current_streams():
        if use_sinks:
            return sink_streams(net)
        return chaos_probe.streams

    ran = 0
    for _ in range(budget):
        sim.step()
        ran += 1
        if monitor.stuck:
            break
        streams = current_streams()
        if all(len(streams.get(name, ())) >= len(values)
               for name, values in golden.items() if name not in skip):
            break
    sabotaged = {k: list(v) for k, v in current_streams().items()}
    if not use_sinks:
        skip |= chaos_probe.killed

    report = InvarianceReport(
        engine=engine or "default",
        plan_digest=plan.digest(),
        cycles=cycles,
        chaos_cycles=ran,
        golden=golden,
        sabotaged=sabotaged,
        stuck=list(monitor.stuck),
    )
    for name, values in golden.items():
        if name in skip:
            continue
        got = sabotaged.get(name, [])
        if got[:len(values)] != values:
            report.mismatches.append(
                f"{name}: stream diverged (golden {values[:8]!r}... "
                f"vs sabotaged {got[:8]!r}...)")
        elif len(got) < len(values):
            report.mismatches.append(
                f"{name}: underrun — {len(got)}/{len(values)} tokens "
                f"after {ran} cycles ({slack}x slack)")
    unwrap(handle)
    return report


@dataclass
class ExploreReport:
    """Verdict of one exhaustive (all-interleavings) chaos exploration."""

    result: object = None           #: the raw ExplorationResult
    plan_digest: str = ""
    deadlocks: list = field(default_factory=list)
    counterexample: list = field(default_factory=list)  #: state-index path

    @property
    def ok(self):
        return (self.result is not None and self.result.ok()
                and not self.deadlocks)


def explore_invariance(build, plan, max_states=20000, engine=None, lanes=1,
                       checkpoint=None, control=None):
    """Exhaustive mode: wrap with ``nondet=True`` so every stall/bubble
    decision is a model-checking choice, then explore all interleavings.
    Protocol violations and deadlocks each come with a shortest
    counterexample path (state indices into ``report.result``); a
    ``control`` stop leaves ``report.result.stopped`` set."""
    from repro.verif.deadlock import find_deadlocks
    from repro.verif.explore import StateExplorer

    net = build()
    wrap(net, plan, nondet=True)
    explorer = StateExplorer(net, max_states=max_states, engine=engine,
                             lanes=lanes, checkpoint=checkpoint,
                             control=control)
    result = explorer.explore()
    # Deadlock detection needs the full graph: on a truncated exploration
    # every frontier state would misreport as dead (no expanded successor).
    # Incompleteness already fails the report through result.ok().
    deadlocks = sorted(find_deadlocks(result)) if result.complete else []
    report = ExploreReport(result=result, plan_digest=plan.digest(),
                           deadlocks=deadlocks)
    if result.violations:
        # Violations are "state <index> choices <...>: <problem>" strings.
        state = int(str(result.violations[0]).split()[1])
        report.counterexample = result.shortest_path_to(state)
    elif report.deadlocks:
        report.counterexample = result.shortest_path_to(report.deadlocks[0])
    return report


def plan_payload(mode, design, seed, coverage, kinds, budget, cycles=150,
                 max_states=20000, engine=None, checkpoint=None,
                 control=None):
    """JSON-ready verdict of one seeded plan on ``design``: a simulation
    design under :func:`check_stream_invariance` (``mode="invariance"``)
    or a model-checking composition under :func:`explore_invariance`
    (``"exhaustive"``; a ``control`` stop raises its error, since a
    partial exploration is not a verdict)."""
    from repro.designs import build_design, build_mc_design

    exhaustive = mode == "exhaustive"

    def build():
        return (build_mc_design if exhaustive else build_design)(design)

    plan = ChaosPlan.seeded(seed, list(build().channels), kinds=kinds,
                            coverage=coverage, budget=budget)
    payload = {"mode": mode, "design": design, "seed": seed,
               "plan_digest": plan.digest(),
               "faults": [{"channel": f.channel, "kind": f.kind,
                           "rate": f.rate, "seed": f.seed,
                           "budget": f.budget} for f in plan.faults]}
    if not exhaustive:
        report = check_stream_invariance(build, plan, cycles=cycles,
                                         engine=engine)
        payload.update(engine=report.engine, cycles=report.cycles,
                       chaos_cycles=report.chaos_cycles,
                       mismatches=list(report.mismatches),
                       stuck=[f"{name}@{cycle}"
                              for name, cycle in report.stuck],
                       ok=report.ok)
        return payload
    report = explore_invariance(build, plan, max_states=max_states,
                                engine=engine, checkpoint=checkpoint,
                                control=control)
    result = report.result
    if result.stopped is not None:
        raise control.stop_error(result.stopped)
    payload.update(n_states=result.n_states,
                   violations=[str(v) for v in result.violations],
                   deadlocks=list(report.deadlocks),
                   counterexample=list(report.counterexample),
                   complete=bool(result.complete), ok=report.ok)
    return payload


def run_soak(design, seed=0, iterations=5, cycles=150, engine=None,
             coverage=0.5, kinds=("stall", "bubble"), checkpoint=None,
             control=None):
    """Soak the design: ``iterations`` independent seeded chaos plans,
    each checked with :func:`check_stream_invariance`.  Progress is
    checkpointed after every iteration (content-addressed to the full job
    identity), KeyboardInterrupt flushes before re-raising, and a resumed
    soak replays nothing — completed rows are reused byte-identically.

    Returns a JSON-ready payload: per-iteration rows carry the resolved
    sub-seed and plan digest, so any failure reproduces from the artifact
    alone.
    """
    from repro.designs import build_design
    from repro.runtime.checkpoint import (content_key, load_checkpoint,
                                          save_checkpoint)
    from repro.runtime.faults import fault_point

    key = content_key(("chaos-soak-v1", design, seed, iterations, cycles,
                       engine or "default", float(coverage), tuple(kinds)))
    rows = []
    if checkpoint:
        body = load_checkpoint(checkpoint, "chaos", key)
        if body is not None:
            rows = list(body["rows"])

    def build():
        return build_design(design)

    def flush():
        if checkpoint:
            save_checkpoint(checkpoint, "chaos", key, {"rows": rows})

    channels = list(build().channels)
    try:
        for i in range(len(rows), iterations):
            if control is not None:
                control.raise_if_stopped()
            fault_point("chaos_iter", i)
            iter_seed = seed * 1000003 + i
            plan = ChaosPlan.seeded(iter_seed, channels, kinds=kinds,
                                    coverage=coverage)
            report = check_stream_invariance(build, plan, cycles=cycles,
                                             engine=engine)
            rows.append({
                "iteration": i,
                "seed": iter_seed,
                "plan_digest": report.plan_digest,
                "faults": len(plan.faults),
                "chaos_cycles": report.chaos_cycles,
                "ok": report.ok,
                "problems": list(report.mismatches)
                            + [f"liveness: {c} stuck at cycle {cy}"
                               for c, cy in report.stuck],
            })
            flush()
    except KeyboardInterrupt:
        flush()
        raise
    return {
        "design": design,
        "seed": seed,
        "engine": engine or "default",
        "iterations": iterations,
        "cycles": cycles,
        "rows": rows,
        "ok": all(row["ok"] for row in rows),
    }
