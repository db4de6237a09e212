#!/usr/bin/env python3
"""Design-space exploration with the Section 5 toolkit.

Drives the scripted Session (transformations + undo/redo + reports),
sweeps a fig6-style parameter grid sharded over multiprocessing workers
(``repro.perf.sweep``), verifies the speculative composition with the
built-in model checker, and exports Verilog / SMV / dot artifacts — the
full workflow of the paper's "interactive shell".

Run:  python examples/design_space_exploration.py [output_dir] [n_workers]
"""

import os
import sys

from repro import patterns
from repro.backend.smv import to_smv
from repro.backend.verilog import to_verilog
from repro.core.scheduler import RepairScheduler, ToggleScheduler
from repro.elastic.environment import NondetSink, NondetSource
from repro.netlist.graph import Netlist
from repro.core.shared import SharedModule
from repro.elastic.eemux import EarlyEvalMux
from repro.perf import run_sweep
from repro.perf.presets import fig6_spec
from repro.perf.timing import cycle_time
from repro.transform.session import Session
from repro.verif.deadlock import find_deadlocks
from repro.verif.explore import StateExplorer
from repro.verif.leads_to import check_leads_to


def explore():
    print("=== scripted exploration of the Figure 1 loop ===")
    net, names = patterns.fig1a(lambda g: (g // 2) % 2)
    session = Session(net)
    # One warm simulator for the whole loop: it follows every
    # transformation (and undo) below through the netlist edit log — no
    # per-measurement clone or rebuild (PR 4).
    session.simulator()

    def report(tag):
        r = session.report()
        theta = "n/a"
        if r.throughput is not None:
            theta = f"{r.throughput:.3f}"
        else:
            measured = session.measure("mux_f"
                                       if "mux_f" in session.netlist.channels
                                       else names["ebin"],
                                       cycles=600, warmup=60)
            theta = f"{measured.throughput:.3f} (sim)"
        print(f"  {tag:<28} T={r.cycle_time:6.2f}  area={r.area:7.1f}  "
              f"theta={theta}")

    report("start: fig1(a)")
    session.run_command("insert_bubble mux_f")
    report("after insert_bubble")
    session.run_command("undo")
    report("after undo")
    session.run_script(
        """
        shannon mux F
        early_eval mux
        share F_c0 F_c1 --scheduler=repair
        """
    )
    report("after speculation recipe")
    print(f"  history: {session.log}\n")
    return session


def sweep_design_space(n_workers):
    """Shard a stalling-vs-speculative grid over worker processes and
    merge the per-configuration reports (identical to a serial run)."""
    print(f"=== sharded design-space sweep ({n_workers} worker(s)) ===")
    spec = fig6_spec(fracs=(0.0, 0.5, 1.0), windows=(2, 3), cycles=300)
    result = run_sweep(spec, n_workers=n_workers)
    print(result.table())
    print(f"  {len(result.rows)} configurations in "
          f"{result.elapsed_seconds:.2f}s (engine={result.engine})\n")

    # lanes=N asks for the compiled engine: every configuration runs as
    # generated straight-line code, with results identical to the run
    # above (modulo the engine tag).
    print(f"=== same sweep, lanes=4 ({n_workers} worker(s)) ===")
    laned = run_sweep(spec, n_workers=n_workers, lanes=4)
    same = all(
        dict(row, engine=laned.engine) == laned_row
        for row, laned_row in zip(result.rows, laned.rows)
    )
    print(f"  {len(laned.rows)} configurations in "
          f"{laned.elapsed_seconds:.2f}s (engine={laned.engine}); "
          f"results identical to worklist: {same}\n")


class BinarySelectSource(NondetSource):
    """Nondeterministic source of 0/1 select tokens (idle / offer-0 /
    offer-1)."""

    def choice_space(self):
        return 1 if self._offering else 3

    def pre_cycle(self):
        if not self._offering and self._choice in (1, 2):
            self._offering = True
            self._counter = self._choice - 1

    def snapshot(self):
        return (self._offering, self._counter)

    def restore(self, state):
        self._offering, self._counter = state

    def tick(self):
        ost = self.st("o")
        if ost.vp and not ost.sp:
            self._offering = False


def verify(session):
    print("=== model checking the shared-module composition ===")
    net = Netlist("mc")
    net.add(NondetSource("a"))
    net.add(NondetSource("b"))
    net.add(SharedModule("sh", lambda x: x, RepairScheduler(2), n_channels=2))
    net.add(EarlyEvalMux("mux", n_inputs=2))
    net.add(BinarySelectSource("sel"))
    net.add(NondetSink("snk"))
    net.connect("a.o", "sh.i0", name="fin0")
    net.connect("b.o", "sh.i1", name="fin1")
    net.connect("sh.o0", "mux.i0", name="fout0")
    net.connect("sh.o1", "mux.i1", name="fout1")
    net.connect("sel.o", "mux.s", name="cs")
    net.connect("mux.o", "snk.i", name="out")
    result = StateExplorer(net, max_states=60000).explore()
    print(f"  reachable states: {result.n_states}")
    print(f"  protocol violations: {len(result.violations)}")
    print(f"  deadlocks: {len(find_deadlocks(result))}")
    ok0, _ = check_leads_to(result, "fin0", "fout0")
    ok1, _ = check_leads_to(result, "fin1", "fout1")
    print(f"  leads-to (eq. 1): fin0={ok0}, fin1={ok1}\n")


def export(session, outdir):
    print(f"=== exporting artifacts to {outdir} ===")
    import os

    os.makedirs(outdir, exist_ok=True)
    dot_path = os.path.join(outdir, "speculative_loop.dot")
    with open(dot_path, "w") as fh:
        fh.write(session.to_dot())
    verilog_path = os.path.join(outdir, "speculative_loop.v")
    with open(verilog_path, "w") as fh:
        fh.write(to_verilog(session.netlist))
    smv_path = os.path.join(outdir, "speculative_loop.smv")
    with open(smv_path, "w") as fh:
        fh.write(to_smv(session.netlist))
    for path in (dot_path, verilog_path, smv_path):
        print(f"  wrote {path}")


if __name__ == "__main__":
    outdir = sys.argv[1] if len(sys.argv) > 1 else "build_artifacts"
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else min(
        2, os.cpu_count() or 1)
    session = explore()
    sweep_design_space(workers)
    verify(session)
    export(session, outdir)
