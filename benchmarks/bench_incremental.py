"""E10 — warm edit-following simulator vs clone-and-rebuild.

The Section 5 exploration flow is a transform-simulate-measure loop.
Before ISSUE 4 every iteration paid O(netlist) *twice*: the session
deep-cloned the whole design per transform for its undo history
(PR 3's ``Session._apply``), and every measurement cloned it again and
rebuilt a fresh ``Simulator`` (re-running sensitivity analysis,
levelization, monitor construction and reset).  This bench runs the
*same* deterministic 200-step quick-scoring script over the Figure 6(b)
speculative design through both loops:

* **incremental** — edit-log session history plus one warm,
  edit-following simulator (``Session.simulator()``), measured in place
  via ``Session.measure`` / ``measure_throughput(reuse_simulator=...)``;
* **rebuild** — the earlier path, faithfully: a clone-based-history
  session (the old ``Session._apply``/``undo``/``redo`` mechanics,
  reproduced below) and a per-step ``measure_throughput`` that clones the
  netlist and constructs a fresh simulator.

The per-step measurement uses a *micro budget* (a few cycles — ranking
candidate rewrites by relative throughput, the way a hill-climbing
explorer scores thousands of neighbours; finalists get a full-budget
re-score outside the loop).  Both loops must score every design point
**identically** — the pure op stream makes reset-and-rerun
bit-reproducible, so a fast wrong answer cannot pass.  Both loops run on
the worklist engine: it is the followers' default, and a fresh
codegen simulator per step would compile every new topology, which
times elaboration rather than the rebuild this bench compares
against (13.6 s vs 3.9 s for one rebuild loop).  The loops run as
``PAIRS`` pairs, alternating which side goes first; the acceptance bar is
a >= 3x median wall-clock speedup, recorded with its quartiles in
``results/BENCH_incremental.json`` (merged, not clobbered, like
``BENCH_sweep.json``).

Run:  PYTHONPATH=src python -m pytest -q benchmarks/bench_incremental.py
"""

import random
import statistics
import time

from conftest import merge_json, write_result

from repro.errors import TransformError
from repro.netlist.varlat import variable_latency_speculative
from repro.perf.throughput import measure_throughput
from repro.sim.engine import set_default_engine
from repro.transform.session import Session

STEPS = 200
CYCLES = 6           # simulated cycles per quick-score
WARMUP = 2
CHANNEL = "out"
SPEEDUP_BAR = 3.0    # acceptance bar on the median speedup
PAIRS = 5            # incremental/rebuild pairs, alternating the first


def _design():
    net, _names = variable_latency_speculative(seed=3, pure_stream=True)
    return net


class CloneHistorySession(Session):
    """The earlier session mechanics, for the baseline loop: undo/redo
    history as whole-netlist deep clones (O(history x netlist) memory, one
    deep copy per transform), netlist object swapped on undo/redo."""

    def _apply(self, kind, fn, *args, **kwargs):
        before = self.netlist.clone()
        try:
            result = fn(self.netlist, *args, **kwargs)
        except Exception:
            self.netlist = before
            raise
        self.netlist.validate()
        self._undo.append((kind, before))
        if len(self._undo) > self.max_history:
            self._undo.pop(0)
        self._redo.clear()
        self.log.append(kind)
        return result

    def undo(self):
        if not self._undo:
            raise TransformError("nothing to undo")
        kind, before = self._undo.pop()
        self._redo.append((kind, self.netlist))
        self.netlist = before
        self.log.append(f"undo {kind}")
        return kind

    def redo(self):
        if not self._redo:
            raise TransformError("nothing to redo")
        kind, after = self._redo.pop()
        self._undo.append((kind, self.netlist))
        self.netlist = after
        self.log.append(f"redo {kind}")
        return kind


def make_script(steps=STEPS, seed=20):
    """One deterministic transform script (command strings), generated by a
    dry run so undo/redo depths are always legal and both timed loops can
    replay the exact same commands."""
    rng = random.Random(seed)
    session = Session(_design())
    commands = []
    while len(commands) < steps:
        roll = rng.random()
        channels = sorted(session.netlist.channels)
        if roll < 0.45:
            command = f"insert_bubble {rng.choice(channels)}"
        elif roll < 0.65:
            command = f"insert_zbl {rng.choice(channels)}"
        elif roll < 0.85:
            command = "undo"
        else:
            command = "redo"
        try:
            session.run_command(command)
        except TransformError:
            continue                 # nothing to undo/redo at this depth
        commands.append(command)
    return commands


def run_incremental(commands):
    """Transform-simulate-measure with one warm, edit-following simulator."""
    session = Session(_design())
    session.simulator()
    scores = []
    start = time.perf_counter()
    for command in commands:
        session.run_command(command)
        result = session.measure(CHANNEL, cycles=CYCLES, warmup=WARMUP)
        scores.append(result.transfers)
    elapsed = time.perf_counter() - start
    return elapsed, scores


def run_rebuild(commands):
    """The baseline loop: clone-based session history plus a netlist clone
    and simulator rebuild for every measurement (exactly the earlier code
    paths)."""
    session = CloneHistorySession(_design())
    scores = []
    start = time.perf_counter()
    for command in commands:
        session.run_command(command)
        # measure_throughput runs on the netlist it is given; the earlier
        # path measured a clone, which the baseline keeps paying
        result = measure_throughput(session.netlist.clone(), CHANNEL,
                                    cycles=CYCLES, warmup=WARMUP)
        scores.append(result.transfers)
    elapsed = time.perf_counter() - start
    return elapsed, scores


def test_incremental_vs_rebuild_loop():
    commands = make_script()
    assert len(commands) == STEPS
    incremental, rebuild, speedups = [], [], []
    previous = set_default_engine("worklist")
    try:
        for pair in range(PAIRS):
            if pair % 2:
                incremental_seconds, incremental_scores = \
                    run_incremental(commands)
                rebuild_seconds, rebuild_scores = run_rebuild(commands)
            else:
                rebuild_seconds, rebuild_scores = run_rebuild(commands)
                incremental_seconds, incremental_scores = \
                    run_incremental(commands)
            # Correctness first — a fast wrong answer is not a speedup: the
            # warm loop must score every one of the design points
            # identically to the clone-and-rebuild loop.
            assert incremental_scores == rebuild_scores
            incremental.append(incremental_seconds)
            rebuild.append(rebuild_seconds)
            speedups.append(rebuild_seconds / incremental_seconds)
    finally:
        set_default_engine(previous)
    speedup_q1, speedup, speedup_q3 = statistics.quantiles(
        speedups, n=4, method="inclusive")
    incremental_median = statistics.median(incremental)
    rebuild_median = statistics.median(rebuild)
    payload = {
        "incremental_loop": {
            "steps": STEPS,
            "cycles_per_measure": CYCLES,
            "warmup": WARMUP,
            "design": "fig6b_speculative",
            "engine": "worklist",
            "pairs": PAIRS,
            "wall_seconds_incremental": incremental_median,
            "wall_seconds_rebuild": rebuild_median,
            "wall_seconds_incremental_runs": incremental,
            "wall_seconds_rebuild_runs": rebuild,
            "speedup": speedup,
            "speedup_q1": speedup_q1,
            "speedup_q3": speedup_q3,
            "speedup_runs": speedups,
        },
    }
    merge_json("BENCH_incremental.json", payload)
    write_result(
        "incremental_loop.txt",
        f"{STEPS}-step transform-simulate-measure loop (fig6b, "
        f"{CYCLES}+{WARMUP} cycles/step), median of {PAIRS} alternating "
        f"pairs:\n"
        f"  clone-and-rebuild: {rebuild_median:.2f}s\n"
        f"  incremental:       {incremental_median:.2f}s\n"
        f"  speedup: {speedup:.2f}x (quartiles {speedup_q1:.2f}x-"
        f"{speedup_q3:.2f}x)",
    )
    assert speedup >= SPEEDUP_BAR, (
        f"incremental loop median speedup {speedup:.2f}x below the "
        f"{SPEEDUP_BAR}x acceptance bar"
    )
