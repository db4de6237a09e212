"""E11 — model checking on codegen vs worklist.

The Section 4.2 verification enumerates every reachable state of a
speculative controller composition under nondeterministic environments.
``StateExplorer(engine="codegen")`` expands each state with one call of
the compiled expansion entry; the baseline, ``engine="worklist"``, pays
one interpreted fix-point per transition.

The benchmark design is the paper's speculative composition (two nondet
sources -> shared unit + toggle scheduler -> early-evaluation mux) with a
three-stage zero-backward-latency chain and an anti-token-injecting sink
behind it: the ZBL chain multiplies the reachable state space into the
thousands and keeps the stop/kill network *combinational* across the
whole design — the fix-point-heavy regime.

Correctness first: the two explorations must be bit-identical (states in
discovery order, transition list, violations, completeness) and agree on
the deadlock and leads-to verdicts — a fast wrong answer cannot pass.
The acceptance bar is a >= 2x median wall-clock speedup.  The runs go as
``PAIRS`` worklist/codegen pairs, alternating which side explores first;
every run, the median speedup and its quartiles are merged into
``results/BENCH_explore.json`` (merged, not clobbered, like the other
BENCH files), and each run appends its states/s per engine, speedup and
environment and the ``git describe`` of the timed source to the file's
``history`` list (point ``PYTHONPATH`` at another checkout's ``src`` to
time that code with this bench).  The ``explore_batching``
entry of that file is the last run recorded before the history existed
(when codegen was requested as ``lanes=32``).

Run:  PYTHONPATH=src python -m pytest -q benchmarks/bench_explore.py
"""

import json
import os
import platform
import statistics
import time

from conftest import RESULTS_DIR, merge_json, revision, write_result

from repro.core.scheduler import ToggleScheduler
from repro.netlist import patterns
from repro.verif.deadlock import find_deadlocks
from repro.verif.explore import StateExplorer
from repro.verif.leads_to import check_leads_to

N_ZBL = 3
MAX_STATES = 300_000
SPEEDUP_BAR = 2.0    # acceptance bar on the median per-pair speedup
PAIRS = 5            # worklist/codegen pairs, alternating the first
ENGINES = ("worklist", "codegen")


def _design():
    net, _names = patterns.speculative_mc(
        ToggleScheduler(2), n_zbl=N_ZBL, can_kill_sink=True)
    return net


def _verdicts(result):
    return (
        find_deadlocks(result),
        check_leads_to(result, "fin0", "fout0"),
        check_leads_to(result, "fin1", "fout1"),
    )


def _explore(engine):
    start = time.perf_counter()
    result = StateExplorer(_design(), max_states=MAX_STATES,
                           engine=engine).explore()
    return result, time.perf_counter() - start


def _measure_pair(codegen_first):
    order = ENGINES[::-1] if codegen_first else ENGINES
    runs = {engine: _explore(engine) for engine in order}
    (scalar, scalar_s), (compiled, compiled_s) = (runs[e] for e in ENGINES)
    # Correctness first — bit-identical exploration and identical verdicts.
    assert scalar.states == compiled.states
    assert scalar.transitions == compiled.transitions
    assert scalar.violations == compiled.violations == []
    assert scalar.complete and compiled.complete
    assert _verdicts(scalar) == _verdicts(compiled)
    return scalar, scalar_s, compiled_s


def _history(entry):
    """``BENCH_explore.json``'s recorded runs with ``entry`` appended; a
    file written before the history existed contributes its last run
    first."""
    path = os.path.join(RESULTS_DIR, "BENCH_explore.json")
    old = {}
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
    history = old.get("history")
    if history is None:
        history = []
        last = old.get("explore_batching")
        if last:
            history.append({
                "states": last["states"],
                "transitions": last["transitions"],
                "pairs": last["pairs"],
                "states_per_second": {
                    "worklist": last["states"] / last["wall_seconds_scalar"],
                    "codegen": last["states"] / last["wall_seconds_batched"],
                },
                "speedup": last["speedup"],
                "speedup_q1": last["speedup_q1"],
                "speedup_q3": last["speedup_q3"],
            })
    return history + [entry]


def test_explore_codegen_vs_worklist():
    seconds = {engine: [] for engine in ENGINES}
    speedups = []
    for pair in range(PAIRS):
        scalar, scalar_s, compiled_s = _measure_pair(codegen_first=pair % 2)
        seconds["worklist"].append(scalar_s)
        seconds["codegen"].append(compiled_s)
        speedups.append(scalar_s / compiled_s)
    assert scalar.n_states >= 2000, "benchmark state space shrank"
    q1, speedup, q3 = statistics.quantiles(speedups, n=4, method="inclusive")
    median_s = {engine: statistics.median(runs)
                for engine, runs in seconds.items()}
    rates = {engine: scalar.n_states / median_s[engine]
             for engine in ENGINES}
    ok0, _ = check_leads_to(scalar, "fin0", "fout0")
    ok1, _ = check_leads_to(scalar, "fin1", "fout1")
    assert ok0 and ok1 and not find_deadlocks(scalar)
    entry = {
        "states": scalar.n_states,
        "transitions": len(scalar.transitions),
        "pairs": PAIRS,
        "states_per_second": rates,
        "speedup": speedup,
        "speedup_q1": q1,
        "speedup_q3": q3,
        "environment": {"python": platform.python_version(),
                        "cpus": os.cpu_count()},
        "revision": revision(),
    }
    payload = {
        "explore_engines": {
            "design": f"speculative_mc+zbl{N_ZBL}+kill",
            **entry,
            "wall_seconds": median_s,
            "wall_seconds_runs": seconds,
            "speedup_runs": speedups,
        },
        "history": _history(entry),
    }
    merge_json("BENCH_explore.json", payload)
    write_result(
        "explore_batching.txt",
        f"model checking: speculative composition + {N_ZBL}-stage ZBL "
        f"chain, killing sink, median of {PAIRS} alternating pairs\n"
        f"  states={scalar.n_states} transitions={len(scalar.transitions)}"
        f" (violations=0, deadlock-free, leads-to OK)\n"
        f"  worklist BFS: {median_s['worklist']:.2f}s "
        f"({rates['worklist']:,.0f} states/s)\n"
        f"  codegen BFS:  {median_s['codegen']:.2f}s "
        f"({rates['codegen']:,.0f} states/s)\n"
        f"  speedup: {speedup:.2f}x (quartiles {q1:.2f}x-{q3:.2f}x)",
    )
    assert speedup >= SPEEDUP_BAR, (
        f"codegen exploration speedup {speedup:.2f}x below the "
        f"{SPEEDUP_BAR}x acceptance bar"
    )
