"""E11 — ``lanes=32`` model checking vs worklist BFS (ISSUE 5).

The Section 4.2 verification enumerates every reachable state of a
speculative controller composition under nondeterministic environments,
paying one fix-point per transition.  ``StateExplorer(lanes=32)`` runs
that fix-point on the compiled codegen engine; the baseline is the
worklist engine.

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
``PAIRS`` worklist/lanes pairs, alternating which side explores first;
every run, the median speedup and its quartiles are merged into
``results/BENCH_explore.json`` (merged, not clobbered, like the other
BENCH files).
"""

import statistics
import time

from conftest import merge_json, write_result

from repro.core.scheduler import ToggleScheduler
from repro.netlist import patterns
from repro.verif.deadlock import find_deadlocks
from repro.verif.explore import StateExplorer
from repro.verif.leads_to import check_leads_to

LANES = 32
N_ZBL = 3
MAX_STATES = 300_000
SPEEDUP_BAR = 2.0    # acceptance bar on the median per-pair speedup
PAIRS = 5            # worklist/lanes pairs, alternating the first


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


def _explore(**engine_args):
    start = time.perf_counter()
    result = StateExplorer(_design(), max_states=MAX_STATES,
                           **engine_args).explore()
    return result, time.perf_counter() - start


def _measure_pair(lanes_first):
    # The baseline names worklist: a bare lanes=1 runs the default, codegen.
    if lanes_first:
        batched, batched_seconds = _explore(lanes=LANES)
        scalar, scalar_seconds = _explore(engine="worklist")
    else:
        scalar, scalar_seconds = _explore(engine="worklist")
        batched, batched_seconds = _explore(lanes=LANES)
    # Correctness first — bit-identical exploration and identical verdicts.
    assert scalar.states == batched.states
    assert scalar.transitions == batched.transitions
    assert scalar.violations == batched.violations == []
    assert scalar.complete and batched.complete
    assert _verdicts(scalar) == _verdicts(batched)
    return scalar, scalar_seconds, batched_seconds


def test_explore_lane_batching():
    scalar_runs, batched_runs, speedups = [], [], []
    for pair in range(PAIRS):
        scalar, scalar_s, batched_s = _measure_pair(lanes_first=pair % 2)
        scalar_runs.append(scalar_s)
        batched_runs.append(batched_s)
        speedups.append(scalar_s / batched_s)
    assert scalar.n_states >= 2000, "benchmark state space shrank"
    q1, speedup, q3 = statistics.quantiles(speedups, n=4, method="inclusive")
    scalar_seconds = statistics.median(scalar_runs)
    batched_seconds = statistics.median(batched_runs)
    ok0, _ = check_leads_to(scalar, "fin0", "fout0")
    ok1, _ = check_leads_to(scalar, "fin1", "fout1")
    assert ok0 and ok1 and not find_deadlocks(scalar)
    payload = {
        "explore_batching": {
            "design": f"speculative_mc+zbl{N_ZBL}+kill",
            "lanes": LANES,
            "engine": "codegen",
            "states": scalar.n_states,
            "transitions": len(scalar.transitions),
            "pairs": PAIRS,
            "wall_seconds_scalar": scalar_seconds,
            "wall_seconds_batched": batched_seconds,
            "wall_seconds_scalar_runs": scalar_runs,
            "wall_seconds_batched_runs": batched_runs,
            "speedup": speedup,
            "speedup_q1": q1,
            "speedup_q3": q3,
            "speedup_runs": speedups,
        },
    }
    merge_json("BENCH_explore.json", payload)
    write_result(
        "explore_batching.txt",
        f"model checking: speculative composition + {N_ZBL}-stage ZBL "
        f"chain, killing sink, median of {PAIRS} alternating pairs\n"
        f"  states={scalar.n_states} transitions={len(scalar.transitions)}"
        f" (violations=0, deadlock-free, leads-to OK)\n"
        f"  worklist BFS:              {scalar_seconds:.2f}s\n"
        f"  lanes={LANES} (codegen) BFS:  {batched_seconds:.2f}s\n"
        f"  speedup: {speedup:.2f}x (quartiles {q1:.2f}x-{q3:.2f}x)",
    )
    assert speedup >= SPEEDUP_BAR, (
        f"lanes={LANES} exploration speedup {speedup:.2f}x below the "
        f"{SPEEDUP_BAR}x acceptance bar"
    )
