"""E11 — chaos-harness overhead (``repro.chaos``).

Measures what chaos instrumentation costs and proves the oracle still
closes under it:

* **wrap overhead** — fig6b run clean vs wrapped with a seeded plan
  (stall and bubble splices on about half the channels), same cycle
  count.  The runs go as ``PAIRS`` clean/wrapped pairs, alternating which
  side goes first; the per-pair slowdown is reported as its median with
  quartiles, next to every run.  A splice is made of ordinary kinds (a
  ``Func`` join, a permission source, an empty EB), so the wrapped run
  stays on the worklist engine's incremental path.  Both runs name the
  worklist engine (the default is codegen), so the history stays
  comparable.
* **oracle round trip** — one full :func:`repro.chaos.check_stream_invariance`
  differential (golden run + sabotaged run + stream comparison +
  unwrap), asserted to pass; its wall clock and elongation (sabotaged
  cycles / golden cycles) land in the trajectory.

Numbers land in ``results/BENCH_chaos.json`` via the shared
``merge_json``.  ``tests/test_perf_smoke.py`` guards the same wrap with
work counters (no deferred node under codegen, bounded comb evaluations
per node on the worklist engine) instead of wall clock.

Run:  PYTHONPATH=src python -m pytest -q benchmarks/bench_chaos.py
"""

import statistics
import time

from conftest import merge_json, write_result

from repro.chaos import ChaosPlan, check_stream_invariance, wrap
from repro.designs import build_design
from repro.sim.engine import Simulator

DESIGN = "fig6b"
CYCLES = 1500
SEED = 1
PAIRS = 5            # clean/wrapped pairs, alternating the first

#: acceptance bar: median per-cycle slowdown of a half-coverage wrapped run.
MAX_WRAP_OVERHEAD = 3.0


def _time_run(make_net):
    net = make_net()
    sim = Simulator(net, engine="worklist")
    start = time.perf_counter()
    sim.run(CYCLES)
    return time.perf_counter() - start


def test_chaos_wrap_overhead():
    plan = ChaosPlan.seeded(SEED, list(build_design(DESIGN).channels))

    def golden():
        return build_design(DESIGN)

    def wrapped():
        net = build_design(DESIGN)
        wrap(net, plan)
        return net

    golden_runs, wrapped_runs, overheads = [], [], []
    for pair in range(PAIRS):
        if pair % 2:
            wrapped_s = _time_run(wrapped)
            golden_s = _time_run(golden)
        else:
            golden_s = _time_run(golden)
            wrapped_s = _time_run(wrapped)
        golden_runs.append(golden_s)
        wrapped_runs.append(wrapped_s)
        overheads.append(wrapped_s / golden_s)
    q1, overhead, q3 = statistics.quantiles(overheads, n=4,
                                            method="inclusive")

    start = time.perf_counter()
    report = check_stream_invariance(golden, plan, cycles=CYCLES // 5)
    oracle_s = time.perf_counter() - start
    assert report.ok, (report.mismatches, report.stuck)
    elongation = report.chaos_cycles / report.cycles

    golden_median = statistics.median(golden_runs)
    wrapped_median = statistics.median(wrapped_runs)
    merge_json("BENCH_chaos.json", {
        "design": DESIGN,
        "cycles": CYCLES,
        "pairs": PAIRS,
        "n_faults": len(plan.faults),
        "plan_digest": plan.digest(),
        "wall_seconds": {
            "golden": golden_median,
            "wrapped": wrapped_median,
            "golden_runs": golden_runs,
            "wrapped_runs": wrapped_runs,
            "oracle_round_trip": oracle_s,
        },
        "wrap_overhead": overhead,
        "wrap_overhead_q1": q1,
        "wrap_overhead_q3": q3,
        "wrap_overhead_runs": overheads,
        "oracle_elongation": elongation,
        "oracle_ok": report.ok,
    })
    write_result(
        "chaos_overhead.txt",
        f"{DESIGN}: {len(plan.faults)} faults spliced in, {CYCLES} cycles, "
        f"median of {PAIRS} alternating pairs\n"
        f"  golden:        {golden_median:6.3f}s\n"
        f"  wrapped:       {wrapped_median:6.3f}s ({overhead:.2f}x per cycle, "
        f"quartiles {q1:.2f}x-{q3:.2f}x)\n"
        f"  oracle:        {oracle_s:6.3f}s round trip "
        f"({elongation:.2f}x elongation, "
        f"{'OK' if report.ok else 'FAIL'})",
    )
    assert overhead < MAX_WRAP_OVERHEAD
