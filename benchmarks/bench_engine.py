"""E8 — toolkit speed: simulation and transformation rates.

The paper's Section 5: "Since all transformations are local they are very
fast to compute.  This environment enables fast exploration of the design
space."  This bench measures the Python engine's cycles/second on the
Figure 1(d) loop and a deep 12-stage pipeline, the latency of a complete
speculation rewrite, and — head to head in the same run, also on the
speculative Figure 6(b) and 7(b) designs — the event-driven worklist
fix-point engine against the compiled codegen engine.

Besides the human-readable tables, the head-to-head writes
``results/BENCH_engine.json`` so future PRs can track the perf trajectory
machine-readably: ``PAIRS`` worklist/codegen pairs per workload,
alternating which engine goes first, with every run, the median rates and
the median codegen speedup with its quartiles.  Each run also appends its
medians, quartiles and environment to the file's ``history`` list, so a
re-run adds to the trajectory instead of replacing it.

Run:  PYTHONPATH=src python -m pytest -q benchmarks/bench_engine.py
"""

import json
import os
import platform
import statistics
import time

from conftest import RESULTS_DIR, merge_json, write_result

from repro.core.scheduler import ToggleScheduler
from repro.core.shared import SharedModule
from repro.core.speculation import speculate
from repro.designs import DESIGNS
from repro.netlist import patterns
from repro.sim.engine import Simulator

PIPELINE_STAGES = 12
PAIRS = 5            # worklist/codegen pairs per workload, alternating the first
#: the fields of a run kept in ``BENCH_engine.json``'s ``history``
HISTORY_KEYS = ("pairs", "cycles_per_second", "codegen_speedup",
                "codegen_speedup_q1", "codegen_speedup_q3")


def simulate_fig1d(cycles=500, engine=None):
    net, _names = patterns.fig1d(lambda g: g % 2)
    Simulator(net, engine=engine).run(cycles)
    return cycles


def simulate_pipeline(cycles=500, engine=None):
    """The 12-stage deep pipeline: function blocks separated by
    zero-backward-latency buffers, so the backward stop chain is
    combinational across all stages — a dense sweep's worst case."""
    net = patterns.deep_pipeline(PIPELINE_STAGES, source_values=list(range(cycles)))
    Simulator(net, engine=engine).run(cycles)
    return cycles


def simulate_design(name, cycles=500, engine=None):
    """A registered paper design (fig6b: variable-latency speculation,
    fig7b: SECDED-resilient speculation)."""
    Simulator(DESIGNS[name](), engine=engine).run(cycles)
    return cycles


def transform_fig1a():
    net, _names = patterns.fig1a(lambda g: 0)
    speculate(net, "mux", "F", ToggleScheduler(2))
    return net


def _rate(fn, engine, cycles=400):
    """Cycles/second of one ``fn(cycles, engine=engine)`` run."""
    start = time.perf_counter()
    fn(cycles, engine=engine)
    return cycles / (time.perf_counter() - start)


def _pairs(fn):
    """``PAIRS`` alternating worklist/codegen rates of ``fn``, after one
    untimed run per engine (it compiles the codegen module)."""
    runs = {"worklist": [], "codegen": []}
    for engine in runs:
        fn(50, engine=engine)
    for pair in range(PAIRS):
        order = ("codegen", "worklist") if pair % 2 else ("worklist", "codegen")
        for engine in order:
            runs[engine].append(_rate(fn, engine))
    return runs


def test_engine_speed_fig1d(benchmark):
    cycles = benchmark(simulate_fig1d)
    rate = cycles / benchmark.stats["mean"]
    write_result("engine_fig1d.txt",
                 f"fig1d simulation: {rate:,.0f} cycles/second (mean)")
    assert rate > 1000          # sanity: the engine is usable for sweeps

def test_engine_speed_pipeline(benchmark):
    cycles = benchmark(simulate_pipeline)
    rate = cycles / benchmark.stats["mean"]
    write_result("engine_pipeline.txt",
                 f"{PIPELINE_STAGES}-stage pipeline: {rate:,.0f} "
                 f"cycles/second (mean)")
    assert rate > 500


def test_transformation_speed(benchmark):
    net = benchmark(transform_fig1a)
    assert any(isinstance(node, SharedModule) for node in net.nodes.values())
    assert benchmark.stats["mean"] < 0.1      # "very fast to compute"


def _history(payload):
    """``BENCH_engine.json``'s recorded runs with this one appended; a file
    written before the history existed contributes its last run first."""
    path = os.path.join(RESULTS_DIR, "BENCH_engine.json")
    old = {}
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
    history = old.get("history")
    if history is None:
        history = [{k: old[k] for k in HISTORY_KEYS if k in old}] if old else []
    entry = {k: payload[k] for k in HISTORY_KEYS}
    entry["environment"] = {"python": platform.python_version(),
                            "cpus": os.cpu_count()}
    return history + [entry]


def test_worklist_vs_codegen():
    """Head-to-head in one run: the worklist engine vs the compiled
    codegen engine, as ``PAIRS`` alternating pairs per workload.  The
    median per-pair codegen speedup must be >= 5x on the 12-stage
    pipeline and >= 1x on the speculative fig1d and fig6b loops.  Also
    records fig7b and the transformation latency, machine-readably, for
    cross-PR trajectory tracking.  Merged via ``merge_json`` so the
    entries it does not write (such as the ``speedup`` of the retired
    dense-sweep engine) stay in ``BENCH_engine.json``."""
    workloads = {
        "fig1d": simulate_fig1d,
        "fig6b": lambda cycles, engine=None: simulate_design("fig6b", cycles, engine),
        "fig7b": lambda cycles, engine=None: simulate_design("fig7b", cycles, engine),
        "pipeline12": simulate_pipeline,
    }
    runs = {name: _pairs(fn) for name, fn in workloads.items()}
    rates, speedups = {}, {}
    for name, pair in runs.items():
        rates[name] = {engine: statistics.median(values)
                       for engine, values in pair.items()}
        ratios = [c / w for c, w in zip(pair["codegen"], pair["worklist"])]
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        speedups[name] = {"median": median, "q1": q1, "q3": q3,
                          "runs": ratios}
    start = time.perf_counter()
    transform_fig1a()
    transform_seconds = time.perf_counter() - start
    payload = {
        "pairs": PAIRS,
        "cycles_per_second": rates,
        "cycles_per_second_runs": runs,
        "codegen_speedup": {n: sp["median"] for n, sp in speedups.items()},
        "codegen_speedup_q1": {n: sp["q1"] for n, sp in speedups.items()},
        "codegen_speedup_q3": {n: sp["q3"] for n, sp in speedups.items()},
        "codegen_speedup_runs": {n: sp["runs"] for n, sp in speedups.items()},
        "transform_seconds": transform_seconds,
        "pipeline_stages": PIPELINE_STAGES,
    }
    payload["history"] = _history(payload)
    merge_json("BENCH_engine.json", payload)
    lines = [f"engine comparison (cycles/second, median of {PAIRS} "
             "alternating pairs):"]
    for name, pair in rates.items():
        speedup = speedups[name]
        lines.append(
            f"  {name:<11} worklist={pair['worklist']:>10,.0f}  "
            f"codegen={pair['codegen']:>10,.0f}  "
            f"codegen_speedup={speedup['median']:.2f}x "
            f"(quartiles {speedup['q1']:.2f}x-{speedup['q3']:.2f}x)"
        )
    lines.append(f"  speculation rewrite: {transform_seconds * 1000:.1f} ms")
    write_result("engine_comparison.txt", "\n".join(lines))
    assert payload["codegen_speedup"]["pipeline12"] >= 5.0
    assert payload["codegen_speedup"]["fig1d"] >= 1.0
    assert payload["codegen_speedup"]["fig6b"] >= 1.0
