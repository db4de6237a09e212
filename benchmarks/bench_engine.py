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
machine-readably.
"""

import time

from conftest import merge_json, write_result

from repro.core.scheduler import ToggleScheduler
from repro.core.speculation import speculate
from repro.designs import DESIGNS
from repro.netlist import patterns
from repro.sim.engine import Simulator

PIPELINE_STAGES = 12


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


def _rate(fn, cycles=400, repeat=3):
    """Best-of-``repeat`` cycles/second of ``fn(cycles=...)``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(cycles=cycles)
        best = min(best, time.perf_counter() - start)
    return cycles / best


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
    assert net.nodes_of_kind("shared")
    assert benchmark.stats["mean"] < 0.1      # "very fast to compute"


def test_worklist_vs_codegen():
    """Head-to-head in one run: the worklist engine vs the compiled
    codegen engine.  Codegen must beat worklist by >= 5x on the 12-stage
    pipeline and reach >= 1x on the speculative fig1d and fig6b loops.
    Also records fig7b and the transformation latency, machine-readably,
    for cross-PR trajectory tracking.  Merged via ``merge_json`` so the
    entries it does not write (such as the ``speedup`` of the retired
    dense-sweep engine) stay in ``BENCH_engine.json``."""
    workloads = {
        "fig1d": simulate_fig1d,
        "fig6b": lambda cycles, engine=None: simulate_design("fig6b", cycles, engine),
        "fig7b": lambda cycles, engine=None: simulate_design("fig7b", cycles, engine),
        "pipeline12": simulate_pipeline,
    }
    rates = {
        name: {engine: _rate(lambda cycles, fn=fn, engine=engine:
                             fn(cycles, engine=engine))
               for engine in ("worklist", "codegen")}
        for name, fn in workloads.items()
    }
    start = time.perf_counter()
    transform_fig1a()
    transform_seconds = time.perf_counter() - start
    payload = {
        "cycles_per_second": rates,
        "codegen_speedup": {
            name: pair["codegen"] / pair["worklist"] for name, pair in rates.items()
        },
        "transform_seconds": transform_seconds,
        "pipeline_stages": PIPELINE_STAGES,
    }
    merge_json("BENCH_engine.json", payload)
    lines = ["engine comparison (cycles/second, best of 3):"]
    for name, pair in rates.items():
        lines.append(
            f"  {name:<11} worklist={pair['worklist']:>10,.0f}  "
            f"codegen={pair['codegen']:>10,.0f}  "
            f"codegen_speedup={pair['codegen'] / pair['worklist']:.2f}x"
        )
    lines.append(f"  speculation rewrite: {transform_seconds * 1000:.1f} ms")
    write_result("engine_comparison.txt", "\n".join(lines))
    assert payload["codegen_speedup"]["pipeline12"] >= 5.0
    assert payload["codegen_speedup"]["fig1d"] >= 1.0
    assert payload["codegen_speedup"]["fig6b"] >= 1.0
