"""Canned sweep specs for the paper's design spaces.

Every factory here is a module-level callable taking only plain
(picklable) parameters, so the specs shard over ``multiprocessing``
workers unchanged — the randomness of the operand / select streams lives
*inside* the factory, seeded by a grid parameter, which is what makes the
merged sweep deterministic regardless of worker count.

``PRESET_SWEEPS`` is the registry behind ``python -m repro sweep --grid``.
"""

from __future__ import annotations

import random

#: scheduler construction has to happen inside the worker (scheduler
#: instances hold run state), so grids carry these names instead.
SCHEDULERS = {
    "twobit": lambda: _schedulers().TwoBitScheduler(),
    "repair": lambda: _schedulers().RepairScheduler(2),
    "toggle": lambda: _schedulers().ToggleScheduler(2),
}


def _schedulers():
    from repro.core import scheduler

    return scheduler


def _biased_sel(bias, seed):
    """Select stream for the Figure 1 loop: P(branch 0) = ``bias``."""
    rng = random.Random(seed)
    cache = {}

    def fn(generation):
        if generation not in cache:
            cache[generation] = 0 if rng.random() < bias else 1
        return cache[generation]

    return fn


def fig1_point(design="fig1d", bias=0.8, seed=1, scheduler="twobit", width=8):
    """One Figure 1 design point: ``fig1a`` | ``fig1b`` | ``fig1c`` |
    ``fig1d``."""
    from repro.netlist import patterns

    sel = _biased_sel(bias, seed)
    if design == "fig1a":
        return patterns.fig1a(sel, width=width)
    if design == "fig1b":
        return patterns.fig1b(sel, width=width)
    if design == "fig1c":
        return patterns.fig1c(sel, width=width)
    if design == "fig1d":
        return patterns.fig1d(sel, scheduler=SCHEDULERS[scheduler](),
                              width=width)
    raise ValueError(f"unknown fig1 design {design!r}")


def fig6_point(design="stalling", seed=0, arith_fraction=0.7, window=3,
               width=8):
    """One Figure 6 variable-latency ALU point: ``stalling`` |
    ``speculative``."""
    from repro.datapath.alu import Alu
    from repro.netlist.varlat import (
        variable_latency_speculative,
        variable_latency_stalling,
    )

    alu = Alu(width=width, window=window)
    if design == "stalling":
        return variable_latency_stalling(alu, seed=seed,
                                         arith_fraction=arith_fraction)
    if design == "speculative":
        return variable_latency_speculative(alu, seed=seed,
                                            arith_fraction=arith_fraction)
    raise ValueError(f"unknown fig6 design {design!r}")


def fig7_point(design="fig7b", error_rate=0.0, seed=1, width=64):
    """One Figure 7 resilient-adder point: ``unprotected`` | ``fig7a`` |
    ``fig7b``."""
    from repro.datapath.secded import Secded
    from repro.netlist.resilient import (
        plain_adder,
        resilient_nonspeculative,
        resilient_speculative,
    )

    makers = {
        "unprotected": plain_adder,
        "fig7a": resilient_nonspeculative,
        "fig7b": resilient_speculative,
    }
    if design not in makers:
        raise ValueError(f"unknown fig7 design {design!r}")
    return makers[design](Secded(width), error_rate=error_rate, seed=seed)


def fig1_spec(bias=0.8, seed=1, cycles=1500, warmup=100, labels=None):
    """The four Figure 1 design points: (a)-(c) analyzed statically via the
    marked graph, (d) simulated on its loop channel.  ``labels`` optionally
    maps design -> configuration label (the benchmark uses descriptive
    names like ``fig1a_non_speculative``)."""
    from repro.perf.sweep import SweepSpec

    labels = labels or {}
    points = []
    for design in ("fig1a", "fig1b", "fig1c", "fig1d"):
        point = {"design": design}
        if design != "fig1d":
            point["sim_channel"] = None
        if design in labels:
            point["label"] = labels[design]
        points.append(point)
    return SweepSpec(
        name="fig1",
        factory=fig1_point,
        points=points,
        base={"bias": bias, "seed": seed, "scheduler": "twobit"},
        channel="ebin",
        cycles=cycles,
        warmup=warmup,
    )


def fig1_accuracy_spec(biases=(0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0), seed=2,
                       scheduler="repair", cycles=1500, warmup=100):
    """Prediction-accuracy sweep of the speculative Figure 1(d) loop."""
    from repro.perf.sweep import SweepSpec

    return SweepSpec(
        name="fig1d-accuracy",
        factory=fig1_point,
        grid={"bias": tuple(biases)},
        base={"design": "fig1d", "seed": seed, "scheduler": scheduler},
        channel="ebin",
        cycles=cycles,
        warmup=warmup,
    )


def fig6_spec(designs=("stalling", "speculative"),
              fracs=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0), windows=(2, 3), seed=3,
              cycles=800, warmup=100):
    """Figure 6 grid: stalling vs speculative x arithmetic fraction x
    carry-window width.  The defaults expand to 24 configurations."""
    from repro.perf.sweep import SweepSpec

    return SweepSpec(
        name="fig6",
        factory=fig6_point,
        grid={
            "design": tuple(designs),
            "arith_fraction": tuple(fracs),
            "window": tuple(windows),
        },
        base={"seed": seed, "width": 8},
        channel="out",
        cycles=cycles,
        warmup=warmup,
    )


def fig6_lane_spec(design="speculative",
                   fracs=(0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0),
                   window=3, seed=3, cycles=800, warmup=100):
    """A single-topology slice of the Figure 6 grid: one design style,
    eight arithmetic fractions.

    All eight configurations share one netlist structure (only the operand
    stream differs), so under ``run_sweep(spec, lanes=8)`` — which runs
    the codegen engine — the whole sweep compiles one module.  This is the
    workload ``benchmarks/bench_sweep.py`` uses to track ``lanes=8``
    cycles/second against the serial worklist baseline."""
    from repro.perf.sweep import SweepSpec

    return SweepSpec(
        name=f"fig6-lanes-{design}",
        factory=fig6_point,
        grid={"arith_fraction": tuple(fracs)},
        base={"design": design, "seed": seed, "window": window, "width": 8},
        channel="out",
        cycles=cycles,
        warmup=warmup,
    )


def fig7_spec(designs=("fig7a", "fig7b"),
              rates=(0.0, 0.02, 0.05, 0.1, 0.2, 0.4), seed=3, cycles=800,
              warmup=50):
    """Figure 7 grid: non-speculative vs speculative SECDED stage x
    injected error rate."""
    from repro.perf.sweep import SweepSpec

    return SweepSpec(
        name="fig7",
        factory=fig7_point,
        grid={"design": tuple(designs), "error_rate": tuple(rates)},
        base={"seed": seed, "width": 64},
        channel="out",
        cycles=cycles,
        warmup=warmup,
    )


#: ``python -m repro sweep --grid <name>``
PRESET_SWEEPS = {
    "fig1": fig1_spec,
    "fig1-accuracy": fig1_accuracy_spec,
    "fig6": fig6_spec,
    "fig6-lanes": fig6_lane_spec,
    "fig7": fig7_spec,
}
