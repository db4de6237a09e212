"""E9 — sharded design-space sweeps (``repro.perf.sweep``).

Runs the 24-configuration fig6-style grid (stalling vs speculative x
arithmetic fraction x carry-window width) serially and sharded over a
multiprocessing spawn pool, ``SHARD_PAIRS`` alternating pairs, asserts
the merged reports are byte-identical, and records every run's wall
clock, the medians and the speedup's quartiles in
``results/BENCH_sweep.json`` (same machine-readable trajectory style as
``BENCH_engine.json``).

The wall-clock speedup is only *asserted* when the machine actually has
spare cores: on a single-CPU runner sharding cannot beat serial (spawn
overhead with zero parallelism), so there the numbers are recorded for
the trajectory but not gated.

The lane test measures ``lanes=8`` on the 8-configuration
single-topology fig6 slice: 8 serial worklist runs vs the same 8
configurations under ``lanes=8``, which runs the compiled codegen engine
(one module for the whole slice).  Unlike sharding this is pure
single-thread work, so its >= 3x cycles-throughput bar holds on a 1-CPU
runner.  It runs ``LANE_PAIRS`` serial/lanes pairs, alternating which
side goes first, and records every run, the medians and the speedup's
quartiles.  Both tests' numbers land in the same ``BENCH_sweep.json``
(merged, so neither test clobbers the other's trajectory fields).
"""

import os
import statistics

from conftest import merge_json, write_result

from repro.perf.presets import fig6_lane_spec, fig6_spec
from repro.perf.sweep import run_sweep

N_WORKERS = 4
CYCLES = 400
LANES = 8
LANE_CYCLES = 800
LANE_WARMUP = 100
LANE_PAIRS = 5       # serial/lanes pairs, alternating the first
SHARD_PAIRS = 5      # serial/sharded pairs, alternating the first


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # non-Linux
        return os.cpu_count() or 1


def _merge_bench_json(payload):
    """Shared-conftest merge (PR 3 convention): neither sweep test clobbers
    the other's trajectory fields."""
    merge_json("BENCH_sweep.json", payload)


def test_sweep_serial_vs_sharded():
    """Serial vs sharded runs of the fig6 grid, ``SHARD_PAIRS`` pairs
    alternating which side goes first; every run, the medians and the
    speedup's quartiles are recorded."""
    spec = fig6_spec(cycles=CYCLES)
    serial_runs, sharded_runs, speedups = [], [], []

    def serial_run():
        return run_sweep(spec, n_workers=1)

    def sharded_run():
        return run_sweep(spec, n_workers=N_WORKERS)

    for pair in range(SHARD_PAIRS):
        if pair % 2:
            sharded = sharded_run()
            serial = serial_run()
        else:
            serial = serial_run()
            sharded = sharded_run()
        # The acceptance bar: the merged report is independent of sharding.
        assert len(serial.rows) >= 24
        assert sharded.to_json() == serial.to_json()
        serial_runs.append(serial.elapsed_seconds)
        sharded_runs.append(sharded.elapsed_seconds)
        speedups.append(serial.elapsed_seconds / sharded.elapsed_seconds)
    q1, speedup, q3 = statistics.quantiles(speedups, n=4, method="inclusive")
    serial_wall = statistics.median(serial_runs)
    sharded_wall = statistics.median(sharded_runs)
    cpus = _usable_cpus()
    payload = {
        "wall_seconds": {
            "serial": serial_wall,
            "sharded": sharded_wall,
        },
        "wall_seconds_runs": {
            "serial": serial_runs,
            "sharded": sharded_runs,
        },
        "pairs": SHARD_PAIRS,
        "speedup": {
            "fig6_grid": speedup,
            "fig6_grid_q1": q1,
            "fig6_grid_q3": q3,
            "fig6_grid_runs": speedups,
        },
        "n_configs": len(serial.rows),
        "n_workers": N_WORKERS,
        "cycles_per_config": CYCLES,
        "usable_cpus": cpus,
        "engine": serial.engine,
    }
    _merge_bench_json(payload)
    write_result(
        "sweep_comparison.txt",
        f"fig6 grid: {len(serial.rows)} configurations x {CYCLES} cycles, "
        f"median of {SHARD_PAIRS} alternating pairs\n"
        f"  serial:  {serial_wall:6.2f}s\n"
        f"  sharded: {sharded_wall:6.2f}s "
        f"({N_WORKERS} workers, {cpus} usable cpu(s))\n"
        f"  speedup: {speedup:.2f}x (quartiles {q1:.2f}x-{q3:.2f}x)\n"
        f"  merged reports byte-identical: True",
    )
    if cpus >= 2:
        assert speedup > 1.0


def test_sweep_lane_batching():
    """``lanes=8`` (codegen) vs 8 serial worklist runs of the
    single-topology fig6 slice, one process: the acceptance bar is >= 3x
    cycles-throughput."""
    spec = fig6_lane_spec(cycles=LANE_CYCLES, warmup=LANE_WARMUP)
    total_cycles = LANES * (LANE_CYCLES + LANE_WARMUP)
    serial_runs, batch_runs, speedups = [], [], []

    def serial_run():
        return run_sweep(spec, n_workers=1, engine="worklist")

    def lanes_run():
        return run_sweep(spec, n_workers=1, lanes=LANES)

    for pair in range(LANE_PAIRS):
        if pair % 2:
            batched = lanes_run()
            serial = serial_run()
        else:
            serial = serial_run()
            batched = lanes_run()
        assert len(serial.rows) == LANES
        # The lane width changes the engine, never the results: rows agree
        # with the worklist engine in everything but the recorded engine.
        for scalar_row, batched_row in zip(serial.rows, batched.rows):
            assert dict(scalar_row, engine="codegen") == batched_row
        serial_runs.append(serial.elapsed_seconds)
        batch_runs.append(batched.elapsed_seconds)
        speedups.append(serial.elapsed_seconds / batched.elapsed_seconds)
    q1, speedup, q3 = statistics.quantiles(speedups, n=4, method="inclusive")
    serial_wall = statistics.median(serial_runs)
    batch_wall = statistics.median(batch_runs)
    serial_rate = total_cycles / serial_wall
    batch_rate = total_cycles / batch_wall
    _merge_bench_json({
        "lane_batching": {
            "grid": spec.name,
            "n_configs": LANES,
            "lanes": LANES,
            "engine": batched.engine,
            "cycles_per_config": LANE_CYCLES + LANE_WARMUP,
            "wall_seconds": {
                "serial_scalar": serial_wall,
                "batch_8_lanes": batch_wall,
            },
            "cycles_per_second": {
                "serial_scalar": serial_rate,
                "batch_8_lanes": batch_rate,
            },
            "pairs": LANE_PAIRS,
            "wall_seconds_runs": {
                "serial_scalar": serial_runs,
                "batch_8_lanes": batch_runs,
            },
            "speedup": speedup,
            "speedup_q1": q1,
            "speedup_q3": q3,
            "speedup_runs": speedups,
        },
    })
    write_result(
        "sweep_lane_batching.txt",
        f"fig6 single-topology slice: {LANES} configurations x "
        f"{LANE_CYCLES + LANE_WARMUP} cycles, one process, median of "
        f"{LANE_PAIRS} alternating pairs\n"
        f"  serial worklist:   {serial_wall:6.2f}s "
        f"({serial_rate:9.0f} cycles/s)\n"
        f"  lanes=8 ({batched.engine}): {batch_wall:6.2f}s "
        f"({batch_rate:9.0f} cycles/s)\n"
        f"  speedup: {speedup:.2f}x (quartiles {q1:.2f}x-{q3:.2f}x)\n"
        f"  results identical to worklist: True",
    )
    assert speedup >= 3.0
