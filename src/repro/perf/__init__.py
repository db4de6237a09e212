"""Performance models: static cycle-time analysis, analytical marked-graph
throughput (minimum cycle ratio), simulation-based throughput measurement
and area accounting — the numbers the Section 5 toolkit reports."""

from repro.perf.timing import cycle_time, critical_path, TimingResult
from repro.perf.mcr import (
    cached_min_cycle_ratio,
    marked_graph_throughput,
    min_cycle_ratio,
)
from repro.perf.throughput import measure_throughput, ThroughputResult
from repro.perf.area import total_area, area_breakdown
from repro.perf.report import performance_report, PerfReport
from repro.perf.sweep import SweepSpec, SweepResult, run_sweep

__all__ = [
    "cycle_time",
    "critical_path",
    "TimingResult",
    "cached_min_cycle_ratio",
    "marked_graph_throughput",
    "min_cycle_ratio",
    "measure_throughput",
    "ThroughputResult",
    "total_area",
    "area_breakdown",
    "performance_report",
    "PerfReport",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
]
