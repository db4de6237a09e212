"""Performance models: static cycle-time analysis, analytical marked-graph
throughput (minimum cycle ratio), simulation-based throughput measurement
and area accounting — the numbers the Section 5 toolkit reports."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".timing": ("cycle_time", "critical_path", "TimingResult"),
    ".mcr": ("cached_min_cycle_ratio", "marked_graph_throughput",
             "min_cycle_ratio"),
    ".throughput": ("measure_throughput", "ThroughputResult"),
    ".area": ("total_area", "area_breakdown"),
    ".report": ("performance_report", "PerfReport"),
    ".sweep": ("SweepSpec", "SweepResult", "run_sweep"),
})
