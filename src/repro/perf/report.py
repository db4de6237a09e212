"""Combined performance reports — the numbers the Section 5 toolkit prints
for each design point during exploration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NetlistError
from repro.perf.area import total_area
from repro.perf.mcr import marked_graph_throughput
from repro.perf.throughput import measure_throughput
from repro.perf.timing import analyze_timing
from repro.tech.library import DEFAULT_TECH


@dataclass
class PerfReport:
    """One design point: area, clock period, throughput, effective time."""

    name: str
    area: float
    cycle_time: float
    critical_path: list = field(default_factory=list)
    throughput: float = None
    effective_cycle_time: float = None
    throughput_source: str = "none"

    def row(self):
        return {
            "design": self.name,
            "area": round(self.area, 1),
            "cycle_time": round(self.cycle_time, 2),
            "throughput": None if self.throughput is None else round(self.throughput, 4),
            "effective": None
            if self.effective_cycle_time is None
            else round(self.effective_cycle_time, 2),
        }

    def __str__(self):
        row = self.row()
        return (
            f"{row['design']}: area={row['area']}, T={row['cycle_time']}, "
            f"theta={row['throughput']}, effective={row['effective']}"
        )


def static_report(netlist, tech=None, name=None):
    """Area and cycle-time analysis only (no throughput yet).

    :func:`performance_report` attaches the throughput afterwards via
    :func:`attach_throughput`.
    """
    tech = tech or DEFAULT_TECH
    timing = analyze_timing(netlist, tech)
    return PerfReport(
        name=name or netlist.name,
        area=total_area(netlist, tech),
        cycle_time=timing.cycle_time,
        critical_path=timing.path,
    )


def attach_throughput(report, throughput, source):
    """Attach a throughput figure (and the derived effective cycle time).

    A measured throughput of exactly 0.0 is real data (a deadlocked design
    point), distinct from "no data" (``None``): keep both out of the
    division, but never conflate them in the report fields.
    """
    report.throughput = throughput
    report.throughput_source = source
    if throughput is not None and throughput > 0:
        report.effective_cycle_time = report.cycle_time / throughput
    return report


def performance_report(netlist, tech=None, sim_channel=None, cycles=2000,
                       warmup=100, name=None):
    """Analyze one design.

    Throughput comes from marked-graph analysis when the design is plain
    elastic, or from simulation on ``sim_channel`` when given (mandatory for
    speculative designs).  The simulation runs on ``netlist`` itself, after
    the static figures are taken (the owner contract of
    :func:`~repro.perf.throughput.measure_throughput`).
    """
    report = static_report(netlist, tech=tech, name=name)
    if sim_channel is not None:
        measured = measure_throughput(
            netlist, sim_channel, cycles=cycles, warmup=warmup
        )
        return attach_throughput(report, measured.throughput, "simulation")
    try:
        return attach_throughput(
            report, marked_graph_throughput(netlist), "marked-graph"
        )
    except NetlistError:
        return attach_throughput(report, None, "none")


def format_report_table(reports):
    """Plain-text comparison table of several :class:`PerfReport` rows."""
    headers = ["design", "area", "cycle_time", "throughput", "effective"]
    rows = [r.row() for r in reports]
    widths = {
        h: max([len(h)] + [len(str(row[h])) for row in rows]) for h in headers
    }
    lines = ["  ".join(h.ljust(widths[h]) for h in headers)]
    lines.append("  ".join("-" * widths[h] for h in headers))
    for row in rows:
        lines.append("  ".join(str(row[h]).ljust(widths[h]) for h in headers))
    return "\n".join(lines)
