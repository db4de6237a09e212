"""Area accounting.

Sums per-node area estimates (datapath + controller) against a technology
library.  Used for the paper's overhead figures: the 12% of the speculative
variable-latency unit (extra EBs after the shared unit, Section 5.1) and
the 36% of the speculative SECDED stage (recovery EBs, Section 5.2).
"""

from __future__ import annotations

from repro.tech.library import DEFAULT_TECH


def area_breakdown(netlist, tech=None):
    """Per-node area dict (library units)."""
    tech = tech or DEFAULT_TECH
    return {name: node.area(tech) for name, node in netlist.nodes.items()}


def total_area(netlist, tech=None):
    """Total area.

    Environments (:attr:`~repro.elastic.node.Node.is_environment`:
    sources and sinks) are excluded — they model the testbench, not the
    design.
    """
    tech = tech or DEFAULT_TECH
    total = 0.0
    for node in netlist.nodes.values():
        if node.is_environment:
            continue
        total += node.area(tech)
    return total


def area_overhead(base_netlist, new_netlist, tech=None):
    """Relative area increase of ``new`` over ``base`` (e.g. 0.12 = +12%)."""
    base = total_area(base_netlist, tech)
    new = total_area(new_netlist, tech)
    if base == 0:
        raise ZeroDivisionError("base design has zero area")
    return (new - base) / base
