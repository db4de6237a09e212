"""A toy 65 nm-style standard-cell library.

The paper synthesizes its examples "using commercial tools with a 65nm
technology library"; we replace that with a calibrated cell table whose
*relative* area and delay figures are typical of a 65 nm process (delays in
normalized FO4-ish units, areas in NAND2-equivalents).  All conclusions we
reproduce are ratio-based (speed-up factors, area overheads), which such a
table preserves.

The library also centralizes the elastic-controller overhead estimates used
by the performance models: EB latch/flop cost per bit, controller gate
counts (taken from the published SELF controller structures), channel mux
cost for shared modules, and the small control delays of the kill/stop
pass-through paths.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GateSpec:
    """One library cell: area in NAND2 equivalents, delay in normalized
    units (roughly FO4)."""

    name: str
    area: float
    delay: float
    inputs: int


_CELLS = {
    "inv": GateSpec("inv", 0.6, 0.5, 1),
    "buf": GateSpec("buf", 0.8, 0.7, 1),
    "nand2": GateSpec("nand2", 1.0, 0.7, 2),
    "nor2": GateSpec("nor2", 1.0, 0.8, 2),
    "and2": GateSpec("and2", 1.3, 0.9, 2),
    "or2": GateSpec("or2", 1.3, 1.0, 2),
    "xor2": GateSpec("xor2", 2.2, 1.4, 2),
    "xnor2": GateSpec("xnor2", 2.2, 1.4, 2),
    "mux2": GateSpec("mux2", 2.0, 1.1, 3),
    "aoi21": GateSpec("aoi21", 1.6, 0.9, 3),
    "latch": GateSpec("latch", 2.4, 1.0, 2),
    "dff": GateSpec("dff", 4.5, 1.2, 2),
}


class TechLibrary:
    """Cell table plus elastic-controller cost models."""

    #: combinational delay contributed by the kill/stop pass-through of a
    #: zero-backward-latency EB controller (a couple of gates, Section 4.3).
    zbl_control_delay = 1.5
    #: combinational delay of the shared-module controller pass-through.
    shared_ctrl_delay = 1.2
    #: control overhead added in series with a join/eemux firing decision.
    ee_ctrl_delay = 1.0
    #: stop-propagation delay through a lazy join controller.
    join_ctrl_delay = 0.8
    #: acknowledge-combination delay through an eager fork controller.
    fork_ctrl_delay = 0.8
    #: sequential overhead per cycle (clock-to-Q + setup of the EB latches).
    register_overhead = 1.0
    #: controller + clock-gating network delay of the *stalling*
    #: variable-latency unit (Figure 6(a)): the error flag must gate the
    #: enable of every output latch before the edge, so it pays gating
    #: logic plus an enable-distribution buffer tree — several gate levels
    #: more than the speculative design's kill pass-through chain.  This is
    #: the path Section 5.1 removes by speculating.
    vl_ctrl_delay = 6.0

    def __init__(self, cells=None, name="toy65"):
        self.name = name
        self.cells = dict(_CELLS if cells is None else cells)

    def cell(self, name):
        return self.cells[name]

    def area_of(self, name):
        return self.cells[name].area

    def delay_of(self, name):
        return self.cells[name].delay

    # -- elastic element cost models -------------------------------------------

    def eb_area(self, width, capacity=2):
        """Standard EB: two transparent latches per bit (master/slave pairs
        per capacity slot beyond the first use another pair) + ~8 control
        gates (Figure 2(a))."""
        latches = self.area_of("latch") * width * max(2, capacity)
        control = 8 * self.area_of("nand2") + 2 * self.area_of("latch")
        return latches + control

    def zbl_eb_area(self, width):
        """ZBL EB: two flip-flops for forward bits, one flop stage of data
        (Figure 5) + combinational stop/kill gates."""
        flops = self.area_of("dff") * width
        control = 2 * self.area_of("dff") + 6 * self.area_of("nand2")
        return flops + control

    def fork_ctrl_area(self, n_outputs):
        return n_outputs * (self.area_of("dff") + 3 * self.area_of("nand2"))

    def join_ctrl_area(self, n_inputs):
        return n_inputs * 2 * self.area_of("nand2")

    def eemux_ctrl_area(self, n_inputs):
        """Early-evaluation join controller with anti-token counters."""
        per_branch = 2 * self.area_of("dff") + 4 * self.area_of("nand2")
        return n_inputs * per_branch + 4 * self.area_of("nand2")

    def shared_ctrl_area(self, n_channels):
        """Figure 4(b): per-channel gating plus the scheduler register."""
        per_channel = 5 * self.area_of("nand2")
        scheduler = 2 * self.area_of("dff") + 4 * self.area_of("nand2")
        return n_channels * per_channel + scheduler

    def vl_ctrl_area(self):
        """Stalling variable-latency controller: error latch, clock-gating
        cell and a few decision gates (Figure 6(a))."""
        return 2 * self.area_of("dff") + 6 * self.area_of("nand2")

    def mux_area(self, width, n_inputs):
        """Datapath word mux (tree of mux2 cells)."""
        return self.area_of("mux2") * width * max(1, n_inputs - 1)

    def mux_delay(self, n_inputs):
        """Delay of the word-mux tree (log depth)."""
        depth = max(1, (n_inputs - 1).bit_length())
        return self.delay_of("mux2") * depth

    def register_area(self, width):
        return self.area_of("dff") * width


#: Shared default instance.
DEFAULT_TECH = TechLibrary()


def memoized_costs(cache, key, tech, synthesize):
    """A copy of the cost dict ``synthesize()`` returns, computed once per
    ``key`` and cell table and kept in ``cache``.

    Block costs come from gate-level netlists that take far longer to
    synthesize than the elastic netlist built around them, and never
    change for a given block and cell table.  ``TechLibrary`` is mutable,
    so its cells, not its identity, join the key; callers get a copy they
    may edit."""
    full_key = (key, tuple(sorted(tech.cells.items())))
    costs = cache.get(full_key)
    if costs is None:
        costs = cache[full_key] = synthesize()
    return dict(costs)
