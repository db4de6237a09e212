"""The stalling variable-latency unit of Figure 6(a).

A telescopic unit (ref [3]): the frequent case completes in one clock
cycle using ``F_approx``; when the error detector ``F_err`` fires, the unit
"inserts a bubble into the receiver channel and stalls the sender" and
finishes with ``F_exact`` in a second cycle.

This node models that behaviour directly (it *is* the baseline the
speculative design of Figure 6(b) is compared against): a two-slot station
whose head token becomes visible after 1 cycle normally and 2 cycles when
``err_fn`` fires on its operands.  The output value is always the exact
result — variable latency changes timing, never values.

Timing: the defining hazard of this design is that ``F_err`` — which needs
the *exact* result to compare against (Section 5.1: "F_exact followed by a
few gates of the controller is delay critical") — feeds the controller's
clock-gating logic combinationally.  :meth:`timing_arcs` therefore reports
a data-to-control crossing with delay ``err_path_delay``.
"""

from __future__ import annotations

from repro.elastic.node import BWD, DATA, Node


class VariableLatencyUnit(Node):
    """Stalling variable-latency function unit (1 or 2 cycles).

    Parameters
    ----------
    fn:
        Exact result function of the token value.
    err_fn:
        Predicate on the token value: True when the approximation would be
        wrong, forcing the 2-cycle path.
    delay:
        Exact-datapath delay (for the forward timing arc).
    err_path_delay:
        Delay of the ``F_err`` -> controller clock-gating path (the
        Section 5.1 critical path of this design).
    """

    kind = "varlat"
    registers_tokens = True
    #: the two-slot station (head in flight + skid slot)
    capacity = 2
    #: the snapshot is the station: ``(value, remaining cycles)`` pairs,
    #: head first
    state_slots = {"_station": ()}
    bare_slot = True
    reset_slots = {"slow_ops": 0, "total_ops": 0}

    def __init__(self, name, fn, err_fn, delay=1.0, err_path_delay=1.0,
                 area_cost=1.0):
        super().__init__(name)
        self.fn = fn
        self.err_fn = err_fn
        self.delay = delay
        self.err_path_delay = err_path_delay
        self.area_cost = area_cost
        self.add_in("i")
        self.add_out("o")
        self.reset()

    @property
    def count(self):
        """Tokens currently occupying the two-slot station."""
        return len(self._station)

    # -- combinational ---------------------------------------------------------

    def comb(self):
        station = self._station
        head_ready = bool(station) and station[0][1] == 0
        self.drive("o", "vp", head_ready)
        if head_ready:
            self.drive("o", "data", station[0][0])
        # Anti-tokens: a ready head can be cancelled in the channel; an
        # in-flight computation cannot be killed mid-stage (stall the anti).
        self.drive("o", "sm", not head_ready)
        self.drive("i", "sp", len(station) >= 2)
        self.drive("i", "vm", False)

    # -- sequential ----------------------------------------------------------------

    def tick(self):
        ost = self.st("o")
        ist = self.st("i")
        # The single function unit only works on the op occupying the head
        # slot this cycle; a token promoted from the skid slot starts its
        # computation next cycle (no overlap with the stall it replaces).
        station = self._station
        if ost.vp and not ost.sp:          # forward transfer or cancel
            station = station[1:]
        elif station and station[0][1] > 0:
            value, remaining = station[0]
            station = ((value, remaining - 1),) + station[1:]
        if ist.vp and not ist.sp and not ist.vm:
            value = ist.data
            slow = bool(self.err_fn(value))
            station += ((self.fn(value), 1 if slow else 0),)
            self.total_ops += 1
            if slow:
                self.slow_ops += 1
        self._station = station

    # -- performance -------------------------------------------------------------------

    def area(self, tech):
        width = self.channel("o").width if "o" in self._channels else 8
        # the unit owns its two-slot station plus the clock-gating control
        return self.area_cost + tech.eb_area(width, 2) + tech.vl_ctrl_area()

    def timing_arcs(self, tech):
        return [
            # exact datapath to the (registered) output station
            ("i", DATA, "o", DATA, self.delay),
            # F_err -> controller clock gating: the Section 5.1 critical
            # path of the stalling design, ending at the input stop
            ("i", DATA, "i", BWD, self.err_path_delay),
        ]
