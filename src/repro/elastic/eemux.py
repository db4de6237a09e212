"""Early-evaluation multiplexor.

A conventional elastic multiplexor is a lazy join: it waits for the select
token *and all* data inputs.  The early-evaluation mux (references [4, 13,
1, 7] of the paper) fires as soon as the select token and the *selected*
data token are present.  When it fires it injects an **anti-token** into
every non-selected input channel; the anti-token cancels the dispensable
token immediately if it is already there, or propagates backward (through
shared modules, zero-backward-latency buffers, or into an EB's anti-token
store) to annihilate it wherever it is.

This node is the decision point of the speculation scheme of Section 2: the
shared module upstream predicts which input will be selected; on a correct
prediction the mux fires and the anti-token cleans up the other channel; on
a misprediction the mux stalls (the required data is absent) until the
scheduler corrects itself.
"""

from __future__ import annotations

from repro.elastic.node import BWD, DATA, VALID, Node, adjusted
from repro.errors import SchedulerError
from repro.kleene import kand, kite, knot, kor


class EarlyEvalMux(Node):
    """N-way early-evaluation multiplexor.

    Ports: ``s`` (select token carrying an int in ``[0, n)``),
    ``i0 .. i{n-1}`` (data inputs), ``o`` (output).
    """

    kind = "eemux"
    arity_checks = (("n_inputs", "in_ports", 1),)     # + the select port
    #: pending kills per data input, then those of our own output
    state_slots = {"_kills": lambda n: (0,) * n.n_inputs, "_pko": 0}

    def __init__(self, name, n_inputs=2, delay=0.2, max_kills=4):
        super().__init__(name)
        if n_inputs < 2:
            raise ValueError(f"EarlyEvalMux {name}: needs at least two inputs")
        self.n_inputs = n_inputs
        self.delay = delay
        self.max_kills = max_kills
        self.add_in("s")
        for i in range(n_inputs):
            self.add_in(f"i{i}")
        self.add_out("o")
        self.reset()

    # -- combinational ------------------------------------------------------------

    def _select(self):
        """Resolve (sel, can_fire) in Kleene terms."""
        sst = self.st("s")
        if sst.vp is False:
            return None, False
        if sst.vp is None:
            return None, None
        sel = sst.data
        if sel is None:
            return None, None
        if not isinstance(sel, int) or not 0 <= sel < self.n_inputs:
            raise SchedulerError(
                f"EarlyEvalMux {self.name}: select value {sel!r} out of range 0..{self.n_inputs - 1}"
            )
        ist = self.st(f"i{sel}")
        avail = kand(ist.vp, self._kills[sel] == 0)
        return sel, avail

    def comb_tasks(self):
        # The fire decision reads across ports: select valid *and data*
        # (the data value picks which input's valid/data matter — declare
        # them all), plus the downstream stop on the backward side.
        ins = [f"i{j}" for j in range(self.n_inputs)]
        select = [("s", "vp"), ("s", "data")] + [(port, "vp") for port in ins]
        return [
            (select + [(port, "data") for port in ins],
             [("o", "vp"), ("o", "data"), ("o", "sm")]),
            (select + [("o", "sp")],
             [("s", "sp")] + [(port, sig) for port in ins
                              for sig in ("vm", "sp")]),
            ([], [("s", "vm")]),
        ]

    def comb(self):
        ost = self.st("o")
        sel, can_fire = self._select()
        self.drive("o", "vp", kand(can_fire, self._pko == 0))
        if self._pko > 0:
            fire = can_fire
        else:
            fire = kand(can_fire, knot(ost.sp))
        self.drive("s", "sp", knot(fire))
        self.drive("s", "vm", False)
        for j in range(self.n_inputs):
            port = f"i{j}"
            if fire is False:
                kill_now = False
                consumed = False
            elif sel is None or fire is None:
                kill_now = None
                consumed = None
            else:
                kill_now = j != sel
                consumed = j == sel
            vm_j = kor(self._kills[j] > 0, kill_now)
            self.drive(port, "vm", vm_j)
            self.drive(port, "sp", kite(vm_j, False, knot(consumed)))
        self.drive(
            "o", "sm", kite(kand(can_fire, self._pko == 0), False, self._pko >= self.max_kills)
        )
        # Drive data whenever the output token is offered (vp may be high
        # while the consumer stalls us — data must be valid then too).
        if can_fire is True and self._pko == 0 and sel is not None:
            data = self.st(f"i{sel}").data
            if data is not None:
                self.drive("o", "data", data)

    # -- sequential -----------------------------------------------------------------

    def tick(self):
        sst = self.st("s")
        ost = self.st("o")
        fire = sst.vp and not sst.sp
        if fire and self._pko > 0:
            self._pko -= 1
        # a firing kills every non-selected input; a kill delivered in the
        # same cycle leaves its counter as it was
        for j in range(self.n_inputs):
            ist = self.st(self.in_ports[1 + j])       # in_ports[0] is "s"
            step = (fire and j != sst.data) - (ist.vm and (ist.vp or not ist.sm))
            if step:
                self._kills = adjusted(self._kills, j, step, self.max_kills,
                                       f"EarlyEvalMux {self.name}")
        if ost.vm and not ost.sm and not ost.vp:
            self._pko += 1

    # -- performance -------------------------------------------------------------------

    def area(self, tech):
        width = self.channel("o").width if "o" in self._channels else 8
        return tech.mux_area(width, self.n_inputs) + tech.eemux_ctrl_area(self.n_inputs)

    def timing_arcs(self, tech):
        data_ports = [f"i{j}" for j in range(self.n_inputs)]
        # datapath: select + selected word through the output mux
        arcs = [("s", DATA, "o", DATA, self.delay)]
        for p in data_ports:
            arcs.append((p, DATA, "o", DATA, self.delay))
        # fire decision: select *data* and valids drive output valid and
        # the kill/stop bits of every input channel
        fire_sources = [("s", DATA), ("s", VALID)] + [(p, VALID) for p in data_ports]
        fire_sinks = [("o", VALID)] + [(q, BWD) for q in ["s"] + data_ports]
        for sp, spl in fire_sources:
            for tp, tpl in fire_sinks:
                arcs.append((sp, spl, tp, tpl, tech.ee_ctrl_delay))
        for q in ["s"] + data_ports:
            arcs.append(("o", BWD, q, BWD, tech.ee_ctrl_delay))
        return arcs

    def width_pairs(self):
        return [(port, "o") for port in self.in_ports if port != "s"]

    def kill_ports(self):
        # the anti-tokens sent into the non-selected data channels
        return [port for port in self.in_ports if port != "s"]
