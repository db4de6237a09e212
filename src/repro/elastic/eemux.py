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

    def comb(self):
        sst = self.st("s")
        ost = self.st("o")
        kills = self._kills
        pko = self._pko
        # The select token and the selected input decide whether the mux
        # can fire (Kleene: unknown until the select's valid and data are).
        if sst.vp:
            sel = sst.data
            if sel is not None and not (isinstance(sel, int)
                                        and 0 <= sel < self.n_inputs):
                raise SchedulerError(
                    f"EarlyEvalMux {self.name}: select value {sel!r} "
                    f"out of range 0..{self.n_inputs - 1}")
            ready = None
            for j in range(self.n_inputs):
                if sel == j:
                    ready = kand(self.st(self.in_ports[1 + j]).vp,
                                 kills[j] == 0)
        else:
            sel = None
            ready = sst.vp             # False, or None while unknown
        offer = kand(ready, pko == 0)
        self.drive("o", "vp", offer)
        if pko > 0:
            fire = ready
        else:
            fire = kand(ready, knot(ost.sp))
        self.drive("s", "sp", knot(fire))
        self.drive("s", "vm", False)
        # A firing kills every input but the selected one, and consumes
        # that one: unknown while fire is (``and`` keeps a None fire, and
        # a fire that is True has a known select).
        for j in range(self.n_inputs):
            vm = kor(kills[j] > 0, fire and j != sel)
            self.drive(self.in_ports[1 + j], "vm", vm)
            self.drive(self.in_ports[1 + j], "sp",
                       kite(vm, False, knot(fire and j == sel)))
        self.drive("o", "sm", kite(offer, False, pko >= self.max_kills))
        # Drive data whenever the output token is offered (vp may be high
        # while the consumer stalls us — data must be valid then too).
        if offer:
            for j in range(self.n_inputs):
                if sel == j:
                    self.drive("o", "data", self.st(self.in_ports[1 + j]).data)

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
