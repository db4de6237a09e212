"""Combinational function blocks.

A :class:`Func` is an elastic block computing ``out = f(in_0, ..., in_{n-1})``
combinationally.  Its control is a *lazy join*: the block fires when every
input carries a token and the output is not stalled ("all inputs must be
available in order to start a computation", Section 1).

Anti-token handling: an anti-token absorbed at the output must kill exactly
one future output token, i.e. one token on *every* input.  The block keeps a
pending-kill counter per input; a pending kill is delivered either by
cancelling with a token waiting in the input channel or by propagating
backward into the producer (an EB absorbs it as a stored anti-token).
"""

from __future__ import annotations

from repro.elastic.node import BWD, DATA, VALID, Node, adjusted
from repro.kleene import kand, kite, knot


class Func(Node):
    """N-input combinational block with lazy-join control.

    Parameters
    ----------
    name:
        Node name.
    fn:
        Python function of ``n_inputs`` positional arguments; its result is
        the output token value.
    n_inputs:
        Number of token inputs (ports ``i0 .. i{n-1}``).
    delay:
        Combinational datapath delay (library units) for cycle-time analysis.
    area_cost:
        Datapath area (library units).
    max_kills:
        Bound on pending kills per input (model-checking hygiene).
    """

    kind = "func"
    arity_checks = (("n_inputs", "in_ports", 0),)
    #: the snapshot is the tuple of pending kills per input
    state_slots = {"_kills": lambda n: (0,) * n.n_inputs}
    bare_slot = True

    def __init__(self, name, fn, n_inputs=1, delay=1.0, area_cost=1.0, max_kills=4):
        super().__init__(name)
        if n_inputs < 1:
            raise ValueError(f"Func {name}: needs at least one input")
        self.fn = fn
        self.n_inputs = n_inputs
        self.delay = delay
        self.area_cost = area_cost
        self.max_kills = max_kills
        for i in range(n_inputs):
            self.add_in(f"i{i}")
        self.add_out("o")
        self.reset()

    # -- combinational ---------------------------------------------------------

    def comb(self):
        ost = self.st("o")
        kills = self._kills
        # A waiting token on input i only participates when no kill targets it.
        all_avail = True
        for i in range(self.n_inputs):
            all_avail = kand(all_avail, kand(self.st(self.in_ports[i]).vp,
                                             kills[i] == 0))
        self.drive("o", "vp", all_avail)
        # fire covers both forward transfer and output-side cancellation
        # (vp & vm with sp forced low): inputs are consumed either way.
        fire = kand(all_avail, knot(ost.sp))
        for i in range(self.n_inputs):
            pending = kills[i] > 0
            self.drive(self.in_ports[i], "vm", pending)
            # Kill and stop are mutually exclusive on a channel.
            self.drive(self.in_ports[i], "sp",
                       kite(pending, False, knot(fire)))
        # Accept an anti-token at the output: cancel with the offered token
        # when valid, otherwise absorb it into the kill counters if there is
        # room on every input.
        self.drive("o", "sm", kite(all_avail, False, not kand(
            *[kills[i] < self.max_kills for i in range(self.n_inputs)])))
        # Data: fn runs once per cycle — a re-evaluation after o.data is
        # known could only re-drive the same value.
        if all_avail and ost.data is None and kand(
                *[self.st(port).data is not None for port in self.in_ports]):
            self.drive("o", "data", self.fn(
                *[self.st(port).data for port in self.in_ports]))

    # -- sequential --------------------------------------------------------------

    def tick(self):
        ost = self.st("o")
        absorbed = ost.vm and not ost.sm and not ost.vp
        for i in range(self.n_inputs):
            ist = self.st(self.in_ports[i])
            # one more per absorbed anti-token, one less per delivered kill
            step = absorbed - (ist.vm and (ist.vp or not ist.sm))
            if step:
                self._kills = adjusted(self._kills, i, step, self.max_kills,
                                       f"Func {self.name}")

    # -- performance ---------------------------------------------------------------

    def area(self, tech):
        return self.area_cost + tech.join_ctrl_area(self.n_inputs)

    def timing_arcs(self, tech):
        # datapath through the function; the lazy join's valid, and its
        # stop, which depends on the sibling inputs' valids
        ctrl = tech.join_ctrl_delay
        arcs = []
        for i in self.in_ports:
            arcs.append((i, DATA, "o", DATA, self.delay))
            arcs.append((i, VALID, "o", VALID, ctrl))
            for j in self.in_ports:
                if i != j:
                    arcs.append((i, VALID, j, BWD, ctrl))
            arcs.append(("o", BWD, i, BWD, ctrl))
        return arcs

    def anti_token_paths(self):
        return [(port, out) for port in self.in_ports for out in self.out_ports]


def identity_block(name, delay=0.0, area_cost=0.0):
    """A 1-input pass-through block (useful as a named pipeline stage)."""
    return Func(name, lambda x: x, n_inputs=1, delay=delay, area_cost=area_cost)


def const_block(name, value, delay=0.0, area_cost=0.0):
    """A 1-input block that replaces every token value with ``value``."""
    return Func(name, lambda _x: value, n_inputs=1, delay=delay, area_cost=area_cost)
