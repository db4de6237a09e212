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

from repro.elastic.node import BWD, DATA, VALID, Node
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

    def reset(self):
        self._pk = [0] * self.n_inputs   # pending kills per input

    def snapshot(self):
        return tuple(self._pk)

    def restore(self, state):
        self._pk = list(state)

    # -- combinational ---------------------------------------------------------

    def _in(self, i):
        return self.st(f"i{i}")

    def comb_tasks(self):
        # Lazy join: fires on the input valids (and their data) and the
        # downstream stop; it never reads i.sm or o.vm combinationally.
        ins = [f"i{i}" for i in range(self.n_inputs)]
        valids = [(port, "vp") for port in ins]
        return [
            (valids + [(port, "data") for port in ins],
             [("o", "vp"), ("o", "data")]),
            (valids + [("o", "sp")],
             [(port, sig) for port in ins for sig in ("vm", "sp")]),
            (valids, [("o", "sm")]),
        ]

    def comb(self):
        ost = self.st("o")
        # A waiting token on input i only participates when no kill targets it.
        avails = []
        for i in range(self.n_inputs):
            ist = self._in(i)
            avails.append(kand(ist.vp, self._pk[i] == 0))
        all_avail = kand(*avails)
        self.drive("o", "vp", all_avail)
        # fire covers both forward transfer and output-side cancellation
        # (vp & vm with sp forced low): inputs are consumed either way.
        fire = kand(all_avail, knot(ost.sp))
        for i in range(self.n_inputs):
            port = f"i{i}"
            pending = self._pk[i] > 0
            self.drive(port, "vm", pending)
            if pending:
                # Kill and stop are mutually exclusive on a channel.
                self.drive(port, "sp", False)
            else:
                self.drive(port, "sp", knot(fire))
        # Accept an anti-token at the output: cancel with the offered token
        # when valid, otherwise absorb it into the kill counters if there is
        # room on every input.
        room = all(pk < self.max_kills for pk in self._pk)
        self.drive("o", "sm", kite(all_avail, False, not room))
        # Data: fn runs once per cycle — a re-evaluation after o.data is
        # known could only re-drive the same value.
        if all_avail is True and ost.data is None:
            args = [self._in(i).data for i in range(self.n_inputs)]
            if all(a is not None for a in args):
                self.drive("o", "data", self.fn(*args))

    # -- sequential --------------------------------------------------------------

    def tick(self):
        ost = self.st("o")
        absorbed = ost.vm and not ost.sm and not ost.vp
        for i in range(self.n_inputs):
            ist = self._in(i)
            delivered = ist.vm and (ist.vp or not ist.sm)
            if delivered:
                self._pk[i] -= 1
            if absorbed:
                self._pk[i] += 1
            if self._pk[i] < 0 or self._pk[i] > self.max_kills:
                raise AssertionError(f"Func {self.name}: kill counter out of range")

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
