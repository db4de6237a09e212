"""Intentionally broken designs the chaos oracles must catch.

A verifier that never fails verifies nothing.  These mutants give the
harness its negative tests:

* :class:`LatencySensitiveBuffer` — protocol-*legal* but not
  latency-insensitive: the value it latches depends on the arrival
  *cycle*, so the stream-invariance oracle must flag it under any
  stall/bubble plan (the differential harness's "can it detect?" pin).
* :class:`BrokenKillBuffer` — a seeded recovery bug: the buffer refuses
  anti-tokens (``sm`` stuck high), so a speculative kill can never
  complete.  The exhaustive explorer must find the protocol violation /
  deadlock with a counterexample trace.

Both inherit the Figure 5 buffer's lint descriptors (width pair
``i -> o``), except that :class:`BrokenKillBuffer` declares no
anti-token path.
"""

from __future__ import annotations

from repro.elastic.buffers import ZeroBackwardLatencyBuffer


class LatencySensitiveBuffer(ZeroBackwardLatencyBuffer):
    """A ZBL buffer that stamps each stored int token with the cycle it
    arrived on — the canonical latency-*sensitive* black box.  Its control
    behaviour (``comb``, and therefore the codegen tasks it inherits) is
    exactly the legal Figure 5 controller; only the latched *value* breaks
    the theorem's premise."""

    kind = "mutant_ls_eb"

    def __init__(self, name, init=()):
        super().__init__(name, init=init)
        self._cycle = 0

    def reset(self):
        super().reset()
        self._cycle = 0

    def snapshot(self):
        return super().snapshot() + (self._cycle,)

    def restore(self, state):
        super().restore(state[:-1])
        self._cycle = state[-1]

    def tick(self):
        ist = self.st("i")
        ost = self.st("o")
        consumed = self._full and ost.vp and not ost.sp
        stored = ist.vp and not ist.sp and not ist.vm
        if consumed:
            self._full = False
            self._value = None
        if stored:
            value = ist.data
            if isinstance(value, int) and not isinstance(value, bool):
                value = value + self._cycle
            self._full = True
            self._value = value
        self._cycle += 1


class BrokenKillBuffer(ZeroBackwardLatencyBuffer):
    """A ZBL buffer whose anti-token path is broken: ``o.sm`` is stuck
    high, so a kill can never be accepted.  While full this violates the
    Invariant the moment a cancellation arrives (``V+ & V- & S-``); while
    empty the anti-token stalls forever — a recovery deadlock."""

    kind = "mutant_broken_kill"

    def anti_token_paths(self):
        # the bug: no anti-token gets in at the output, so none reaches
        # the input (lint's counterflow network stops here)
        return []

    def comb(self):
        ost = self.st("o")
        if self._full:
            self.drive("o", "vp", True)
            self.drive("o", "data", self._value)
            self.drive("i", "vm", False)
            self.drive("i", "sp", ost.sp)
        else:
            self.drive("o", "vp", False)
            self.drive("i", "vm", ost.vm)
            self.drive("i", "sp", False)
        # The bug: the anti-token is never let in.
        self.drive("o", "sm", True)

    def tick(self):
        ist = self.st("i")
        ost = self.st("o")
        consumed = self._full and ost.vp and not ost.sp and not ost.vm
        stored = ist.vp and not ist.sp and not ist.vm
        if consumed:
            self._full = False
            self._value = None
        if stored:
            self._full = True
            self._value = ist.data


def latency_sensitive_design(n_tokens=24, sink_stall=0.3, seed=7):
    """Source -> LatencySensitiveBuffer -> Sink: passes every protocol
    check, fails the stream-invariance oracle under any stall/bubble."""
    from repro.elastic.environment import ListSource, Sink
    from repro.netlist.graph import Netlist

    net = Netlist("mutant_ls")
    net.add(ListSource("src", values=list(range(n_tokens))))
    net.add(LatencySensitiveBuffer("buf"))
    net.add(Sink("snk", stall_rate=sink_stall, seed=seed))
    net.connect("src.o", "buf.i", name="in")
    net.connect("buf.o", "snk.i", name="out")
    return net


def broken_kill_design():
    """Nondet source/killing sink around a BrokenKillBuffer: the explorer
    must find the unrecoverable kill with a counterexample trace."""
    from repro.elastic.environment import NondetSink, NondetSource
    from repro.netlist.graph import Netlist

    net = Netlist("mutant_broken_kill")
    net.add(NondetSource("src"))
    net.add(BrokenKillBuffer("buf"))
    net.add(NondetSink("snk", can_kill=True))
    net.connect("src.o", "buf.i", name="in")
    net.connect("buf.o", "snk.i", name="out")
    return net
