"""The 8-bit variable-latency ALU of Section 5.1.

"We have implemented a variable latency ALU using a simple pipeline with an
8-bit datapath."  The ALU supports add / sub / and / or / xor; the exact
adder is a ripple chain (the long path), the approximate one is a
carry-window adder, and ``F_err`` flags potential approximation errors on
arithmetic ops (logic ops are always exact).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datapath.adders import add_functional, ripple_carry_adder
from repro.datapath.approx import (
    approx_add_functional,
    approx_adder_gates,
    approx_error_detector_gates,
    approx_error_functional,
    check_window,
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

    # -- functional --------------------------------------------------------------

    def exact(self, op, a, b):
        """Exact result (the F_exact block)."""
        a &= self._mask
        b &= self._mask
        if op == _ADD:
            value, _carry = add_functional(a, b, self.width)
        elif op == _SUB:
            value, _carry = add_functional(a, (~b) & self._mask, self.width, cin=1)
        elif op == _AND:
            value = a & b
        elif op == _OR:
            value = a | b
        elif op == _XOR:
            value = a ^ b
        else:
            raise ValueError(f"bad ALU op {op!r}")
        return AluResult(value, 0)

    def approx(self, op, a, b):
        """Approximate result plus the F_err flag (the F_approx block)."""
        a &= self._mask
        b &= self._mask
        if op == _ADD:
            value = approx_add_functional(a, b, self.width, self.window)
            err = approx_error_functional(a, b, self.width, self.window)
        elif op == _SUB:
            value, err = self._approx_sub(a, b)
        else:
            return self.exact(op, a, b)
        return AluResult(value, err)

    def _approx_sub(self, a, b):
        """``(value, err)`` of the approximate ``a - b`` (masked operands)."""
        nb = (~b) & self._mask
        # carry-in 1 for two's complement: fold it into bit 0 exactly;
        # approximate the rest of the chain
        value = approx_add_functional(a, nb, self.width, self.window)
        err = 1 if value != (a - b) & self._mask else \
            approx_error_functional(a, nb, self.width, self.window)
        return value, err

    def mispredicts(self, op, a, b):
        """True when the speculative design must replay this operation:
        ``approx(op, a, b).err``, computed without building a result.  The
        add flag is the carry-window detector alone; logic ops never
        replay."""
        a &= self._mask
        b &= self._mask
        if op == _ADD:
            return approx_error_functional(a, b, self.width, self.window) == 1
        if op == _SUB:
            return self._approx_sub(a, b)[1] == 1
        if op in _LOGIC:
            return False
        raise ValueError(f"bad ALU op {op!r}")

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
