"""Datapath blocks for the paper's Section 5 examples: adders (ripple and
Kogge-Stone prefix), the carry-window approximate adder with error detector
(function speculation, ref [2]), an 8-bit variable-latency ALU, and the
SECDED Hamming(72,64) encoder/decoder.

Every block exists twice: as a fast functional model (used inside elastic
simulations) and as a :class:`~repro.tech.gates.GateNetlist` (used for
bit-exact cross-checking and for area/delay numbers)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".adders": ("add_functional", "ripple_carry_adder", "kogge_stone_adder"),
    ".approx": ("approx_add_functional", "approx_error_functional",
                "approx_adder_gates", "approx_error_detector_gates"),
    ".alu": ("Alu", "ALU_OPS"),
    ".secded": ("Secded",),
})
