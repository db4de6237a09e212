"""SECDED: single-error-correcting, double-error-detecting Hamming code.

Section 5.2: "For each 64 bits of data, 8 extra bits allow to detect and
correct any single bit error.  Besides, double bit errors are detected as
well" (refs [16, 17]).

Implementation: extended Hamming(72,64).  Seven check bits sit at codeword
positions 1, 2, 4, 8, 16, 32, 64 (1-based), each covering the positions
whose index has the corresponding bit set; an eighth bit holds the overall
parity.  Decoding computes the syndrome and overall parity:

* syndrome 0, parity even            -> no error;
* syndrome != 0, parity odd          -> single error at position ``syndrome``
  (flip it — works for data *and* check bit errors);
* syndrome != 0, parity even         -> double error (uncorrectable);
* syndrome 0, parity odd             -> the overall parity bit itself flipped.

Both the functional model (used in elastic simulations) and gate-level
encoder/decoder netlists (XOR trees, used for area/delay and bit-exact
cross-checks) are provided.

The functional model works on whole words.  Two tables, built once per
code, replace the per-bit loops:

* one *cover mask* per check bit: the codeword bits whose 1-based
  position has that check bit's index bit set.  A check bit (or a
  syndrome bit) is the parity of ``code & cover``, one popcount;
* the *data runs*: the data positions form contiguous runs between the
  check positions (3, 5-7, 9-15, 17-31, ...), each stored as
  ``(data shift, run mask, codeword shift)``, so spreading the data into
  a codeword and gathering it back out is one shift-and-mask per run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tech.gates import GateNetlist

OK = "ok"
CORRECTED = "corrected"
PARITY_FIXED = "parity_fixed"
DOUBLE = "double_error"


@dataclass(frozen=True)
class DecodeResult:
    data: int
    status: str

    @property
    def uncorrectable(self):
        return self.status == DOUBLE


class Secded:
    """Extended Hamming encoder/decoder for ``data_bits`` payload bits."""

    def __init__(self, data_bits=64):
        self.data_bits = data_bits
        self.check_bits = self._needed_check_bits(data_bits)
        self.code_bits = data_bits + self.check_bits + 1   # + overall parity
        # 1-based codeword positions: powers of two host check bits.
        self._positions = list(range(1, data_bits + self.check_bits + 1))
        self._data_positions = [p for p in self._positions if p & (p - 1)]
        self._check_positions = [1 << i for i in range(self.check_bits)]
        # Word-level tables of the functional model (module docstring).
        self._covers = [
            sum(1 << (pos - 1) for pos in self._positions if pos & check_pos)
            for check_pos in self._check_positions
        ]
        self._runs = []
        idx = 0
        for check_pos in self._check_positions[1:]:
            first = check_pos + 1
            last = min(2 * check_pos - 1, self._positions[-1])
            if first > last:
                break
            length = last - first + 1
            self._runs.append((idx, (1 << length) - 1, first - 1))
            idx += length
        self._body_mask = (1 << (self.code_bits - 1)) - 1

    @staticmethod
    def _needed_check_bits(data_bits):
        r = 0
        while (1 << r) < data_bits + r + 1:
            r += 1
        return r

    # -- functional ----------------------------------------------------------------

    def encode(self, data):
        """64-bit data -> 72-bit codeword (low bits = positions 1..71,
        top bit = overall parity).

        The data runs spread the payload into the body; each check bit is
        then the parity of the body under its cover mask (the check
        positions are still 0, and no cover includes another check
        position, so the order does not matter)."""
        data &= (1 << self.data_bits) - 1
        code = 0
        for data_shift, run_mask, code_shift in self._runs:
            code |= ((data >> data_shift) & run_mask) << code_shift
        for check_pos, cover in zip(self._check_positions, self._covers):
            if (code & cover).bit_count() & 1:
                code |= 1 << (check_pos - 1)
        overall = code.bit_count() & 1
        code |= overall << (self.code_bits - 1)
        return code

    def decode(self, code):
        """72-bit codeword -> :class:`DecodeResult` (corrected data + status).

        Syndrome bit ``i`` is the parity of the body under cover mask ``i``.
        Bits above the codeword are ignored; a syndrome that addresses a
        position past the body flips a bit the data runs never read."""
        body = code & self._body_mask
        overall_bit = (code >> (self.code_bits - 1)) & 1
        syndrome = 0
        for check_pos, cover in zip(self._check_positions, self._covers):
            if (body & cover).bit_count() & 1:
                syndrome |= check_pos
        parity_all = (body.bit_count() + overall_bit) & 1
        if syndrome == 0 and parity_all == 0:
            status = OK
        elif syndrome != 0 and parity_all == 1:
            body ^= 1 << (syndrome - 1)       # correct the flipped position
            status = CORRECTED
        elif syndrome == 0 and parity_all == 1:
            status = PARITY_FIXED             # the parity bit itself flipped
        else:
            status = DOUBLE
        return DecodeResult(self.decode_raw(body), status)

    def decode_raw(self, code):
        """Extract the data bits *without* correction (just drop the check
        bits) — the zero-delay path the speculative design of Figure 7(b)
        feeds straight into the adder.  One shift-and-mask per data run."""
        data = 0
        for data_shift, run_mask, code_shift in self._runs:
            data |= ((code >> code_shift) & run_mask) << data_shift
        return data

    def inject(self, code, *bit_positions):
        """Flip the given codeword bit indices (0-based) — fault injection."""
        for bit in bit_positions:
            if not 0 <= bit < self.code_bits:
                raise ValueError(f"bit {bit} outside codeword")
            code ^= 1 << bit
        return code

    # -- gate level -------------------------------------------------------------------

    def encoder_gates(self):
        """XOR-tree encoder netlist: inputs d0..d63, outputs c0..c71."""
        net = GateNetlist(f"secded_enc{self.data_bits}")
        d = net.add_inputs("d", self.data_bits)
        word = {}
        for idx, pos in enumerate(self._data_positions):
            word[pos] = d[idx]
        for check_pos in self._check_positions:
            nets = [word[pos] for pos in self._data_positions if pos & check_pos]
            word[check_pos] = net.xor_tree(nets)
        body = [word[pos] for pos in self._positions]
        overall = net.xor_tree(body)
        for i, src in enumerate(body):
            net.add_gate("buf", (src,), f"c{i}")
            net.mark_output(f"c{i}")
        net.add_gate("buf", (overall,), f"c{self.code_bits - 1}")
        net.mark_output(f"c{self.code_bits - 1}")
        return net

    def decoder_gates(self):
        """Syndrome + correction netlist: inputs c0..c71, outputs d0..d63,
        plus ``single`` (corrected) and ``double`` (uncorrectable) flags."""
        net = GateNetlist(f"secded_dec{self.data_bits}")
        c = net.add_inputs("c", self.code_bits)
        syndrome = []
        for check_pos in self._check_positions:
            nets = [c[pos - 1] for pos in self._positions if pos & check_pos]
            syndrome.append(net.xor_tree(nets))
        parity_all = net.xor_tree(c)
        nonzero = net.or_tree(syndrome)
        single = net.and2(nonzero, parity_all, out="single")
        net.mark_output("single")
        notp = net.inv(parity_all)
        net.add_gate("and2", (nonzero, notp), "double")
        net.mark_output("double")
        # Correction: flip data position when the syndrome addresses it.
        for idx, pos in enumerate(self._data_positions):
            match_terms = []
            for bit in range(self.check_bits):
                s = syndrome[bit]
                match_terms.append(s if (pos >> bit) & 1 else net.inv(s))
            addressed = net.and_tree(match_terms)
            flip = net.and2(addressed, single)
            net.add_gate("xor2", (c[pos - 1], flip), f"d{idx}")
            net.mark_output(f"d{idx}")
        return net

    def detector_gates(self):
        """Error-detector-only netlist (syndrome + nonzero flag) — the
        short path the speculative design of Figure 7(b) puts on the select
        channel instead of the full correction."""
        net = GateNetlist(f"secded_det{self.data_bits}")
        c = net.add_inputs("c", self.code_bits)
        syndrome = []
        for check_pos in self._check_positions:
            nets = [c[pos - 1] for pos in self._positions if pos & check_pos]
            syndrome.append(net.xor_tree(nets))
        parity_all = net.xor_tree(c)
        nonzero = net.or_tree(syndrome)
        net.add_gate("or2", (nonzero, parity_all), "err")
        net.mark_output("err")
        return net

    def stats(self, tech):
        return {
            "encoder": self.encoder_gates().stats(tech),
            "decoder": self.decoder_gates().stats(tech),
            "detector": self.detector_gates().stats(tech),
        }
