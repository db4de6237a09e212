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

The functional model works on whole words through byte lanes.  The
code is linear over GF(2): the codeword of ``a ^ b`` is the XOR of the
codewords of ``a`` and ``b``, and so are the raw data bits, the syndrome
and the overall parity of a received word.  So each is the XOR of one
table entry per byte lane, built once per ``data_bits`` from the
single-bit codewords (:data:`_TABLES`, on a code's first use):

* an *encode* lane maps a data byte to the codeword of that byte alone;
* a *decode* lane maps a codeword byte to its raw data bits, syndrome and
  overall parity, packed into one int (``raw | syndrome << data_bits |
  parity << data_bits + check_bits``);
* the *fix* table, indexed by syndrome and parity (the packed int above
  ``data_bits``), gives the status and the data bit to flip: correction is
  one lookup.  A syndrome that addresses a check bit, or a position past
  the body, flips no data bit.

A fold is one expression: the 8 encode and 9 decode lanes of the paper's
Hamming(72,64) each have a fold that unpacks the tables and the word's
bytes into locals and XORs the entries, with a loop over the lanes for
other lane counts (:func:`_folder`).  The compiled cycle of Figure 7
calls only paths that build no result object: :meth:`Secded.correct`
(the corrected data alone, the ``correct`` block), ``decode_raw`` and
``detect``; :meth:`Secded.decode` adds the status in a
:class:`DecodeResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


#: byte-lane tables by ``data_bits`` (module docstring): built on the
#: first use of a code of that width, then shared by every such code
_TABLES = {}


class _Lanes(NamedTuple):
    """One width's tables and their folds (:func:`_folder`), the data
    flips of the fix table by index, and the masks that fit a word to its
    lanes."""

    encode: tuple
    decode: tuple
    fix: tuple
    flip: tuple
    data_mask: int
    code_mask: int
    fold_encode: object
    fold_decode: object


def _folder(lanes):
    """``fold(word)``: the XOR of each byte lane's entry for its byte of
    ``word``, the image of ``word`` under the linear map ``lanes``
    tabulate (``word`` fits the lanes)."""
    n = len(lanes)
    if n == 9:
        t0, t1, t2, t3, t4, t5, t6, t7, t8 = lanes

        def fold(word):
            b0, b1, b2, b3, b4, b5, b6, b7, b8 = word.to_bytes(9, "little")
            return (t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5]
                    ^ t6[b6] ^ t7[b7] ^ t8[b8])
    elif n == 8:
        t0, t1, t2, t3, t4, t5, t6, t7 = lanes

        def fold(word):
            b0, b1, b2, b3, b4, b5, b6, b7 = word.to_bytes(8, "little")
            return (t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5]
                    ^ t6[b6] ^ t7[b7])
    else:
        def fold(word):
            acc = 0
            for table, byte in zip(lanes, word.to_bytes(n, "little")):
                acc ^= table[byte]
            return acc
    return fold


def _byte_lanes(columns):
    """The byte lanes of the linear map taking bit ``i`` to
    ``columns[i]``: entry ``v`` of lane ``k`` is the XOR of the columns of
    the bits set in ``v << 8 * k``."""
    lanes = []
    for base in range(0, len(columns), 8):
        cols = columns[base:base + 8]
        table = [0] * (1 << len(cols))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] ^ cols[low.bit_length() - 1]
        lanes.append(tuple(table))
    return tuple(lanes)


def _build_lanes(code):
    data_bits, check_bits = code.data_bits, code.check_bits
    data_index = {pos: idx for idx, pos in enumerate(code._data_positions)}
    # The single-bit codewords: a data bit at position ``pos`` sets the
    # check bits of ``pos``'s set bits, then the overall parity if odd.
    encode = []
    for pos in code._data_positions:
        word = 1 << (pos - 1)
        for check_pos in code._check_positions:
            if pos & check_pos:
                word |= 1 << (check_pos - 1)
        encode.append(word | (word.bit_count() & 1) << (code.code_bits - 1))
    # What one received bit adds to the packed raw data | syndrome |
    # parity: its data bit, if any; its position (the syndrome is the XOR
    # of the positions of the set body bits); and one to the parity.
    parity = 1 << (data_bits + check_bits)
    decode = [(1 << data_index[pos] if pos in data_index else 0)
              | pos << data_bits | parity for pos in code._positions]
    decode.append(parity)                          # the overall parity bit
    fix = []
    for key in range(1 << (check_bits + 1)):
        syndrome, odd = key & ((1 << check_bits) - 1), key >> check_bits
        if syndrome == 0:
            fix.append((0, PARITY_FIXED if odd else OK))
        elif odd:
            # a single error at position ``syndrome``: flip it if a data bit
            flip = data_index.get(syndrome)
            fix.append((0 if flip is None else 1 << flip, CORRECTED))
        else:
            fix.append((0, DOUBLE))
    encode, decode = _byte_lanes(encode), _byte_lanes(decode)
    return _Lanes(encode, decode, tuple(fix),
                  tuple(flip for flip, _status in fix),
                  (1 << data_bits) - 1, (1 << code.code_bits) - 1,
                  _folder(encode), _folder(decode))


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

    @staticmethod
    def _needed_check_bits(data_bits):
        r = 0
        while (1 << r) < data_bits + r + 1:
            r += 1
        return r

    @cached_property
    def _lanes(self):
        """This width's tables (:data:`_TABLES`), built on first use."""
        lanes = _TABLES.get(self.data_bits)
        if lanes is None:
            lanes = _TABLES[self.data_bits] = _build_lanes(self)
        return lanes

    # -- functional ----------------------------------------------------------------

    def encode(self, data):
        """64-bit data -> 72-bit codeword (low bits = positions 1..71,
        top bit = overall parity): the XOR of the data bytes' codewords."""
        lanes = self._lanes
        return lanes.fold_encode(data & lanes.data_mask)

    def decode(self, code):
        """72-bit codeword -> :class:`DecodeResult` (corrected data + status).

        One fold gives the raw data, syndrome and overall parity; the fix
        table gives the status and the data bit to flip.  Bits above the
        codeword are ignored."""
        lanes = self._lanes
        packed = lanes.fold_decode(code & lanes.code_mask)
        flip, status = lanes.fix[packed >> self.data_bits]
        return DecodeResult((packed & lanes.data_mask) ^ flip, status)

    def correct(self, code):
        """The corrected data of :meth:`decode`, without its status: the
        ``correct`` block of Figure 7 (a double error passes its raw data
        through, as ``decode`` does)."""
        lanes = self._lanes
        packed = lanes.fold_decode(code & lanes.code_mask)
        return (packed & lanes.data_mask) ^ lanes.flip[packed >> self.data_bits]

    def decode_raw(self, code):
        """Extract the data bits *without* correction (just drop the check
        bits) — the zero-delay path the speculative design of Figure 7(b)
        feeds straight into the adder."""
        lanes = self._lanes
        return lanes.fold_decode(code & lanes.code_mask) & lanes.data_mask

    def detect(self, code):
        """True when the syndrome or the overall parity is nonzero, that is
        when :meth:`decode`'s status is not ``OK``: the functional twin of
        :meth:`detector_gates`'s ``err``, the short path Figure 7(b) puts
        on the select channel."""
        lanes = self._lanes
        return lanes.fold_decode(code & lanes.code_mask) >> self.data_bits != 0

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
