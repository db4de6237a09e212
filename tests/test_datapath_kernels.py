"""The word-level datapath kernels against their bit-serial references
and against the gate level.

``Secded.encode``/``decode``/``decode_raw``/``detect`` fold byte-lane
tables, and the carry-window ``approx_*_functional`` models run a carry
recurrence.  ``tests/helpers.py`` keeps the bit-at-a-time definitions they
replaced; the differential classes pin the kernels to them bit for bit,
including on inputs the elastic designs never produce (bits above the
codeword, syndromes past the last position).  The oracle classes tie the
functional models to the gate-level netlists that give fig6 and fig7
their area and delay figures.
"""

import itertools
import random

import pytest

from helpers import (
    reference_approx_add,
    reference_approx_error,
    reference_decode,
    reference_decode_raw,
    reference_encode,
)
from repro.datapath.adders import adder_inputs
from repro.datapath.alu import ALU_OPS, Alu
from repro.datapath.approx import (
    approx_add_functional,
    approx_adder_gates,
    approx_error_detector_gates,
    approx_error_functional,
)
from repro.datapath import secded
from repro.datapath.secded import CORRECTED, DOUBLE, OK, PARITY_FIXED, Secded

from test_imports import _fresh

#: data widths whose data runs end at a power of two (1, 4, 11, 26, 57,
#: 120) or stop short of one (5: a single bit at position 9; 64: 65..71);
#: all but 64 and 120 end their data in a partial byte lane, and the
#: codewords of 1 and 5 (4 and 10 bits) end in one too.
SECDED_WIDTHS = (1, 4, 5, 11, 26, 57, 64, 120)


def _decoded(code, word):
    result = code.decode(word)
    return result.data, result.status


class TestCarryWindowDifferential:
    @pytest.mark.parametrize("width", range(1, 7))
    def test_exhaustive_small_widths(self, width):
        for window in range(1, width + 3):
            for a, b in itertools.product(range(1 << width), repeat=2):
                assert approx_add_functional(a, b, width, window) == \
                    reference_approx_add(a, b, width, window), (a, b, window)
                assert approx_error_functional(a, b, width, window) == \
                    reference_approx_error(a, b, width, window), (a, b, window)

    @pytest.mark.parametrize("width", [32, 64])
    def test_random_wide_operands(self, width):
        rng = random.Random(width)
        for window in (1, 2, 3, 4, 7, 8, 16, width - 1, width, width + 5):
            for _ in range(150):
                # extra high bits: both models mask the operands first
                a = rng.getrandbits(width + 4)
                b = rng.getrandbits(width + 4)
                assert approx_add_functional(a, b, width, window) == \
                    reference_approx_add(a, b, width, window), (a, b, window)
                assert approx_error_functional(a, b, width, window) == \
                    reference_approx_error(a, b, width, window), (a, b, window)

    def test_long_propagate_runs(self):
        """Random operands rarely carry across a long window; these do."""
        width = 64
        for window in (3, 8, 31, 63):
            for start in range(0, width - 1, 5):
                for length in (window - 1, window, window + 1):
                    run = ((1 << length) - 1) << start
                    a = run | (1 << max(0, start - 1))
                    b = (1 << max(0, start - 1))
                    assert approx_add_functional(a, b, width, window) == \
                        reference_approx_add(a, b, width, window)
                    assert approx_error_functional(a, b, width, window) == \
                        reference_approx_error(a, b, width, window)


class TestSecdedDifferential:
    @pytest.fixture(scope="class", params=SECDED_WIDTHS)
    def code(self, request):
        return Secded(request.param)

    def test_random_words(self, code):
        rng = random.Random(code.data_bits)
        for _ in range(200):
            data = rng.getrandbits(code.data_bits + 5)   # encode masks
            assert code.encode(data) == reference_encode(code, data)
            word = rng.getrandbits(code.code_bits)
            assert _decoded(code, word) == reference_decode(code, word)
            assert code.decode_raw(word) == reference_decode_raw(code, word)

    def test_every_single_and_double_error(self, code):
        rng = random.Random(code.data_bits + 1)
        encoded = code.encode(rng.getrandbits(code.data_bits))
        assert _decoded(code, encoded) == reference_decode(code, encoded)
        for bits in itertools.chain(
                itertools.combinations(range(code.code_bits), 1),
                itertools.combinations(range(code.code_bits), 2)):
            word = code.inject(encoded, *bits)
            assert _decoded(code, word) == reference_decode(code, word), bits
            assert code.decode_raw(word) == reference_decode_raw(code, word)

    def test_bits_above_the_codeword(self, code):
        """``decode`` ignores them; ``decode_raw`` never reads them."""
        rng = random.Random(code.data_bits + 2)
        in_code = (1 << code.code_bits) - 1
        for _ in range(100):
            word = rng.getrandbits(code.code_bits) | \
                (rng.getrandbits(16) | 1) << code.code_bits
            assert _decoded(code, word) == reference_decode(code, word)
            assert _decoded(code, word) == _decoded(code, word & in_code)
            assert code.decode_raw(word) == reference_decode_raw(code, word)

    def test_correct_is_the_decoded_data(self, code):
        """``correct`` is ``decode``'s data without the status, at every
        lane count: the unrolled folds (8 and 9 lanes) and the loop."""
        rng = random.Random(code.data_bits + 4)
        encoded = code.encode(rng.getrandbits(code.data_bits))
        words = [rng.getrandbits(code.code_bits + 4) for _ in range(200)]
        words += [code.inject(encoded, *bits) for bits in itertools.chain(
            [()], itertools.combinations(range(code.code_bits), 1),
            itertools.combinations(range(code.code_bits), 2))]
        for word in words:
            assert code.correct(word) == reference_decode(code, word)[0], \
                hex(word)

    def test_syndromes_past_the_last_position(self):
        """In Hamming(72,64) positions run to 71, but a multi-bit error can
        address 72..127: the correction flips no data bit."""
        code = Secded(64)
        encoded = code.encode(0x0123456789ABCDEF)
        past = [bits for bits in itertools.combinations(
            (1, 2, 4, 8, 16, 32, 64), 3) if sum(bits) > 71]
        assert past
        for positions in past:
            word = code.inject(encoded, *(pos - 1 for pos in positions))
            assert _decoded(code, word) == reference_decode(code, word)
            assert code.decode(word).status == CORRECTED
        for pos_a, pos_b in ((8, 64), (16, 64), (32, 64)):
            word = code.inject(encoded, pos_a - 1, pos_b - 1)
            assert _decoded(code, word) == reference_decode(code, word)
            assert code.decode(word).status == DOUBLE


    def test_detect_is_a_non_ok_status(self, code):
        """``detect`` is the decoder's status test without the decode."""
        rng = random.Random(code.data_bits + 3)
        encoded = code.encode(rng.getrandbits(code.data_bits))
        words = [rng.getrandbits(code.code_bits + 4) for _ in range(200)]
        words += [code.inject(encoded, *bits) for bits in itertools.chain(
            [()], itertools.combinations(range(code.code_bits), 1),
            itertools.combinations(range(code.code_bits), 2))]
        for word in words:
            assert code.detect(word) is (
                reference_decode(code, word)[1] != OK), hex(word)


class TestSecdedTables:
    """The byte-lane tables: one per width, shared by every code of that
    width, built on a code's first use rather than at import or
    construction."""

    def test_codes_of_one_width_share_one_table(self):
        a, b = Secded(64), Secded(64)
        assert a.encode(5) == b.encode(5)
        assert a._lanes is b._lanes
        assert a._lanes is secded._TABLES[64]

    def test_each_width_its_own(self):
        widths = (11, 26, 64)
        lanes = [Secded(width)._lanes for width in widths]
        assert len({id(table) for table in lanes}) == len(widths)
        for width, table in zip(widths, lanes):
            assert secded._TABLES[width] is table
            assert len(table.encode) == -(-width // 8)

    def test_built_on_first_use(self, monkeypatch):
        monkeypatch.setattr(secded, "_TABLES", {})
        code = Secded(64)
        assert secded._TABLES == {}
        word = code.encode(0x0123456789ABCDEF)
        assert list(secded._TABLES) == [64]
        assert word == reference_encode(code, 0x0123456789ABCDEF)

    def test_import_builds_nothing(self):
        probe = ("import json, repro.datapath.secded as s\n"
                 "s.Secded(64)\n"
                 "print(json.dumps(sorted(s._TABLES)))\n")
        assert _fresh(probe) == []


def _gate_inputs(code, word):
    return {f"c{i}": bool((word >> i) & 1) for i in range(code.code_bits)}


class TestSecdedGateOracle:
    """fig7b's ``_detect`` is the functional twin of ``detector_gates()``;
    fig7a's correction is ``decoder_gates()``."""

    @pytest.fixture(scope="class", params=[11, 64])
    def code(self, request):
        return Secded(request.param)

    @pytest.fixture(scope="class")
    def words(self, code):
        rng = random.Random(7)
        words = []
        for _ in range(3):
            encoded = code.encode(rng.getrandbits(code.data_bits))
            words.append(encoded)
            words += [code.inject(encoded, bit)
                      for bit in range(code.code_bits)]
            words += [code.inject(encoded,
                                  *rng.sample(range(code.code_bits), 2))
                      for _ in range(20)]
        return words

    def test_statuses_covered(self, code, words):
        statuses = {code.decode(word).status for word in words}
        assert statuses == {OK, CORRECTED, PARITY_FIXED, DOUBLE}

    def test_detector_flags_every_non_ok_word(self, code, words):
        det = code.detector_gates()
        for word in words:
            err = det.evaluate(_gate_inputs(code, word))["err"]
            assert err == (code.decode(word).status != OK), hex(word)

    def test_detect_matches_detector_gates(self, code, words):
        det = code.detector_gates()
        for word in words:
            err = det.evaluate(_gate_inputs(code, word))["err"]
            assert code.detect(word) is err, hex(word)

    def test_decoder_flags_match_status(self, code, words):
        dec = code.decoder_gates()
        for word in words:
            outputs = dec.evaluate(_gate_inputs(code, word))
            status = code.decode(word).status
            assert outputs["single"] == (status == CORRECTED), hex(word)
            assert outputs["double"] == (status == DOUBLE), hex(word)


class TestCarryWindowGateOracle:
    WIDTH = 6

    @pytest.mark.parametrize("window", range(1, WIDTH + 2))
    def test_gates_match_functional_exhaustively(self, window):
        width = self.WIDTH
        adder = approx_adder_gates(width, window)
        detector = approx_error_detector_gates(width, window)
        for a, b in itertools.product(range(1 << width), repeat=2):
            inputs = adder_inputs(a, b, width)
            outputs = adder.evaluate(inputs)
            value = sum(1 << i for i in range(width) if outputs[f"s{i}"])
            assert value == approx_add_functional(a, b, width, window)
            err = detector.evaluate(inputs)["err"]
            assert int(err) == approx_error_functional(a, b, width, window)


class TestAluFlag:
    """``Alu.mispredicts`` computes only the replay flag; it is the flag
    ``approx`` reports, for every op and 8-bit operand pair."""

    @pytest.mark.parametrize("window", range(1, 5))
    def test_exhaustive_width_8(self, window):
        alu = Alu(width=8, window=window)
        for op in ALU_OPS.values():
            for a, b in itertools.product(range(256), repeat=2):
                assert alu.mispredicts(op, a, b) is \
                    bool(alu.approx(op, a, b).err), (op, a, b)

    def test_bad_op(self):
        with pytest.raises(ValueError, match="bad ALU op"):
            Alu().mispredicts(7, 1, 2)


class TestAluValues:
    """``exact_value``/``approx_value`` return the ``.value`` of
    ``exact``/``approx`` for every op, window and 8-bit operand pair: the
    exact result, the carry-window sum, and for a subtract the carry-window
    sum of ``a + ~b`` (no carry-in; see :class:`TestApproxSubtract`)."""

    @pytest.mark.parametrize("window", range(1, 5))
    def test_exhaustive_width_8(self, window):
        alu = Alu(width=8, window=window)
        exact = {ALU_OPS["add"]: lambda a, b: (a + b) & 0xFF,
                 ALU_OPS["sub"]: lambda a, b: (a - b) & 0xFF,
                 ALU_OPS["and"]: lambda a, b: a & b,
                 ALU_OPS["or"]: lambda a, b: a | b,
                 ALU_OPS["xor"]: lambda a, b: a ^ b}
        approx = {**exact,
                  ALU_OPS["add"]: lambda a, b: reference_approx_add(
                      a, b, 8, window),
                  ALU_OPS["sub"]: lambda a, b: reference_approx_add(
                      a, ~b & 0xFF, 8, window)}
        for op in ALU_OPS.values():
            for a, b in itertools.product(range(256), repeat=2):
                value = alu.exact_value(op, a, b)
                assert value == exact[op](a, b) == \
                    alu.exact(op, a, b).value, (op, a, b)
                value = alu.approx_value(op, a, b)
                assert value == approx[op](a, b) == \
                    alu.approx(op, a, b).value, (op, a, b)

    def test_operands_are_masked(self):
        alu = Alu(width=8, window=3)
        for op in ALU_OPS.values():
            assert alu.exact_value(op, 0x1F0, -3) == \
                alu.exact_value(op, 0xF0, 0xFD)
            assert alu.approx_value(op, 0x1F0, -3) == \
                alu.approx_value(op, 0xF0, 0xFD)

    @pytest.mark.parametrize("method", ["exact_value", "approx_value",
                                        "exact", "approx"])
    def test_bad_op(self, method):
        with pytest.raises(ValueError, match="bad ALU op"):
            getattr(Alu(), method)(7, 1, 2)


class TestApproxSubtract:
    """The approximate subtract should be the carry-window sum of ``a +
    ~b`` with the two's-complement carry-in, as the add is of ``a + b``:
    then its value is right and its flag quiet on most operand pairs, as
    the add's (58% quiet at width 8, window 3).  ``Alu`` drops the
    carry-in, so every subtract mispredicts and replays; fixing it changes
    fig6's throughputs and the sweep digests the benchmark records."""

    @pytest.mark.xfail(strict=True, reason="Alu's approximate subtract has "
                       "no carry-in: wrong on every operand pair")
    def test_value_and_flag_as_good_as_the_add(self):
        alu = Alu(width=8, window=3)
        pairs = list(itertools.product(range(256), repeat=2))
        for op in (ALU_OPS["add"], ALU_OPS["sub"]):
            exact = sum(alu.approx_value(op, a, b) == alu.exact_value(op, a, b)
                        for a, b in pairs)
            quiet = sum(not alu.mispredicts(op, a, b) for a, b in pairs)
            assert exact > len(pairs) // 2, op
            assert quiet > len(pairs) // 2, op


class TestWindowValidation:
    """A zero-bit window drops every carry, even one generated without
    any propagate run (``1 + 1``), which a detector of propagate runs
    never sees: rejected."""

    @pytest.mark.parametrize("window", [0, -1])
    def test_every_entry_point_rejects(self, window):
        with pytest.raises(ValueError, match="window must be >= 1"):
            Alu(width=8, window=window)
        for fn in (approx_add_functional, approx_error_functional):
            with pytest.raises(ValueError, match="window must be >= 1"):
                fn(1, 1, 8, window)
        for builder in (approx_adder_gates, approx_error_detector_gates):
            with pytest.raises(ValueError, match="window must be >= 1"):
                builder(8, window)

    def test_one_bit_window_never_misses(self):
        alu = Alu(width=8, window=1)
        assert alu.approx(ALU_OPS["add"], 1, 1) == alu.exact(ALU_OPS["add"], 1, 1)
        for a, b in itertools.product(range(256), repeat=2):
            result = alu.approx(ALU_OPS["add"], a, b)
            if result.value != (a + b) & 0xFF:
                assert result.err == 1
