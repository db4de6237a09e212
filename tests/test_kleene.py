"""Unit tests for the three-valued logic helpers."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kleene import as_bool, kand, keq, kite, knot, known, kor

TRI = st.sampled_from([True, False, None])


class TestKand:
    def test_all_true(self):
        assert kand(True, True, True) is True

    def test_false_dominates_unknown(self):
        assert kand(None, False) is False
        assert kand(False, None) is False

    def test_unknown_without_false(self):
        assert kand(True, None) is None

    def test_empty_is_true(self):
        assert kand() is True


class TestKor:
    def test_any_true(self):
        assert kor(False, True) is True

    def test_true_dominates_unknown(self):
        assert kor(None, True) is True

    def test_unknown_without_true(self):
        assert kor(False, None) is None

    def test_empty_is_false(self):
        assert kor() is False


class TestKnot:
    def test_values(self):
        assert knot(True) is False
        assert knot(False) is True
        assert knot(None) is None


class TestKite:
    def test_resolved_condition(self):
        assert kite(True, 1, 2) == 1
        assert kite(False, 1, 2) == 2

    def test_unknown_condition_agreeing_branches(self):
        assert kite(None, 5, 5) == 5

    def test_unknown_condition_disagreeing_branches(self):
        assert kite(None, 1, 2) is None

    def test_unknown_condition_unknown_branches(self):
        assert kite(None, None, None) is None


class TestKeq:
    def test_known(self):
        assert keq(3, 3) is True
        assert keq(3, 4) is False

    def test_unknown(self):
        assert keq(None, 3) is None
        assert keq(3, None) is None


class TestKnownAsBool:
    def test_known(self):
        assert known(1, True, "x")
        assert not known(1, None)

    def test_as_bool(self):
        assert as_bool(True) is True
        assert as_bool(False) is False
        with pytest.raises(ValueError):
            as_bool(None, "sig")


class TestBinaryTruthTables:
    """Exhaustive 3x3 truth tables for the 2-argument fast paths — pinned
    so the early-exit special cases can never drift from strong Kleene."""

    KAND_TABLE = {
        (True, True): True, (True, False): False, (True, None): None,
        (False, True): False, (False, False): False, (False, None): False,
        (None, True): None, (None, False): False, (None, None): None,
    }

    KOR_TABLE = {
        (True, True): True, (True, False): True, (True, None): True,
        (False, True): True, (False, False): False, (False, None): None,
        (None, True): True, (None, False): None, (None, None): None,
    }

    @pytest.mark.parametrize("a", [True, False, None])
    @pytest.mark.parametrize("b", [True, False, None])
    def test_kand_two_args(self, a, b):
        assert kand(a, b) is self.KAND_TABLE[(a, b)]

    @pytest.mark.parametrize("a", [True, False, None])
    @pytest.mark.parametrize("b", [True, False, None])
    def test_kor_two_args(self, a, b):
        assert kor(a, b) is self.KOR_TABLE[(a, b)]

    @given(a=TRI, b=TRI)
    def test_two_arg_matches_general_path(self, a, b):
        """The fast path must agree with the n-ary fold it bypasses."""
        assert kand(a, b) is kand(a, b, True)
        assert kor(a, b) is kor(a, b, False)


class TestMonotonicity:
    """Refining an unknown input must never flip a resolved output —
    the property the fix-point simulator relies on."""

    @given(xs=st.lists(TRI, min_size=1, max_size=4), idx=st.integers(0, 3),
           value=st.booleans())
    def test_kand_monotone(self, xs, idx, value):
        idx = idx % len(xs)
        before = kand(*xs)
        if xs[idx] is None:
            refined = list(xs)
            refined[idx] = value
            after = kand(*refined)
            assert before is None or after == before

    @given(xs=st.lists(TRI, min_size=1, max_size=4), idx=st.integers(0, 3),
           value=st.booleans())
    def test_kor_monotone(self, xs, idx, value):
        idx = idx % len(xs)
        before = kor(*xs)
        if xs[idx] is None:
            refined = list(xs)
            refined[idx] = value
            after = kor(*refined)
            assert before is None or after == before

    @given(cond=TRI, t=TRI, f=TRI, value=st.booleans())
    def test_kite_monotone_in_condition(self, cond, t, f, value):
        before = kite(cond, t, f)
        if cond is None:
            after = kite(value, t, f)
            assert before is None or after == before


def _reference(xs, dominant):
    """Strong Kleene AND (``dominant=False``) or OR (``dominant=True``)
    over ``xs`` by identity: the dominant value wins, else an unknown
    operand makes the result unknown, else the identity."""
    result = not dominant
    for x in xs:
        if x is dominant:
            return dominant
        if x is None:
            result = None
    return result


class TestArities:
    """``kand``/``kor`` take two positional operands with the identity as
    default plus any more: every arity agrees with the reference fold."""

    @pytest.mark.parametrize("n", range(5))
    def test_exhaustive(self, n):
        for xs in itertools.product((True, False, None), repeat=n):
            assert kand(*xs) is _reference(xs, False), xs
            assert kor(*xs) is _reference(xs, True), xs

    @pytest.mark.parametrize("n", range(1, 5))
    def test_non_bool_operands_keep_identity_semantics(self, n):
        """Only ``False`` itself is false to ``kand`` and only ``True``
        itself is true to ``kor``: ``0``, ``1`` and ``""`` are neither."""
        for xs in itertools.product((0, 1, "", True, False, None), repeat=n):
            assert kand(*xs) is _reference(xs, False), xs
            assert kor(*xs) is _reference(xs, True), xs

    def test_examples(self):
        assert kand(0) is True
        assert kand("", 0) is True
        assert kand(1, None) is None
        assert kor(1) is False
        assert kor(1, None) is None
        assert kor(0, "", 1) is False
