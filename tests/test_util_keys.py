"""Unit and property tests for the binary key primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.keys import Key, common_prefix_length

bits = st.text(alphabet="01", max_size=64)


class TestKeyBasics:
    def test_empty_key(self):
        k = Key("")
        assert len(k) == 0
        assert k.to_int() == 0
        assert str(k) == "<root>"

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            Key("012")

    def test_from_int_round_trip(self):
        assert Key.from_int(5, 4) == Key("0101")
        assert Key.from_int(5, 4).to_int() == 5

    def test_from_int_rejects_overflow(self):
        with pytest.raises(ValueError):
            Key.from_int(16, 4)

    def test_from_int_rejects_negative(self):
        with pytest.raises(ValueError):
            Key.from_int(-1, 4)

    def test_bit_access(self):
        k = Key("0110")
        assert [k.bit(i) for i in range(4)] == ["0", "1", "1", "0"]

    def test_prefix(self):
        assert Key("0110").prefix(2) == Key("01")

    def test_is_prefix_of(self):
        assert Key("01").is_prefix_of(Key("0110"))
        assert Key("").is_prefix_of(Key("0110"))
        assert not Key("10").is_prefix_of(Key("0110"))
        assert Key("01").is_prefix_of(Key("01"))  # non-strict

    def test_append(self):
        assert Key("01").append("1") == Key("011")

    def test_append_rejects_bad_bit(self):
        with pytest.raises(ValueError):
            Key("01").append("2")

    def test_flip(self):
        assert Key("0110").flip(0) == Key("1110")
        assert Key("0110").flip(3) == Key("0111")

    def test_sibling_prefix(self):
        # level-i sibling: first i bits kept, bit i flipped
        assert Key("0110").sibling_prefix(0) == Key("1")
        assert Key("0110").sibling_prefix(2) == Key("010")

    def test_sibling_prefix_out_of_range(self):
        with pytest.raises(ValueError):
            Key("01").sibling_prefix(2)

    def test_ordering_is_lexicographic(self):
        assert Key("0") < Key("00") < Key("01") < Key("1")

    def test_hashable_and_eq(self):
        assert len({Key("01"), Key("01"), Key("10")}) == 2

    def test_not_equal_to_string(self):
        assert Key("01") != "01"


class TestCommonPrefix:
    def test_identical(self):
        assert common_prefix_length(Key("0110"), Key("0110")) == 4

    def test_divergent_first_bit(self):
        assert common_prefix_length(Key("0110"), Key("1110")) == 0

    def test_partial(self):
        assert common_prefix_length(Key("0011"), Key("0010")) == 3

    def test_different_lengths(self):
        assert common_prefix_length(Key("01"), Key("0110")) == 2


class TestKeyProperties:
    @given(bits)
    def test_round_trip_via_int(self, s):
        k = Key(s)
        if s:  # from_int cannot reproduce leading-zero-free empty keys
            assert Key.from_int(k.to_int(), len(s)) == k

    @given(bits, bits)
    def test_common_prefix_symmetric(self, a, b):
        assert (common_prefix_length(Key(a), Key(b))
                == common_prefix_length(Key(b), Key(a)))

    @given(bits, bits)
    def test_common_prefix_bounded(self, a, b):
        n = common_prefix_length(Key(a), Key(b))
        assert 0 <= n <= min(len(a), len(b))
        assert a[:n] == b[:n]
        if n < min(len(a), len(b)):
            assert a[n] != b[n]

    @given(bits)
    def test_prefix_is_prefix(self, s):
        k = Key(s)
        for i in range(len(s) + 1):
            assert k.prefix(i).is_prefix_of(k)

    @given(st.text(alphabet="01", min_size=1, max_size=32),
           st.data())
    def test_flip_is_involution(self, s, data):
        i = data.draw(st.integers(0, len(s) - 1))
        k = Key(s)
        assert k.flip(i).flip(i) == k

    @given(st.text(alphabet="01", min_size=1, max_size=32), st.data())
    def test_sibling_prefix_diverges_at_level(self, s, data):
        i = data.draw(st.integers(0, len(s) - 1))
        sib = Key(s).sibling_prefix(i)
        assert len(sib) == i + 1
        assert common_prefix_length(Key(s), sib) == i
