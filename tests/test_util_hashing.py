"""Tests for the order-preserving and uniform hash functions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.hashing import (
    DEFAULT_KEY_BITS,
    order_preserving_hash,
    uniform_hash,
)

printable = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=40,
)


class TestOrderPreservingHash:
    def test_width(self):
        assert len(order_preserving_hash("abc")) == DEFAULT_KEY_BITS

    def test_deterministic(self):
        assert (order_preserving_hash("EMBL#Organism")
                == order_preserving_hash("EMBL#Organism"))

    def test_known_order(self):
        # The paper's two predicates: string order must be preserved.
        a = order_preserving_hash("EMBL#Organism")
        b = order_preserving_hash("EMP#SystematicName")
        assert ("EMBL#Organism" <= "EMP#SystematicName") == (a <= b)

    def test_empty_string_is_smallest(self):
        assert order_preserving_hash("") <= order_preserving_hash("a")

    def test_shared_prefix_goes_to_shared_key_region(self):
        # Strings with a long common prefix hash to nearby keys: their
        # key common prefix should be substantial.
        from repro.util.keys import common_prefix_length
        a = order_preserving_hash("SwissProt#Organism")
        b = order_preserving_hash("SwissProt#Organelle")
        c = order_preserving_hash("AAA#zzz")
        assert (common_prefix_length(a, b)
                > common_prefix_length(a, c))

    @given(printable, printable)
    def test_order_preservation(self, a, b):
        ha = order_preserving_hash(a)
        hb = order_preserving_hash(b)
        if a <= b:
            assert ha <= hb
        else:
            assert ha >= hb

    @given(printable)
    def test_width_property(self, s):
        assert len(order_preserving_hash(s)) == DEFAULT_KEY_BITS


class TestUniformHash:
    def test_width(self):
        assert len(uniform_hash("abc")) == DEFAULT_KEY_BITS
        assert len(uniform_hash("abc", bits=8)) == 8

    def test_deterministic_across_calls(self):
        assert uniform_hash("x") == uniform_hash("x")

    def test_distinct_inputs_differ(self):
        # Not guaranteed in general, but these must differ for any
        # sane 48-bit hash.
        assert uniform_hash("schema-a") != uniform_hash("schema-b")

    def test_rejects_non_positive_bits(self):
        with pytest.raises(ValueError):
            uniform_hash("x", bits=-1)

    @given(st.lists(printable, min_size=30, max_size=30, unique=True))
    def test_spreads_over_keyspace(self, values):
        # The top bit should split a batch of distinct values roughly
        # in half — loose bound, just catching catastrophic bias.
        tops = [uniform_hash(v).bit(0) for v in values]
        ones = tops.count("1")
        assert 3 <= ones <= 27
