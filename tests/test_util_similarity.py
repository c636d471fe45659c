"""Tests for string and set similarity measures."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.similarity import (
    jaccard_similarity,
    jaro_winkler,
    ngram_similarity,
)

words = st.text(
    alphabet=st.characters(min_codepoint=0x30, max_codepoint=0x7A),
    max_size=20,
)
value_sets = st.sets(st.integers(0, 50), max_size=20)


class TestNgramSimilarity:
    def test_identity(self):
        assert ngram_similarity("Organism", "Organism") == 1.0

    def test_empty(self):
        assert ngram_similarity("", "abc") == 0.0

    def test_case_insensitive(self):
        assert ngram_similarity("ORGANISM", "organism") == 1.0

    def test_reordering_scores_above_edit_distance(self):
        # n-grams are robust to token reordering: the two names are six
        # edits apart out of nine characters
        assert ngram_similarity("SeqLength", "LengthSeq") > 1 - 6 / 9

    @given(words, words)
    def test_in_unit_interval(self, a, b):
        assert 0.0 <= ngram_similarity(a, b) <= 1.0

    @given(words, words)
    def test_symmetric(self, a, b):
        assert ngram_similarity(a, b) == pytest.approx(
            ngram_similarity(b, a))


class TestJaroWinkler:
    def test_identity(self):
        assert jaro_winkler("organism", "organism") == 1.0

    def test_empty(self):
        assert jaro_winkler("", "abc") == 0.0

    def test_no_common_chars(self):
        assert jaro_winkler("aaa", "bbb") == 0.0

    def test_prefix_bonus(self):
        # Same edits, but shared prefix scores higher.
        with_prefix = jaro_winkler("Organism", "OrganismName")
        without = jaro_winkler("mismatch", "hctamsim")
        assert with_prefix > without

    def test_known_value(self):
        # MARTHA/MARHTA is the canonical Jaro-Winkler example (0.961).
        assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(
            0.961, abs=0.005)

    @given(words, words)
    def test_in_unit_interval(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0

    @given(words, words)
    def test_symmetric(self, a, b):
        assert jaro_winkler(a, b) == pytest.approx(jaro_winkler(b, a))


class TestSetMeasures:
    def test_jaccard_known(self):
        assert jaccard_similarity({1, 2}, {2, 3}) == pytest.approx(1 / 3)

    def test_jaccard_empty_both(self):
        assert jaccard_similarity(set(), set()) == 1.0

    def test_jaccard_one_empty(self):
        assert jaccard_similarity(set(), {1}) == 0.0

    def test_accepts_lists(self):
        assert jaccard_similarity([1, 2, 2], [2]) == 0.5

    @given(value_sets, value_sets)
    def test_all_in_unit_interval(self, a, b):
        assert 0.0 <= jaccard_similarity(a, b) <= 1.0

    @given(value_sets, value_sets)
    def test_all_symmetric(self, a, b):
        assert jaccard_similarity(a, b) == jaccard_similarity(b, a)

    @given(value_sets)
    def test_identity_is_one(self, a):
        assert jaccard_similarity(a, a) == 1.0
