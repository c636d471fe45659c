"""Tests for GUID minting and the statistics helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.guid import mint_guid
from repro.util.keys import Key
from repro.util.stats import (
    empirical_cdf_at,
    histogram,
    joint_distribution,
    mean,
    percentile,
)


class TestGuid:
    def test_embeds_peer_path(self):
        guid = mint_guid(Key("0110"), "my-schema")
        assert guid.startswith("0110@")

    def test_distinct_peers_distinct_guids(self):
        assert (mint_guid(Key("01"), "x") != mint_guid(Key("10"), "x"))

    def test_distinct_names_distinct_guids(self):
        assert (mint_guid(Key("01"), "a") != mint_guid(Key("01"), "b"))

    def test_deterministic(self):
        assert mint_guid(Key("01"), "a") == mint_guid(Key("01"), "a")

    @given(st.text(alphabet="01", max_size=16), st.text(min_size=1,
                                                        max_size=30))
    def test_round_trip_property(self, bits, name):
        path, separator, local = mint_guid(Key(bits), name).partition("@")
        assert (path, separator, len(local)) == (bits, "@", 8)


class TestStats:
    def test_cdf_known(self):
        assert empirical_cdf_at([0.5, 1.5, 4.0, 9.0], 5.0) == 0.75

    def test_cdf_empty(self):
        assert empirical_cdf_at([], 1.0) == 0.0

    def test_cdf_boundary_inclusive(self):
        assert empirical_cdf_at([1.0], 1.0) == 1.0

    def test_percentile_median(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_percentile_extremes(self):
        xs = [5.0, 1.0, 3.0]
        assert percentile(xs, 0) == 1.0
        assert percentile(xs, 100) == 5.0

    def test_percentile_single(self):
        assert percentile([7.0], 50) == 7.0

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_percentile_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_percentile_or_none_empty(self):
        from repro.util.stats import percentile_or_none
        assert percentile_or_none([], 50) is None

    def test_percentile_or_none_matches_percentile(self):
        from repro.util.stats import percentile_or_none
        xs = [5.0, 1.0, 3.0]
        assert percentile_or_none(xs, 90) == percentile(xs, 90)

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_histogram(self):
        assert histogram([1, 1, 2]) == {1: 2, 2: 1}

    def test_joint_distribution_sums_to_one(self):
        dist = joint_distribution([(0, 1), (0, 1), (1, 0), (2, 2)])
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist[(0, 1)] == pytest.approx(0.5)

    def test_joint_distribution_empty(self):
        assert joint_distribution([]) == {}

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=50),
           st.floats(0, 100))
    def test_percentile_within_range(self, xs, q):
        p = percentile(xs, q)
        # small tolerance: linear interpolation can round a hair past
        # the extremes in floating point
        assert min(xs) - 1e-9 <= p <= max(xs) + 1e-9
