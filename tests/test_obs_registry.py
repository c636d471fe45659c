"""Unit tests: CounterGroup, FailoverCounters, MetricsRegistry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.registry import (
    CounterGroup,
    FailoverCounters,
    MetricsRegistry,
)
from repro.pgrid.peer import PGridPeer
from repro.util.keys import Key
from strategies import STANDARD_SETTINGS, SampleBag, stat_bags


class Sample(CounterGroup):
    _fields = ("alpha", "beta")
    __slots__ = _fields


class TestCounterGroup:
    def test_starts_at_zero(self):
        group = Sample()
        assert group.alpha == 0 and group.beta == 0

    def test_items_follow_declaration_order(self):
        group = Sample()
        group.alpha += 2
        assert group.items() == [("alpha", 2), ("beta", 0)]

    def test_undeclared_counter_is_rejected(self):
        with pytest.raises(AttributeError):
            Sample().gamma = 1

    def test_equality_between_groups(self):
        group, other = Sample(), Sample()
        group.alpha = 1
        assert group != other
        other.alpha = 1
        assert group == other
        assert group != {"alpha": 1, "beta": 0}

    def test_snapshot_is_a_copy(self):
        group = Sample()
        snap = group.snapshot()
        group.alpha = 9
        assert snap == {"alpha": 0, "beta": 0}

    def test_reset(self):
        group = Sample()
        group.alpha = 4
        group.reset()
        assert group.snapshot() == {"alpha": 0, "beta": 0}


class TestDeclarations:
    """``_keyed`` / ``_derived`` / ``_unreported`` and ``add``."""

    def bag(self, sent=0, dropped=0, latency=0, **by_kind):
        bag = SampleBag()
        bag.sent, bag.dropped, bag.latency = sent, dropped, latency
        bag.by_kind.update(by_kind)
        return bag

    def test_snapshot_reports_keyed_and_derived_not_unreported(self):
        assert self.bag(sent=5, dropped=2, latency=7, route=3).snapshot() == {
            "sent": 5, "dropped": 2, "by_kind": {"route": 3},
            "by_reason": {}, "delivered": 3}

    def test_keyed_snapshot_is_a_copy(self):
        bag = self.bag(route=1)
        snap = bag.snapshot()
        bag.by_kind["route"] += 1
        assert snap["by_kind"] == {"route": 1}

    def test_add_sums_counters_and_per_key_counts(self):
        total = self.bag(sent=1, latency=2, route=1, reply=4)
        total.add(self.bag(sent=2, dropped=1, latency=3, route=2, probe=1))
        assert (total.sent, total.dropped, total.latency) == (3, 1, 5)
        assert total.by_kind == {"route": 3, "reply": 4, "probe": 1}
        assert total.delivered == 2

    def test_add_takes_a_narrower_bag(self):
        class Narrow(CounterGroup):
            _fields = ("sent",)
            _keyed = ("by_kind",)
            __slots__ = _fields + _keyed

        narrow = Narrow()
        narrow.sent = 2
        narrow.by_kind["route"] = 2
        wide = self.bag(sent=1, dropped=1)
        wide.add(narrow)
        assert (wide.sent, wide.dropped, wide.by_kind) == (3, 1, {"route": 2})
        with pytest.raises(AttributeError):
            narrow.add(wide)  # ``dropped`` is not declared there

    def test_total_of_nothing_is_the_zero_bag(self):
        assert SampleBag.total([]) == SampleBag()

    def test_reset_empties_keyed_counts_in_place(self):
        bag = self.bag(sent=3, route=2)
        by_kind = bag.by_kind
        bag.reset()
        assert bag == SampleBag() and bag.by_kind is by_kind

    def test_equality_covers_keyed_counts(self):
        assert self.bag(route=1) != self.bag(route=2)


class TestBagAlgebra:
    @STANDARD_SETTINGS
    @given(st.lists(stat_bags(), max_size=5), st.randoms(use_true_random=False))
    def test_sum_is_independent_of_order_and_grouping(self, bags, rng):
        expected = SampleBag.total(bags).snapshot()
        shuffled = list(bags)
        rng.shuffle(shuffled)
        assert SampleBag.total(shuffled).snapshot() == expected
        cut = rng.randint(0, len(bags))
        grouped = SampleBag.total(
            [SampleBag.total(bags[:cut]), SampleBag.total(bags[cut:])])
        assert grouped.snapshot() == expected

    @STANDARD_SETTINGS
    @given(stat_bags(), stat_bags())
    def test_reset_then_add_snapshots_as_the_addend(self, bag, other):
        bag.reset()
        bag.add(other)
        assert bag.snapshot() == other.snapshot()
        assert bag == other

    @STANDARD_SETTINGS
    @given(st.lists(stat_bags(), max_size=4))
    def test_a_bag_never_grows_an_undeclared_key(self, bags):
        declared = {"sent", "dropped", "by_kind", "by_reason", "delivered"}
        for bag in bags + [SampleBag.total(bags)]:
            assert set(bag.snapshot()) == declared
            assert not hasattr(bag, "__dict__")


class TestFailoverCounters:
    def test_fields(self):
        assert FailoverCounters().snapshot() == {
            "failovers": 0, "retries": 0, "gave_up": 0, "cancelled": 0}

    def test_peer_property_reads_the_live_counters(self):
        peer = PGridPeer("p", Key("0"))
        stats = peer.failover_stats
        assert isinstance(stats, FailoverCounters)
        assert stats.retries == 0
        # attribute increments (the hot path) are visible through it
        peer._failover.gave_up += 1
        assert peer.failover_stats.gave_up == 1


class TestMetricsRegistry:
    def test_views_evaluate_lazily(self):
        registry = MetricsRegistry()
        calls = []

        def view():
            calls.append(1)
            return {"value": len(calls)}

        registry.register_view("lazy", view)
        assert calls == []
        assert registry.view_names() == ["lazy"]
        assert registry.snapshot()["views"]["lazy"] == {"value": 1}
        assert registry.snapshot()["views"]["lazy"] == {"value": 2}

    def test_reregistering_replaces_view(self):
        registry = MetricsRegistry()
        registry.register_view("v", lambda: 1)
        registry.register_view("v", lambda: 2)
        assert registry.snapshot()["views"] == {"v": 2}

    def test_snapshot_holds_the_views_and_nothing_else(self):
        registry = MetricsRegistry()
        assert registry.snapshot() == {"views": {}}
        bag = SampleBag()
        registry.register_view("bag", bag.snapshot)
        assert registry.snapshot() == {"views": {"bag": bag.snapshot()}}

    def test_diff_subtracts_numeric_leaves(self):
        bag = SampleBag()
        registry = MetricsRegistry()
        registry.register_view("bag", bag.snapshot)
        bag.sent = 5
        before = registry.snapshot()
        bag.sent += 3
        bag.by_kind["route"] = 1
        delta = MetricsRegistry.diff(before, registry.snapshot())
        assert delta["views"]["bag"] == {
            "sent": 3, "by_kind": {"route": 1}, "delivered": 3}

    def test_diff_drops_zero_deltas_and_keeps_changed_strings(self):
        before = {"views": {"x": {"mode": "cold", "n": 2}}}
        after = {"views": {"x": {"mode": "warm", "n": 2}}}
        assert MetricsRegistry.diff(before, after) == {
            "views": {"x": {"mode": "warm"}}}
