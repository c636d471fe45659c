"""Unit tests: CounterGroup, FailoverCounters, MetricsRegistry."""

import pytest

from repro.obs.registry import (
    CounterGroup,
    FailoverCounters,
    MetricsRegistry,
)
from repro.pgrid.peer import PGridPeer
from repro.util.keys import Key


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
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("messages")
        registry.inc("messages", 2)
        registry.inc("messages", labels=("route",))
        registry.set_gauge("peers", 48)
        registry.observe("latency", 0.5)
        registry.observe("latency", 1.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"messages": 3, "messages{route}": 1}
        assert snap["gauges"] == {"peers": 48}
        assert snap["histograms"]["latency"] == {
            "count": 2, "sum": 2.0, "min": 0.5, "max": 1.5}
        assert registry.counter_value("messages") == 3
        assert registry.counter_value("missing") == 0

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

    def test_diff_subtracts_numeric_leaves(self):
        registry = MetricsRegistry()
        registry.inc("a", 5)
        before = registry.snapshot()
        registry.inc("a", 3)
        registry.inc("b")
        after = registry.snapshot()
        delta = MetricsRegistry.diff(before, after)
        assert delta["counters"] == {"a": 3, "b": 1}

    def test_diff_drops_zero_deltas_and_keeps_changed_strings(self):
        before = {"views": {"x": {"mode": "cold", "n": 2}}}
        after = {"views": {"x": {"mode": "warm", "n": 2}}}
        assert MetricsRegistry.diff(before, after) == {
            "views": {"x": {"mode": "warm"}}}
