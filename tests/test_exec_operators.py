"""Unit tests for the streaming operator runtime (repro.exec)."""

import pytest

from repro.exec.operators import Dedup, Limit, PatternScan, Project, Union
from repro.exec.stream import Batch, Operator, PipelineContext
from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
from repro.rdf.terms import Literal, URI, Variable
from repro.reformulation.planner import (
    Reformulation,
    reformulation_waves,
)
from repro.simnet.events import CancelToken, EventLoop, Future

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def chain(*ops):
    """Wire operators linearly; returns the ops."""
    for upstream, downstream in zip(ops, ops[1:]):
        upstream.connect(downstream)
    return ops


class _Sink(Operator):
    """Test sink remembering everything it received."""

    def __init__(self):
        super().__init__("test-sink")
        self.batches = []
        self.closes = 0

    def on_batch(self, batch, slot):
        self.batches.append((batch.tuples(), batch.source))

    def on_finish(self):
        self.closes += 1


def _ints(*values):
    """A one-column test batch of integer rows."""
    return Batch((X,), tuples=[(v,) for v in values])


class TestBatch:
    def test_rows_are_the_only_layout(self):
        rows = [(URI("a"), Literal("v")), (URI("b"), Literal("w"))]
        batch = Batch((X, Y), tuples=rows)
        assert batch.schema == (X, Y)
        assert batch.count == 2
        assert batch.tuples() is rows
        # No column view, and no dict-row constructor either.
        assert not hasattr(batch, "columns")
        assert not hasattr(batch, "column")
        assert not hasattr(Batch, "from_bindings")

    def test_to_bindings_round_trip(self):
        batch = Batch((X, Y), tuples=[(URI("a"), Literal("v"))])
        assert batch.to_bindings() == [{X: URI("a"), Y: Literal("v")}]

    def test_unit_relation_vs_empty(self):
        unit = Batch((), tuples=[()])
        empty = Batch((), tuples=[])
        assert unit.count == 1 and unit.tuples() == [()]
        assert empty.count == 0 and empty.tuples() == []

    def test_renamed_shares_storage(self):
        batch = Batch((X,), tuples=[(URI("a"),)])
        renamed = batch.renamed({X: Z})
        assert renamed.schema == (Z,)
        assert renamed.tuples() is batch.tuples()
        assert batch.renamed({}) is batch


class TestStreamMechanics:
    def test_passthrough_and_close_propagation(self):
        src, sink = chain(Union("src"), _Sink())
        src.emit(_ints(1, 2))
        src.close()
        assert sink.batches == [([(1,), (2,)], None)]
        assert sink.closes == 1 and sink._closed

    def test_multi_input_close_barrier(self):
        a, b, sink = Union("a"), Union("b"), _Sink()
        a.connect(sink)
        b.connect(sink)
        a.close()
        assert not sink._closed
        b.close()
        assert sink._closed

    def test_rows_after_close_are_dropped_and_counted(self):
        a, b, sink = Union("a"), Union("b"), _Sink()
        a.connect(sink)
        sink._input_closed(0)  # force-close via the only input
        b.connect(sink)
        b.emit(_ints(1, 2, 3))
        assert sink.batches == []
        assert sink.stats.rows_dropped == 3

    def test_stats_count_rows(self):
        src, sink = chain(Union("src"), _Sink())
        src.emit(_ints(1, 2, 3))
        assert src.stats.rows_out == 3
        assert sink.stats.rows_in == 3


PATTERN = TriplePattern(X, URI("S#org"), Y)
QUERY = ConjunctiveQuery([PATTERN], [X])


class TestRowsFromStoreToScan:
    def test_pattern_scan_emits_the_fetched_list(self, small_network,
                                                 monkeypatch):
        peer = next(iter(small_network.peers.values()))
        rows = [(URI("a"), Literal("v")), (URI("b"), Literal("w"))]
        fetched = Future()
        fetched.set_result(rows)
        monkeypatch.setattr(peer, "_search_pattern",
                            lambda pattern, cancel=None: fetched)
        scan, sink = chain(PatternScan(PATTERN), _Sink())
        PipelineContext(peer).start_source(scan)
        # Not a copy, not a per-row conversion: the very list.
        assert sink.batches[0][0] is rows
        assert scan.stats.rows_out == 2 and scan._closed

    def test_search_reply_ships_one_value_per_row(self, fig2_network):
        net, _embl, _emp = fig2_network
        pattern = TriplePattern(X, URI("EMBL#Organism"), Y)
        remote = 0
        for peer in net.peers.values():
            before = net.metrics_snapshot()
            future = peer._search_pattern(pattern)
            net.settle()
            after = net.metrics_snapshot()
            rows = future.result()
            assert len(rows) == 3
            assert all(type(row) is tuple and len(row) == 2 for row in rows)
            if after["messages_sent"] > before["messages_sent"]:
                remote += 1
                assert (after["values_shipped"] - before["values_shipped"]
                        == len(rows))
        assert remote  # some origin does not own the key space


class TestProjectDedupLimit:
    def test_project_slices_columns_and_tags_source(self):
        project, sink = chain(Project(QUERY), _Sink())
        project._receive(Batch((X, Y), tuples=[
            (URI("a"), Literal("v")), (URI("b"), Literal("w"))]), 0)
        rows, source = sink.batches[0]
        assert rows == [(URI("a"),), (URI("b"),)]
        assert source == QUERY

    def test_project_missing_variable_emits_empty(self):
        project, sink = chain(Project(QUERY), _Sink())
        project._receive(Batch((Y,), tuples=[(Literal("w"),)]), 0)
        rows, source = sink.batches[0]
        assert rows == []
        assert source == QUERY
        assert project.stats.rows_out == 0
        assert project.stats.batches_out == 1

    def test_dedup_across_batches(self):
        dedup, sink = chain(Dedup(), _Sink())
        dedup._receive(_ints(1, 2, 1), 0)
        dedup._receive(_ints(2, 3), 0)
        assert [rows for rows, _ in sink.batches] == \
            [[(1,), (2,)], [(3,)]]

    def test_limit_truncates_and_fires_once(self):
        fired = []
        limit = Limit(3, on_satisfied=lambda: fired.append(1))
        sink = _Sink()
        limit.connect(sink)
        limit._receive(_ints(1, 2), 0)
        limit._receive(_ints(3, 4, 5), 0)
        limit._receive(_ints(6), 0)
        emitted = [row for rows, _ in sink.batches for row in rows]
        assert emitted == [(1,), (2,), (3,)]
        assert fired == [1]
        assert limit.satisfied
        assert limit.stats.rows_dropped == 3  # 4, 5 truncated + 6 late

    def test_limit_separates_overshoot_from_late_rows(self):
        limit, sink = chain(Limit(2), _Sink())
        limit._receive(_ints(1, 2, 3), 0)     # overshoot: 3 truncated
        assert limit.satisfied
        assert limit.stats.rows_dropped == 1
        assert limit.late_rows == 0           # nothing arrived late yet
        limit._receive(_ints(4, 5), 0)        # true late arrivals
        assert limit.late_rows == 2
        assert limit.stats.rows_dropped == 3

    def test_limit_duplicates_do_not_count(self):
        limit, sink = chain(Limit(2), _Sink())
        limit._receive(_ints(1, 1, 1), 0)
        assert not limit.satisfied
        limit._receive(_ints(2), 0)
        assert limit.satisfied

    def test_limit_none_passes_through(self):
        limit, sink = chain(Limit(None), _Sink())
        limit._receive(_ints(*range(100)), 0)
        assert not limit.satisfied
        assert sink.stats.rows_in == 100


class TestCancelToken:
    def test_cancel_idempotent_and_callbacks(self):
        fired = []
        token = CancelToken()
        token.on_cancel(lambda: fired.append("a"))
        token.cancel()
        token.cancel()
        assert fired == ["a"]
        assert token.cancelled

    def test_late_callback_fires_immediately(self):
        token = CancelToken()
        token.cancel()
        fired = []
        token.on_cancel(lambda: fired.append("late"))
        assert fired == ["late"]

    def test_link_cancels_scheduled_event(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(1.0, fired.append, "boom")
        token = CancelToken()
        token.link(handle)
        token.cancel()
        loop.run_until_idle()
        assert fired == []


def _reformulation(hops):
    query = ConjunctiveQuery(
        [TriplePattern(X, URI(f"S{hops}#p"), Y)], [X])
    return Reformulation(query, tuple([None] * hops))  # type: ignore[list-item]


class TestReformulationWaves:
    def test_groups_by_hops(self):
        plan = [_reformulation(0), _reformulation(1),
                _reformulation(1), _reformulation(2)]
        waves = reformulation_waves(plan)
        assert [len(w) for w in waves] == [1, 2, 1]
        assert all(r.hops == i for i, wave in enumerate(waves)
                   for r in wave)

    def test_empty_plan(self):
        assert reformulation_waves([]) == []


class TestPeerSearchForValidation:
    def test_unknown_strategy_raises_synchronously(self, small_network):
        net = small_network
        peer = net.peer(net.peer_ids()[0])
        with pytest.raises(ValueError):
            peer.search_for(
                ConjunctiveQuery([TriplePattern(X, URI("S#p"),
                                                Literal("%v%"))], [X]),
                strategy="telepathic")
