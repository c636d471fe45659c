"""Unit tests for the streaming operator runtime (repro.exec)."""

from contextlib import nullcontext
from types import SimpleNamespace

import pytest

from repro.exec.operators import (
    Answer,
    Collect,
    PatternScan,
    Reformulate,
)
from repro.exec.plans import run_query_plan
from repro.exec.stream import Batch, Operator, PipelineContext
from repro.mapping.graph import MappingGraph
from repro.mapping.model import PredicateCorrespondence, SchemaMapping
from repro.rdf.parser import parse_search_for
from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
from repro.rdf.terms import Literal, URI, Variable
from repro.engine import executor
from repro.mediation.keys import schema_key
from repro.mediation.records import MappingRecord
from repro.pgrid.peer import OpResult
from repro.reformulation.planner import Reformulation, plan_reformulations
from repro.simnet.events import CancelToken, EventLoop, Future

from test_exec_limit_pushdown import deploy_chain

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
        src, sink = chain(Operator("src"), _Sink())
        src.emit(_ints(1, 2))
        src.close()
        assert sink.batches == [([(1,), (2,)], None)]
        assert sink.closes == 1 and sink._closed

    def test_multi_input_close_barrier(self):
        a, b, sink = Operator("a"), Operator("b"), _Sink()
        a.connect(sink)
        b.connect(sink)
        a.close()
        assert not sink._closed
        b.close()
        assert sink._closed

    def test_rows_after_close_are_dropped_and_counted(self):
        a, b, sink = Operator("a"), Operator("b"), _Sink()
        a.connect(sink)
        sink._input_closed(0)  # force-close via the only input
        b.connect(sink)
        b.emit(_ints(1, 2, 3))
        assert sink.batches == []
        assert sink.stats.rows_dropped == 3

    def test_stats_count_rows(self):
        src, sink = chain(Operator("src"), _Sink())
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

    def test_an_answer_fetches_its_own_patterns(self, small_network,
                                                monkeypatch):
        # Replies resolve synchronously, as when the origin owns the
        # keys: every slot must exist before the first fetch, or the
        # answer would close on the first reply alone.  Both patterns
        # go out as one split read, one key each.
        peer = next(iter(small_network.peers.values()))
        length = TriplePattern(X, URI("S#len"), Z)
        replies = {PATTERN: [(URI("a"), Literal("v")),
                             (URI("b"), Literal("w"))],
                   length: [(URI("a"), Literal("9"))]}
        reads = []

        def read_many(op, groups, on_result, cancel=None):
            reads.append((op, list(groups.values())))
            for key, patterns in groups.items():
                on_result(OpResult(key, True, values=[
                    replies[pattern] for pattern in patterns]))

        monkeypatch.setattr(peer, "read_many", read_many)
        query = ConjunctiveQuery([PATTERN, length], [X, Z])
        for cancelled, rows in ((False, [(URI("a"), Literal("9"))]),
                                (True, [])):
            ctx = PipelineContext(peer)
            if cancelled:
                ctx.cancel.cancel()
            answer, sink = chain(Answer(query), _Sink())
            ctx.register(answer)
            answer.fetch(ctx, [PATTERN, length])
            assert sink.batches == [(rows, query)] and answer._closed
            stats = answer.stats
            assert (stats.fetches_issued, stats.fetches_skipped,
                    stats.rows_in) == ((0, 2, 0) if cancelled
                                       else (2, 0, 3))
        assert reads == [("search", [(PATTERN,), (length,)])]

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


def answer_of(*streams):
    """Feed an ``Answer(QUERY)`` one slot per stream of batches, close
    every slot; returns ``(answer, sink)``."""
    answer, sink = Answer(QUERY), _Sink()
    sources = [Operator(f"source{i}") for i in range(len(streams))]
    for source in sources:
        source.connect(answer)
    answer.connect(sink)
    for source, stream in zip(sources, streams):
        for batch in stream:
            source.emit(batch)
        source.close()
    return answer, sink


def collect_of(limit, inputs=1):
    """A ``Collect(limit)`` fed by ``inputs`` upstream operators;
    returns ``(collect, sources)``."""
    collect = Collect(SimpleNamespace(now=0.0), limit=limit)
    sources = [Operator(f"source{i}") for i in range(inputs)]
    for source in sources:
        source.connect(collect)
    return collect, sources


class TestProjectDedupLimit:
    def test_project_slices_columns_and_tags_source(self):
        answer, sink = answer_of([Batch((X, Y), tuples=[
            (URI("a"), Literal("v")), (URI("b"), Literal("w"))])])
        rows, source = sink.batches[0]
        assert rows == [(URI("a"),), (URI("b"),)]
        assert source == QUERY

    def test_project_missing_variable_emits_empty(self):
        answer, sink = answer_of([Batch((Y,), tuples=[(Literal("w"),)])])
        rows, source = sink.batches[0]
        assert rows == []
        assert source == QUERY
        assert answer.stats.rows_in == 1
        assert answer.stats.rows_out == 0
        assert answer.stats.batches_out == 1

    def test_dedup_across_batches(self):
        # The answer emits once, at close: repeats within and across
        # the slot's batches leave the first of each, in row order.
        answer, sink = answer_of([_ints(1, 2, 1), _ints(2, 3)])
        assert [rows for rows, _ in sink.batches] == [[(1,), (2,), (3,)]]
        assert (answer.stats.rows_in, answer.stats.rows_out) == (5, 3)

    def test_answer_joins_slots_in_connect_order(self):
        answer, sink = answer_of(
            [Batch((Y, X), tuples=[(1, 10), (2, 20), (3, 10)])],
            [Batch((Y,), tuples=[(3,), (1,)])])
        assert sink.batches == [([(10,)], QUERY)]
        # An empty slot empties the answer, however full the others.
        _answer, sink = answer_of([_ints(1, 2)], [])
        assert sink.batches == [([], QUERY)]

    def test_limit_truncates_and_fires_once(self):
        fired = []
        collect, (a, b) = collect_of(3, inputs=2)
        collect.on_satisfied = lambda: fired.append(1)
        a.emit(_ints(1, 2))
        b.emit(_ints(3, 4, 5))
        a.emit(_ints(6))
        assert collect.rows == {(1,), (2,), (3,)}
        assert fired == [1]
        assert collect.satisfied
        assert collect.stats.rows_dropped == 3  # 4, 5 truncated + 6 late
        assert not collect.future.done         # open until both close
        a.close()
        b.close()
        assert collect.future.result() == {(1,), (2,), (3,)}
        assert fired == [1]

    def test_limit_separates_overshoot_from_late_rows(self):
        collect, (src,) = collect_of(2)
        src.emit(_ints(1, 2, 3))              # overshoot: 3 truncated
        assert collect.satisfied
        assert collect.stats.rows_dropped == 1
        assert collect.late_rows == 0         # nothing arrived late yet
        src.emit(_ints(4, 5))                 # true late arrivals
        assert collect.late_rows == 2
        assert collect.stats.rows_dropped == 3

    def test_limit_duplicates_do_not_count(self):
        collect, (src,) = collect_of(2)
        src.emit(_ints(1, 1, 1))
        assert not collect.satisfied
        src.emit(_ints(2))
        assert collect.satisfied

    def test_limit_none_passes_through(self):
        collect, (src,) = collect_of(None)
        src.emit(_ints(*range(100)))
        assert not collect.satisfied
        assert collect.stats.rows_in == 100
        assert len(collect.rows) == 100


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


class TestEngineWaves:
    def test_limited_batch_starts_its_scans_in_hops_order(self,
                                                          monkeypatch):
        """Under a limit a scan starts in the wave of the nearest
        reformulation using it, one wave after the other."""
        net = deploy_chain()  # S0 -> S1 -> S2 -> S3
        engine = net.create_engine(domain="lp", max_hops=8)
        started: list[list[str]] = []
        real_read_scans = PipelineContext.read_scans

        def recording(ctx, by_key):
            started.append(sorted(scan.pattern.predicate.namespace
                                  for group in by_key.values()
                                  for scan in group))
            real_read_scans(ctx, by_key)

        monkeypatch.setattr(PipelineContext, "read_scans", recording)
        # S1's organism query is 0 hops from S1 and 1 hop from S0, so
        # its scan joins wave 0; every other scan is as far as S1's
        # plan says.  The limit is never reached: every wave runs.
        engine.execute_batch(
            ["SearchFor(x? : (x?, S1#org, %Aspergillus%))",
             "SearchFor(x? : (x?, S0#org, %Aspergillus%))"],
            origin=net.peer_ids()[0], limit=1000)
        assert started == [["S0", "S1"], ["S2"], ["S3"]]


def _reformulation(schema, hops):
    query = ConjunctiveQuery(
        [TriplePattern(X, URI(f"{schema}#org"), Literal("%Aspergillus%"))],
        [X])
    return Reformulation(query, tuple([None] * hops))  # type: ignore[list-item]


def _record_reads(monkeypatch) -> list[list[str]]:
    """Record each wave's read as the sorted schemas of its scans."""
    started: list[list[str]] = []
    real_read_scans = PipelineContext.read_scans

    def recording(ctx, by_key):
        started.append(sorted(scan.pattern.predicate.namespace
                              for group in by_key.values()
                              for scan in group))
        real_read_scans(ctx, by_key)

    monkeypatch.setattr(PipelineContext, "read_scans", recording)
    return started


class TestReformulationWaves:
    """The executor groups a plan into waves by ``hops``."""

    def test_groups_by_hops(self, monkeypatch):
        net = deploy_chain()
        plan = [_reformulation("S0", 0), _reformulation("S1", 1),
                _reformulation("S2", 1), _reformulation("S3", 2)]
        started = _record_reads(monkeypatch)
        future = executor.execute_batch(net.peer(net.peer_ids()[0]),
                                        [plan[0].query], [plan],
                                        limit=1000)
        net.settle()
        outcomes, stats = future.result()
        assert started == [["S0"], ["S1", "S2"], ["S3"]]
        assert stats.patterns_fetched == 4
        assert outcomes[0].result_count == 24

    def test_empty_plan(self, monkeypatch):
        """A batch with no plans has no wave: it reads nothing and
        resolves at once."""
        net = deploy_chain()
        started = _record_reads(monkeypatch)
        future = executor.execute_batch(net.peer(net.peer_ids()[0]),
                                        [], [], limit=1)
        outcomes, stats = future.result()
        assert started == []
        assert outcomes == []
        assert stats.patterns_fetched == 0
        assert stats.scans_issued == stats.scans_skipped == 0


class _SchemaSpacePeer:
    """A peer whose schema-space reads (``retrieve_many``) stay pending
    until the test answers their keys, in the order it chooses; a read
    resolves once its last key has answered.  Pattern reads answer at
    once, with no rows.  It counts every read and is its own
    (untraced, unscoped) network."""

    tracer = None
    join_mode = "parallel"

    def __init__(self, mappings):
        self.loop = EventLoop()
        self.network = self
        self.mappings = mappings
        #: schema key -> the callback answering it
        self.pending = {}
        #: ``(op, keys)`` of every read, in issue order
        self.reads = []

    def scope(self):
        return None

    def resume(self, scope):
        return nullcontext()

    def retrieve_many(self, keys, cancel=None):
        self.reads.append(("retrieve", list(keys)))
        read, answers = Future(), dict.fromkeys(keys)
        unanswered = set(answers)

        def answer(key):
            answers[key] = [MappingRecord(m) for m in self.mappings
                            if schema_key(m.source_schema) == key]
            unanswered.discard(key)
            if not unanswered:
                read.set_result(answers)

        for key in answers:
            self.pending[key] = answer
        return read

    def read_many(self, op, groups, on_result, cancel=None):
        self.reads.append((op, list(groups)))
        for key, patterns in groups.items():
            on_result(OpResult(key, True, values=[[] for _ in patterns]))

    def resolve_in(self, order):
        """Answer pending keys, always the earliest schema of ``order``
        (every schema the mappings name) next."""
        while self.pending:
            key = next(schema_key(s) for s in order
                       if schema_key(s) in self.pending)
            self.pending.pop(key)(key)


class TestReformulateFirstArrival:
    """``A->B->D->F`` and ``A->C->E->D``, one predicate each, at
    ``max_hops=3``: ``D#p`` is two hops away through B and three
    through C and E, so ``F#p`` is exactly three away."""

    EDGES = ("AB", "BD", "DF", "AC", "CE", "ED")
    MAPPINGS = [
        SchemaMapping(f"m{s}{t}", s, t, [
            PredicateCorrespondence(URI(f"{s}#p"), URI(f"{t}#p"))])
        for s, t in EDGES]
    QUERY = parse_search_for("SearchFor(x? : (x?, A#p, v))")

    def spawned(self, order):
        peer = _SchemaSpacePeer(self.MAPPINGS)
        spawned = []
        operator = Reformulate(self.QUERY, 3,
                               lambda _ctx, query: spawned.append(query))
        PipelineContext(peer).start_source(operator)
        peer.resolve_in(order)
        assert operator._closed
        return spawned

    def planned(self):
        return [r.query for r in plan_reformulations(
            self.QUERY, MappingGraph(self.MAPPINGS), 3)]

    @staticmethod
    def schemas(queries):
        return sorted(q.patterns[0].predicate.namespace for q in queries)

    def test_shortest_path_first_reaches_the_plan(self):
        assert self.schemas(self.planned()) == list("ABCDEF")
        assert self.schemas(self.spawned("ABCDEF")) == list("ABCDEF")

    def test_a_later_shorter_path_still_reaches_the_plan(self):
        """C answering before B no longer matters: D is reached at
        level two, through B, whatever the order keys answer in."""
        assert (self.schemas(self.spawned("ACEBDF"))
                == self.schemas(self.planned()))


class TestPeerSearchForValidation:
    def test_unknown_strategy_raises_synchronously(self, small_network):
        net = small_network
        peer = net.peer(net.peer_ids()[0])
        with pytest.raises(ValueError):
            peer.search_for(
                ConjunctiveQuery([TriplePattern(X, URI("S#p"),
                                                Literal("%v%"))], [X]),
                strategy="telepathic")

    @pytest.mark.parametrize("limit", [0, -1])
    def test_non_positive_limit_raises_before_any_message(self,
                                                          fig2_network,
                                                          limit):
        net, _embl, _emp = fig2_network
        text = "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"
        query = parse_search_for(text)
        peer = net.peer(net.peer_ids()[0])
        engine = net.create_engine(domain="bio")
        net.settle()
        sent = net.metrics_snapshot()["messages_sent"]
        entry_points = [
            lambda: net.search_for(text, limit=limit),
            lambda: peer.search_for(query, limit=limit),
            lambda: run_query_plan(peer, query, "iterative", 5,
                                   limit=limit),
            lambda: engine.search_for(text, limit=limit),
            lambda: engine.execute_batch([text, query], limit=limit),
        ]
        for entry_point in entry_points:
            with pytest.raises(ValueError, match="limit"):
                entry_point()
        net.settle()
        assert net.metrics_snapshot()["messages_sent"] == sent

    @pytest.mark.parametrize("max_hops", [-1, -5])
    def test_negative_max_hops_raises_before_any_message(self,
                                                         fig2_network,
                                                         max_hops):
        net, _embl, _emp = fig2_network
        text = "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"
        query = parse_search_for(text)
        peer = net.peer(net.peer_ids()[0])
        engine = net.create_engine(domain="bio")
        net.settle()
        sent = net.metrics_snapshot()["messages_sent"]
        entry_points = [
            lambda strategy=strategy: net.search_for(
                text, strategy=strategy, max_hops=max_hops)
            for strategy in ("local", "iterative", "recursive", "auto")
        ] + [
            lambda: peer.search_for(query, max_hops=max_hops),
            lambda: run_query_plan(peer, query, "iterative", max_hops),
            lambda: engine.search_for(text, max_hops=max_hops),
            lambda: engine.execute_batch([text, query], max_hops=max_hops),
            lambda: engine.plan(query, max_hops=max_hops),
            lambda: net.create_engine(max_hops=max_hops),
        ]
        for entry_point in entry_points:
            with pytest.raises(ValueError, match="max_hops"):
                entry_point()
        net.settle()
        assert net.metrics_snapshot()["messages_sent"] == sent
        assert len(engine.cache) == 0
