"""Property tests: batch operators vs naive dict-row semantics.

The row-tuple :class:`~repro.exec.stream.Batch` plane is the only
implementation of the operator algebra — every operator must produce
*exactly* the rows (and row order) that the obvious dict-row
implementation produces.  Each property here drives one operator
(the join, a reformulation's answer — join, project, dedup — and the
collecting tail — union, limit) with generated batches over small
colliding value pools and compares against an independent naive
reference computed on binding dicts (read through
:meth:`Batch.to_bindings`) or, for the tail, a small model of its
counting rules.
"""

from types import SimpleNamespace

from hypothesis import example, given
from hypothesis import strategies as st

from repro.exec.bindings import join_batches
from repro.exec.operators import Answer, Collect
from repro.exec.stream import Batch, Operator
from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
from repro.rdf.terms import Literal, URI, Variable

from .settings import STANDARD_SETTINGS

#: tiny pools so generated rows collide on values and schemas share
#: variables — the cases where join keys and dedup sets earn their keep
VARIABLES = tuple(Variable(name) for name in ("a", "b", "c", "d"))
VALUES = tuple(URI(f"e{i}") for i in range(3)) + (Literal("v0"),
                                                  Literal("v1"))

schemas = st.lists(st.sampled_from(VARIABLES), unique=True,
                   min_size=1, max_size=3).map(tuple)


@st.composite
def batches(draw, schema=None):
    if schema is None:
        schema = draw(schemas)
    width = len(schema)
    rows = draw(st.lists(
        st.tuples(*[st.sampled_from(VALUES)] * width), max_size=8))
    return Batch(schema, tuples=rows)


@st.composite
def batch_sequences(draw, max_batches=4):
    """Several batches sharing one schema (a stream's slot traffic)."""
    schema = draw(schemas)
    count = draw(st.integers(min_value=1, max_value=max_batches))
    return [draw(batches(schema=schema)) for _ in range(count)]


class _Sink(Operator):
    def __init__(self):
        super().__init__("property-sink")
        self.rows = []
        self.schemas = []

    def on_batch(self, batch, slot):
        self.rows.extend(batch.to_bindings())
        self.schemas.append(batch.schema)


def naive_join(left_rows, right_rows):
    """Nested-loop natural join on binding dicts, left-outer order."""
    out = []
    for lb in left_rows:
        for rb in right_rows:
            if all(lb[v] == rb[v] for v in lb if v in rb):
                merged = dict(lb)
                merged.update(rb)
                out.append(merged)
    return out


class TestJoinProperty:
    @STANDARD_SETTINGS
    @given(batches(), batches())
    # One shared variable (``a``) whose values repeat on both sides: the
    # bare-value key path, buckets of several rows, output order exact.
    @example(Batch(VARIABLES[:2], tuples=[
        (VALUES[0], VALUES[3]), (VALUES[1], VALUES[3]),
        (VALUES[0], VALUES[4]), (VALUES[2], VALUES[3])]),
             Batch((VARIABLES[0], VARIABLES[2]), tuples=[
        (VALUES[0], VALUES[1]), (VALUES[1], VALUES[0]),
        (VALUES[0], VALUES[2]), (VALUES[0], VALUES[1])]))
    def test_join_matches_naive_reference(self, left, right):
        joined = join_batches(left, right)
        expected = naive_join(left.to_bindings(), right.to_bindings())
        assert joined.to_bindings() == expected

    @STANDARD_SETTINGS
    @given(batches())
    def test_unit_relation_is_identity(self, batch):
        unit = Batch((), tuples=[()])
        assert join_batches(unit, batch).to_bindings() == \
            batch.to_bindings()
        assert join_batches(batch, unit).to_bindings() == \
            batch.to_bindings()

    @STANDARD_SETTINGS
    @given(batches(), batches())
    def test_join_schema_is_left_then_right_only(self, left, right):
        joined = join_batches(left, right)
        lset = set(left.schema)
        assert joined.schema == left.schema + tuple(
            v for v in right.schema if v not in lset)


def query_over(distinguished):
    """A query whose patterns cover every pool variable, so any
    distinguished tuple drawn from the pool is a valid head."""
    return ConjunctiveQuery(
        [TriplePattern(VARIABLES[0], URI("S#p"), VARIABLES[1]),
         TriplePattern(VARIABLES[2], URI("S#q"), VARIABLES[3])],
        distinguished=distinguished)


def run_answer(query, streams, slots):
    """Drive an :class:`Answer`: ``streams[i]`` is the batches source
    ``i`` emits, ``slots`` the source feeding each input slot (one
    source may feed several).  Returns the sink."""
    sources = [Operator(f"source{i}") for i in range(len(streams))]
    answer, sink = Answer(query), _Sink()
    for index in slots:
        sources[index].connect(answer)
    answer.connect(sink)
    for source, stream in zip(sources, streams):
        for batch in stream:
            source.emit(batch)
        source.close()
    return sink


def first_occurrences(rows):
    seen, out = set(), []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


def naive_answer(query, streams, slots):
    """Nested-loop join of the slots' binding dicts (seeded with the
    unit relation), projection, first-occurrence dedup."""
    joined = [{}]
    for index in slots:
        joined = naive_join(joined, [binding for batch in streams[index]
                                     for binding in batch.to_bindings()])
    distinguished = query.distinguished
    if not joined or not all(v in joined[0] for v in distinguished):
        return []
    return first_occurrences(
        [tuple(b[v] for v in distinguished) for b in joined])


#: a unit-relation source and an empty source, mixed into generated
#: inputs
UNIT = [Batch((), tuples=[()])]
EMPTY: list = []


@st.composite
def answer_inputs(draw):
    """``(query, streams, slots)``: up to three sources, each an empty
    stream, the unit relation or several batches of one schema, wired
    into one to three slots (a source may be wired twice)."""
    streams = draw(st.lists(st.one_of(
        st.just(EMPTY), st.just(UNIT), batch_sequences()),
        min_size=1, max_size=3))
    slots = draw(st.lists(
        st.integers(min_value=0, max_value=len(streams) - 1),
        min_size=1, max_size=3))
    distinguished = draw(st.lists(st.sampled_from(VARIABLES), unique=True,
                                  min_size=1, max_size=3).map(tuple))
    return query_over(distinguished), streams, slots


class TestAnswerProperty:
    @STANDARD_SETTINGS
    @given(answer_inputs())
    # An empty slot; the unit relation; a missing distinguished
    # variable; one scan wired twice, each fed by several batches that
    # repeat rows within and across batches.
    @example((query_over((VARIABLES[0],)),
              [EMPTY, [Batch((VARIABLES[0],), tuples=[VALUES[:1]])]],
              [1, 0]))
    @example((query_over((VARIABLES[0],)),
              [UNIT, [Batch((VARIABLES[0],), tuples=[VALUES[:1]] * 2)]],
              [0, 1]))
    @example((query_over((VARIABLES[3],)),
              [[Batch(VARIABLES[:2], tuples=[VALUES[:2]])]], [0]))
    @example((query_over((VARIABLES[1], VARIABLES[0])),
              [[Batch(VARIABLES[:2], tuples=[VALUES[:2], VALUES[1:3]]),
                Batch(VARIABLES[:2], tuples=[VALUES[:2]])]],
              [0, 0]))
    def test_answer_matches_join_project_dedup_reference(self, inputs):
        query, streams, slots = inputs
        sink = run_answer(query, streams, slots)
        assert [tuple(b[v] for v in query.distinguished)
                for b in sink.rows] == naive_answer(query, streams, slots)
        # One batch, in the query's head, whatever arrived.
        assert sink.schemas == [query.distinguished]


class TestDedupProperty:
    @STANDARD_SETTINGS
    @given(batch_sequences())
    def test_dedup_matches_first_occurrence_reference(self, stream):
        # One slot fed by several batches; the head is the stream's
        # schema, so the answer only drops repeats.
        sink = run_answer(query_over(stream[0].schema), [stream], [0])
        expected = first_occurrences(
            [row for batch in stream for row in batch.tuples()])
        assert sink.rows == [dict(zip(stream[0].schema, row))
                             for row in expected]


#: a fixed three-variable batch with a repeated row, for the pinned
#: projection cases
_ABC = Batch(VARIABLES[:3], tuples=[VALUES[:3], VALUES[2:5], VALUES[:3]])


class TestProjectProperty:
    @STANDARD_SETTINGS
    @given(batches(), st.lists(st.sampled_from(VARIABLES), unique=True,
                               min_size=1, max_size=2).map(tuple))
    # One variable (rows must stay 1-tuples) and a reordered pair.
    @example(_ABC, (VARIABLES[2],))
    @example(_ABC, (VARIABLES[2], VARIABLES[0]))
    def test_project_matches_column_selection(self, batch, distinguished):
        # One slot, one batch: the answer is the selected columns,
        # repeats dropped.
        sink = run_answer(query_over(distinguished), [[batch]], [0])
        if batch.count and all(v in batch.schema for v in distinguished):
            expected = first_occurrences(
                [tuple(row[v] for v in distinguished)
                 for row in batch.to_bindings()])
        else:
            expected = []
        assert [tuple(b[v] for v in distinguished)
                for b in sink.rows] == expected
        assert sink.schemas == [distinguished]


#: attribution keys a collected batch may carry (``None``: the query)
SOURCES = (None, "q1", "q2")


@st.composite
def tail_traffic(draw):
    """``(inputs, events)``: a tail's input count and the batches
    arriving on it in order, as ``(slot, batch)`` — every input's
    batches share one schema, and each batch carries a source."""
    inputs = draw(st.integers(min_value=1, max_value=3))
    streams = [draw(batch_sequences()) for _ in range(inputs)]
    for stream in streams:
        for batch in stream:
            batch.source = draw(st.sampled_from(SOURCES))
    order = draw(st.permutations(
        [slot for slot, stream in enumerate(streams) for _ in stream]))
    cursors = [iter(stream) for stream in streams]
    return inputs, [(slot, next(cursors[slot])) for slot in order]


class _Outcome:
    """What a :class:`Collect` writes into a query outcome, in
    arrival order: one ``(source, rows)`` per recorded batch."""

    query = "q0"

    def __init__(self):
        self.results = set()
        self.recorded = []

    def record(self, source, rows):
        self.results |= rows
        self.recorded.append((source, rows))


def run_tail(inputs, events, limit):
    """Drive a ``Collect(limit)`` with ``inputs`` inputs through
    ``events``, then close every input.  Returns ``(collect,
    outcome, times on_satisfied fired)``."""
    outcome = _Outcome()
    collect = Collect(SimpleNamespace(now=0.0), outcome=outcome,
                      limit=limit)
    fired = []
    collect.on_satisfied = lambda: fired.append(1)
    sources = [Operator(f"source{i}") for i in range(inputs)]
    for source in sources:
        source.connect(collect)
    for slot, batch in events:
        sources[slot].emit(batch)
    for source in sources:
        assert not collect.future.done
        source.close()
    assert collect.future.result() is outcome
    return collect, outcome, len(fired)


def reference_tail(events, limit):
    """The tail's counting rules, stated plainly: a row counts once,
    a repeated row is kept without counting, the batch reaching the
    limit is cut there, and every later batch arrives late.  Returns
    ``(recorded, kept, limit hit, rows dropped, late rows)``."""
    recorded, kept = [], set()
    dropped = late = 0
    hit = False
    for _slot, batch in events:
        rows = batch.tuples()
        if hit:
            dropped += len(rows)
            late += len(rows)
            continue
        taken = set()
        for position, row in enumerate(rows):
            if (row not in kept and limit is not None
                    and len(kept) >= limit):
                dropped += len(rows) - position
                break
            kept.add(row)
            taken.add(row)
        recorded.append((batch.source or "q0", taken))
        hit = limit is not None and len(kept) >= limit
    return recorded, kept, hit, dropped, late


class TestUnionProperty:
    @STANDARD_SETTINGS
    @given(tail_traffic())
    def test_union_concatenates_in_arrival_order(self, traffic):
        # Without a limit the tail is a union: every batch recorded as
        # it arrives, whichever input it came on, closed by the last.
        inputs, events = traffic
        collect, outcome, fired = run_tail(inputs, events, None)
        assert outcome.recorded == [
            (batch.source or "q0", set(batch.tuples()))
            for _slot, batch in events]
        assert (collect.satisfied, fired, collect.late_rows) == (
            False, 0, 0)


class TestLimitProperty:
    @STANDARD_SETTINGS
    @given(tail_traffic(), st.integers(min_value=1, max_value=8))
    def test_limit_matches_distinct_counting_reference(self, traffic,
                                                       limit):
        inputs, events = traffic
        collect, outcome, fired = run_tail(inputs, events, limit)
        recorded, kept, hit, dropped, late = reference_tail(events,
                                                            limit)
        assert outcome.recorded == recorded
        assert collect.rows == outcome.results == kept
        assert len(kept) <= limit
        assert collect.satisfied == hit
        assert fired == (1 if hit else 0)
        assert (collect.stats.rows_dropped, collect.late_rows) == (
            dropped, late)

    @STANDARD_SETTINGS
    @given(tail_traffic())
    def test_limit_none_is_pass_through(self, traffic):
        inputs, events = traffic
        collect, outcome, fired = run_tail(inputs, events, None)
        assert (outcome.recorded, collect.rows) == reference_tail(
            events, None)[:2]
        assert collect.stats.rows_in == sum(b.count for _s, b in events)
        assert collect.stats.rows_dropped == 0
