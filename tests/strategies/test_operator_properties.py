"""Property tests: batch operators vs naive dict-row semantics.

The row-tuple :class:`~repro.exec.stream.Batch` plane is the only
implementation of the operator algebra — every operator must produce
*exactly* the rows (and row order) that the obvious dict-row
implementation produces.  Each property here drives one operator
(join, dedup, project, union, limit) with generated batches over
small colliding value pools and compares against an independent naive
reference computed on binding dicts (read through
:meth:`Batch.to_bindings`).
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.exec.bindings import join_batches
from repro.exec.operators import Dedup, Limit, Project, Union
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


class TestDedupProperty:
    @STANDARD_SETTINGS
    @given(batch_sequences())
    def test_dedup_matches_first_occurrence_reference(self, stream):
        dedup, sink = Dedup(), _Sink()
        dedup.connect(sink)
        for batch in stream:
            dedup.on_batch(batch, 0)
        seen, expected = set(), []
        for batch in stream:
            for row in batch.tuples():
                if row not in seen:
                    seen.add(row)
                    expected.append(dict(zip(batch.schema, row)))
        assert sink.rows == expected


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
        # Patterns covering every pool variable, so any drawn
        # distinguished tuple is a valid query head.
        query = ConjunctiveQuery(
            [TriplePattern(VARIABLES[0], URI("S#p"), VARIABLES[1]),
             TriplePattern(VARIABLES[2], URI("S#q"), VARIABLES[3])],
            distinguished=distinguished)
        project = Project(query)
        sink = _Sink()
        project.connect(sink)
        project.on_batch(batch, 0)
        if batch.count and all(v in batch.schema for v in distinguished):
            expected = [{v: row[v] for v in distinguished}
                        for row in batch.to_bindings()]
        else:
            expected = []
        assert sink.rows == expected
        assert all(schema == distinguished for schema in sink.schemas)


class TestUnionProperty:
    @STANDARD_SETTINGS
    @given(batch_sequences(), batch_sequences())
    def test_union_concatenates_in_arrival_order(self, first, second):
        union, sink = Union(), _Sink()
        union.connect(sink)
        arrival = []
        for batch in first:
            union.on_batch(batch, 0)
            arrival.extend(batch.to_bindings())
        for batch in second:
            union.on_batch(batch, 1)
            arrival.extend(batch.to_bindings())
        assert sink.rows == arrival


class TestLimitProperty:
    @STANDARD_SETTINGS
    @given(batch_sequences(max_batches=5),
           st.integers(min_value=1, max_value=6))
    def test_limit_matches_distinct_counting_reference(self, stream,
                                                       limit):
        op, sink = Limit(limit), _Sink()
        op.connect(sink)
        for batch in stream:
            op.on_batch(batch, 0)
        # Reference semantics: duplicates pass without counting; the
        # batch that fills the cap is truncated right there; later
        # batches are dropped entirely.
        seen: set = set()
        expected = []
        accepting = True
        for batch in stream:
            if not accepting:
                break
            emitted = []
            for row in batch.tuples():
                if row in seen:
                    emitted.append(row)
                    continue
                if len(seen) >= limit:
                    break
                seen.add(row)
                emitted.append(row)
            expected.extend(dict(zip(batch.schema, row))
                            for row in emitted)
            if len(seen) >= limit:
                accepting = False
        assert sink.rows == expected
        assert len({tuple(sorted((v.value, str(t)) for v, t in r.items()))
                    for r in sink.rows}) <= limit

    @STANDARD_SETTINGS
    @given(batch_sequences())
    def test_limit_none_is_pass_through(self, stream):
        op, sink = Limit(None), _Sink()
        op.connect(sink)
        everything = []
        for batch in stream:
            op.on_batch(batch, 0)
            everything.extend(batch.to_bindings())
        assert sink.rows == everything
