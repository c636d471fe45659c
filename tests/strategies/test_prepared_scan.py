"""Property tests: the prepared scan vs the generic reference matcher.

A :class:`~repro.rdf.patterns.TriplePattern` is prepared once into a
set-at-a-time scan (one comprehension per pattern shape) that
:meth:`TripleStore.match` runs over an index bucket.
``TriplePattern._match_generic`` — the position loop with consistency
checks — is the independent reference: whatever the shape, the store
must return exactly its rows, in sorted-triple order, first occurrence
of each.
"""

import pickle

from hypothesis import given

from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import URI, Literal, Variable
from repro.rdf.triples import Triple
from repro.storage.triplestore import TripleStore

from .patterns import patterns, triple_sets
from .settings import STANDARD_SETTINGS


def generic_rows(pattern, triples):
    """Reference: ordered, first-occurrence-deduplicated projection of
    ``_match_generic`` over the sorted distinct triples."""
    rows = []
    for triple in sorted(set(triples)):
        bindings = pattern._match_generic(triple, None)
        if bindings is not None:
            row = tuple(bindings[v] for v in pattern.schema)
            if row not in rows:
                rows.append(row)
    return rows


class TestPreparedScan:
    @STANDARD_SETTINGS
    @given(patterns(), triple_sets())
    def test_match_equals_generic_projection(self, pattern, triples):
        store = TripleStore()
        for triple in triples:
            store.add(triple)
        assert store.match(pattern) == generic_rows(pattern, triples)
        # A second evaluation runs the cached scan.
        assert store.match(pattern) == generic_rows(pattern, triples)

    @STANDARD_SETTINGS
    @given(patterns(), triple_sets(max_size=6))
    def test_matches_agrees_triple_by_triple(self, pattern, triples):
        for triple in triples:
            assert (pattern.matches(triple)
                    == pattern._match_generic(triple, None))

    @STANDARD_SETTINGS
    @given(patterns(), triple_sets(max_size=6))
    def test_prepared_pattern_pickles_unprepared(self, pattern, triples):
        prepared = pattern.prepared()
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone == pattern
        assert not hasattr(clone, "_prepared")
        assert clone.prepared()[:2] == prepared[:2]
        assert clone.prepared().distinct == prepared.distinct
        assert clone.prepared().scan(triples) == prepared.scan(triples)


def test_wildcards_meet_uris_and_exact_literals_do_not():
    x = Variable("x")
    store = TripleStore()
    store.add(Triple(URI("a"), URI("b"), URI("ab")))
    for constant, rows in ((Literal("%b%"), [(URI("a"),)]),
                           (Literal("a%"), [(URI("a"),)]),
                           (Literal("ab"), []),
                           (URI("ab"), [(URI("a"),)])):
        assert store.match(TriplePattern(x, URI("b"), constant)) == rows
