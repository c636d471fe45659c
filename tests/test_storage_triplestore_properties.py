"""Property tests for :class:`TripleStore.match` row dedup.

``match`` deduplicates equal rows (the same row can be produced by
several LIKE matches) with the row tuple itself as the key.  The
property under test, read through ``dict(zip(pattern.schema, row))``
views: deduplication may only merge *equal* bindings — it must never
drop a distinct one, and the surviving list must be duplicate-free.
The reference semantics is the brute-force evaluation over every
stored triple.
"""

from hypothesis import given
from strategies import (
    QUICK_SETTINGS,
    STANDARD_SETTINGS,
    patterns,
    triple_sets,
)

from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import Variable
from repro.storage.triplestore import TripleStore


def brute_force_bindings(store, pattern):
    """Reference: distinct bindings by *dict equality* over all triples."""
    distinct = []
    for triple in store.all_triples():
        bindings = pattern.matches(triple)
        if bindings is not None and bindings not in distinct:
            distinct.append(bindings)
    return distinct


class TestMatchDedupProperty:
    @STANDARD_SETTINGS
    @given(triple_sets(), patterns())
    def test_dedup_never_drops_distinct_bindings(self, triple_list,
                                                 pattern):
        store = TripleStore()
        for triple in triple_list:
            store.add(triple)
        rows = store.match(pattern)
        if not pattern.variables():
            # Boolean semantics: the unit row iff any triple matches.
            expected = ([()] if any(pattern.matches(t) is not None
                                    for t in triple_list) else [])
            assert rows == expected
            return
        got = [dict(zip(pattern.schema, row)) for row in rows]
        reference = brute_force_bindings(store, pattern)
        # Every distinct binding survives dedup ...
        for binding in reference:
            assert binding in got
        # ... and nothing is duplicated or invented.
        assert len(got) == len(reference)
        for binding in got:
            assert binding in reference

    @QUICK_SETTINGS
    @given(triple_sets(max_size=8))
    def test_full_wildcard_returns_one_binding_per_triple(self,
                                                          triple_list):
        store = TripleStore()
        for triple in triple_list:
            store.add(triple)
        pattern = TriplePattern(Variable("x"), Variable("y"),
                                Variable("z"))
        got = store.match(pattern)
        assert len(got) == len(brute_force_bindings(store, pattern))
