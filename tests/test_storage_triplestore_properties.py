"""Property tests for :class:`TripleStore`: ``match`` row dedup and
group apply.

``match`` deduplicates equal rows (the same row can be produced by
several LIKE matches) with the row tuple itself as the key.  The
property under test, read through ``dict(zip(pattern.schema, row))``
views: deduplication may only merge *equal* bindings — it must never
drop a distinct one, and the surviving list must be duplicate-free.
The reference semantics is the brute-force evaluation over every
stored triple.

Buckets sort with one key per triple (``Triple.sort_key``).  Over
triples whose URIs and literals share values, that key must order
exactly as the tuple of terms compares, and ``match`` rows must come
back in that order, before and after later writes.

A peer applies each key group of a write with one ``add(*group)``;
applied as groups, a script of groups and removes must leave the store
exactly as the same triples added one at a time.
"""

from hypothesis import given
from strategies import (
    QUICK_SETTINGS,
    STANDARD_SETTINGS,
    key_group_scripts,
    patterns,
    triple_sets,
)

from repro.mediation.peer import GridVinePeer
from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import Variable
from repro.rdf.triples import ALL_POSITIONS, Triple
from repro.storage.triplestore import TripleStore
from repro.util.keys import Key


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


def apply_script(store, script, grouped):
    """Run a key-group script on ``store``; returns what each step
    returned (a group's result is whether any of its triples was new).
    """
    returned = []
    for action, arg in script:
        if action == "remove":
            returned.append(store.remove(arg))
        elif grouped:
            returned.append(store.add(*arg))
        else:
            returned.append(any([store.add(t) for t in arg]))
    return returned


def store_state(store):
    """Everything group apply must reproduce, orders included: the
    copy counts, the version and digest, and what the index probes
    serve for every stored term — read through the probes, which
    build the indexes they need."""
    return (list(store._copies.items()),
            store.version,
            store.digest("n0"),
            [store.by_position(pos, triple.at(pos))
             for triple in store.all_triples() for pos in ALL_POSITIONS],
            [store.match(pattern) for pattern in probe_patterns(store)])


def probe_patterns(store):
    """The full wildcard plus one pattern per stored term and position."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    found = [TriplePattern(x, y, z)]
    for triple in store.all_triples():
        found += [TriplePattern(triple.subject, y, z),
                  TriplePattern(x, triple.predicate, z),
                  TriplePattern(x, y, triple.object)]
    return found


def rows_in_term_order(store, pattern):
    """Reference: ``pattern``'s rows over the stored triples sorted by
    their tuple of terms, first occurrence of each."""
    rows = []
    for triple in sorted(store.all_triples(), key=Triple.as_tuple):
        bindings = pattern.matches(triple)
        if bindings is not None:
            row = tuple(bindings[name] for name in pattern.schema)
            if row not in rows:
                rows.append(row)
    return rows


class TestSortKeyProperty:
    @STANDARD_SETTINGS
    @given(triple_sets())
    def test_key_orders_as_the_terms_compare(self, triple_list):
        distinct = list(dict.fromkeys(triple_list))
        expected = sorted(distinct, key=Triple.as_tuple)
        assert sorted(distinct, key=Triple.sort_key) == expected
        assert sorted(distinct) == expected

    @STANDARD_SETTINGS
    @given(triple_sets(), triple_sets(), patterns())
    def test_match_rows_keep_the_term_order(self, first, later, pattern):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        # The generated pattern, the no-constant fallback, and one
        # bucket probe per stored predicate.
        probes = [pattern, TriplePattern(x, y, z)] + [
            TriplePattern(x, predicate, z) for predicate in
            dict.fromkeys(triple.predicate for triple in first + later)]
        store = TripleStore()
        store.add(*first)
        for probe in probes:
            assert store.match(probe) == rows_in_term_order(store, probe)
        # Later writes append to built buckets, which sort again.
        store.add(*later)
        for probe in probes:
            assert store.match(probe) == rows_in_term_order(store, probe)


class TestGroupApplyProperty:
    @STANDARD_SETTINGS
    @given(key_group_scripts())
    def test_groups_equal_one_at_a_time(self, script):
        grouped, single = TripleStore(), TripleStore()
        assert (apply_script(grouped, script, grouped=True)
                == apply_script(single, script, grouped=False))
        assert store_state(grouped) == store_state(single)

    @STANDARD_SETTINGS
    @given(key_group_scripts())
    def test_peer_group_insert_equals_one_at_a_time(self, script):
        """``local_insert(key, *group)`` at a mediation peer: the same
        bucket and database as one ``local_insert`` per triple."""
        grouped = GridVinePeer("g", Key("0"))
        single = GridVinePeer("s", Key("0"))
        key = Key("01")
        for action, arg in script:
            if action == "remove":
                assert (grouped.local_remove(key, arg)
                        == single.local_remove(key, arg))
                continue
            grouped.local_insert(key, *arg)
            for triple in arg:
                single.local_insert(key, triple)
        assert grouped.store == single.store
        assert store_state(grouped.db) == store_state(single.db)
