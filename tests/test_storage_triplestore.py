"""Tests for the per-peer triple database."""

from hypothesis import given
from hypothesis import strategies as st

from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import Literal, URI, Variable
from repro.rdf.triples import Position, Triple
from repro.storage.triplestore import TripleStore


def t(s, p, o):
    return Triple(URI(s), URI(p), Literal(o))


def make_store(*triples):
    store = TripleStore()
    for triple in triples:
        store.add(triple)
    return store


class TestMutation:
    def test_add_and_count(self):
        store = make_store(t("s", "p", "o"))
        assert store.count() == 1
        assert t("s", "p", "o") in store

    def test_add_duplicate_is_noop(self):
        store = TripleStore()
        assert store.add(t("s", "p", "o")) is True
        assert store.add(t("s", "p", "o")) is False
        assert store.count() == 1

    def test_remove(self):
        store = make_store(t("s", "p", "o"))
        assert store.remove(t("s", "p", "o")) is True
        assert store.count() == 0
        assert store.remove(t("s", "p", "o")) is False

    def test_remove_cleans_indexes(self):
        store = make_store(t("s", "p", "o"))
        store.remove(t("s", "p", "o"))
        assert store.by_position(Position.SUBJECT, URI("s")) == set()
        assert store.by_position(Position.PREDICATE, URI("p")) == set()

    def test_a_copy_outlives_the_removal_of_another(self):
        # The bucket store holds a triple once per key it lands under;
        # the database keeps it while any of those copies remains.
        store = make_store(t("s", "p", "o"), t("s", "p", "o"),
                           t("s", "q", "o"))
        assert store.remove(t("s", "p", "o")) is False
        assert t("s", "p", "o") in store
        assert store.count() == 2
        assert store.match(TriplePattern(URI("s"), URI("p"),
                                         Variable("z"))) == [(Literal("o"),)]
        assert store.synopsis.version == 2  # untouched by the extra copy
        assert store.remove(t("s", "p", "o")) is True
        assert t("s", "p", "o") not in store
        assert store.by_position(Position.PREDICATE, URI("p")) == set()
        assert store.match(TriplePattern(URI("s"), URI("p"),
                                         Variable("z"))) == []

    def test_the_last_copy_empties_the_store_and_its_indexes(self):
        store = make_store(t("s", "p", "o"), t("s", "p", "o"))
        assert store.remove(t("s", "p", "o")) is False
        assert store.remove(t("s", "p", "o")) is True
        assert store.count() == 0
        assert store.all_triples() == []
        for position, term in ((Position.SUBJECT, URI("s")),
                               (Position.PREDICATE, URI("p")),
                               (Position.OBJECT, Literal("o"))):
            assert store.by_position(position, term) == set()
        assert store.remove(t("s", "p", "o")) is False

    def test_clear(self):
        store = make_store(t("a", "b", "c"), t("d", "e", "f"))
        store.clear()
        assert store.count() == 0


class TestIndexes:
    def test_by_position(self):
        s = make_store(t("s1", "p", "o1"), t("s2", "p", "o2"))
        assert len(s.by_position(Position.PREDICATE, URI("p"))) == 2
        assert len(s.by_position(Position.SUBJECT, URI("s1"))) == 1
        assert s.by_position(Position.OBJECT, Literal("o1")) == {
            t("s1", "p", "o1")}


def match_views(store, pattern):
    """``store.match(pattern)`` read as one binding dict per row."""
    return [dict(zip(pattern.schema, row)) for row in store.match(pattern)]


class TestMatch:
    def test_all_variables_binds_everything(self):
        s = make_store(t("s", "p", "o"))
        pattern = TriplePattern(Variable("x"), Variable("y"), Variable("z"))
        assert s.match(pattern) == [(URI("s"), URI("p"), Literal("o"))]
        bindings = match_views(s, pattern)
        assert bindings == [{Variable("x"): URI("s"),
                             Variable("y"): URI("p"),
                             Variable("z"): Literal("o")}]

    def test_constant_probe(self):
        s = make_store(t("s1", "p", "o1"), t("s2", "q", "o2"))
        bindings = match_views(s, TriplePattern(Variable("x"), URI("p"),
                                                Variable("y")))
        assert bindings == [{Variable("x"): URI("s1"),
                             Variable("y"): Literal("o1")}]

    def test_like_pattern_matching(self):
        s = make_store(t("s1", "p", "Aspergillus niger"),
                       t("s2", "p", "Saccharomyces"))
        bindings = match_views(s, TriplePattern(Variable("x"), URI("p"),
                                                Literal("%Aspergillus%")))
        assert [b[Variable("x")] for b in bindings] == [URI("s1")]

    def test_boolean_query_semantics(self):
        s = make_store(t("s", "p", "o"))
        # The unit row: the pattern holds, and binds nothing.
        assert s.match(TriplePattern(URI("s"), URI("p"),
                                     Literal("o"))) == [()]
        assert s.match(TriplePattern(URI("s"), URI("p"),
                                     Literal("nope"))) == []

    def test_repeated_variable_must_bind_consistently(self):
        s = TripleStore()
        s.add(Triple(URI("x"), URI("p"), URI("x")))
        s.add(Triple(URI("x"), URI("p"), URI("y")))
        x = Variable("v")
        bindings = match_views(s, TriplePattern(x, URI("p"), x))
        assert bindings == [{x: URI("x")}]

    def test_match_uses_most_selective_index(self):
        # Functional check: results identical regardless of which
        # constant is most selective.
        s = make_store(*[t(f"s{i}", "common", "o") for i in range(20)],
                       t("rare", "common", "o"))
        pattern = TriplePattern(URI("rare"), URI("common"), Variable("z"))
        assert match_views(s, pattern) == [{Variable("z"): Literal("o")}]


names = st.text(alphabet="abcdef", min_size=1, max_size=4)


class TestStoreProperties:
    @given(st.lists(st.tuples(names, names, names), max_size=30))
    def test_count_matches_distinct_inserts(self, raw):
        triples = [t(*row) for row in raw]
        store = TripleStore()
        for triple in triples:
            store.add(triple)
        assert store.count() == len(set(triples))

    @given(st.lists(st.tuples(names, names, names), max_size=30))
    def test_match_all_returns_everything(self, raw):
        triples = {t(*row) for row in raw}
        store = TripleStore()
        for triple in triples:
            store.add(triple)
        pattern = TriplePattern(Variable("s"), Variable("p"), Variable("o"))
        assert len(store.match(pattern)) == len(triples)

    @given(st.lists(st.tuples(names, names, names), min_size=1,
                    max_size=30))
    def test_add_remove_round_trip(self, raw):
        triples = [t(*row) for row in raw]
        store = TripleStore()
        for triple in triples:
            store.add(triple)
        for triple in triples:  # once per added copy
            store.remove(triple)
        assert store.count() == 0
        assert store.match(TriplePattern(
            Variable("s"), Variable("p"), Variable("o"))) == []
