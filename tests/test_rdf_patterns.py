"""Tests for triple patterns and conjunctive queries."""

import copy
import pickle

import pytest

import repro.rdf.patterns as patterns_module

from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
from repro.rdf.terms import Literal, URI, Variable
from repro.rdf.triples import Position, Triple

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestPatternConstruction:
    def test_literal_subject_rejected(self):
        with pytest.raises(TypeError):
            TriplePattern(Literal("s"), URI("p"), X)

    def test_literal_predicate_rejected(self):
        with pytest.raises(TypeError):
            TriplePattern(X, Literal("p"), Y)

    def test_variables_and_constants(self):
        p = TriplePattern(X, URI("p"), Literal("%v%"))
        assert p.variables() == {X}
        assert set(p.constants()) == {Position.PREDICATE, Position.OBJECT}

    def test_replace(self):
        p = TriplePattern(X, URI("p"), Y)
        q = p.replace(Position.PREDICATE, URI("q"))
        assert q.predicate == URI("q")
        assert p.predicate == URI("p")  # original untouched

    def test_immutability(self):
        p = TriplePattern(X, URI("p"), Y)
        with pytest.raises(AttributeError):
            p.subject = Y


class TestRoutingPosition:
    def test_predicate_chosen_when_object_is_like(self):
        # The paper's example: object %Aspergillus% is not routable.
        p = TriplePattern(X, URI("EMBL#Organism"), Literal("%Aspergillus%"))
        assert p.routing_position() is Position.PREDICATE
        assert p.routing_constant() == URI("EMBL#Organism")

    def test_subject_most_specific(self):
        p = TriplePattern(URI("s"), URI("p"), Literal("o"))
        assert p.routing_position() is Position.SUBJECT

    def test_object_beats_predicate(self):
        p = TriplePattern(X, URI("p"), Literal("o"))
        assert p.routing_position() is Position.OBJECT

    def test_all_variable_pattern_unroutable(self):
        with pytest.raises(ValueError):
            TriplePattern(X, Y, Z).routing_position()

    def test_only_like_constant_unroutable(self):
        with pytest.raises(ValueError):
            TriplePattern(X, Y, Literal("%v%")).routing_position()


#: one pattern per routing shape: an exact constant, a ``prefix%``
#: literal with nothing exact beside it, and a ``%like%`` literal
#: beside an exact predicate
ROUTING_SHAPES = {
    "exact": ((X, URI("p"), Literal("o")), Position.OBJECT, "exact"),
    "prefix": ((X, Y, Literal("Asp%")), Position.OBJECT, "prefix"),
    "like": ((X, URI("p"), Literal("%Asp%")), Position.PREDICATE,
             "exact"),
}


def _counting_is_ground(monkeypatch):
    """Count the routing analysis' term checks: three per computation
    (one per position)."""
    calls = []
    real = patterns_module.is_ground

    def counting(term):
        calls.append(term)
        return real(term)

    monkeypatch.setattr(patterns_module, "is_ground", counting)
    return calls


class TestRouteCache:
    @pytest.mark.parametrize("shape", sorted(ROUTING_SHAPES))
    def test_cached_route_equals_a_fresh_patterns(self, shape):
        terms, position, mode = ROUTING_SHAPES[shape]
        p = TriplePattern(*terms)
        for _ in range(3):
            assert p.routing_position() is position
            assert p.routing_mode() == mode
            assert p.routing_constant() is p.at(position)
        fresh = TriplePattern(*terms)
        assert fresh.routing_position() is p.routing_position()
        assert fresh.routing_mode() == p.routing_mode()
        assert fresh.routing_constant() is p.routing_constant()

    @pytest.mark.parametrize("shape", sorted(ROUTING_SHAPES))
    def test_each_pattern_computes_its_route_once(self, shape,
                                                  monkeypatch):
        calls = _counting_is_ground(monkeypatch)
        p = TriplePattern(*ROUTING_SHAPES[shape][0])
        for _ in range(4):
            p.routing_position()
            p.routing_mode()
            p.routing_constant()
        assert len(calls) == 3

    def test_a_local_query_routes_each_pattern_once(self, fig2_network,
                                                    monkeypatch):
        net, _embl, _emp = fig2_network
        query = ConjunctiveQuery(
            [TriplePattern(X, URI("EMBL#Organism"), Literal("%Asp%"))],
            [X])
        peer = net.peer(net.peer_ids()[0])
        calls = _counting_is_ground(monkeypatch)
        future = peer.search_for(query, strategy="local")
        net.settle()
        assert future.result().result_count == 2
        assert len(calls) == 3

    def test_an_unroutable_pattern_raises_on_every_call(self):
        p = TriplePattern(X, Y, Literal("%v%"))
        for method in (p.routing_position, p.routing_mode,
                       p.routing_position, p.routing_constant):
            with pytest.raises(ValueError, match="no routable constant"):
                method()

    @pytest.mark.parametrize("clone", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_pickle_and_copy_drop_the_cache(self, clone):
        p = TriplePattern(X, URI("p"), Literal("o"))
        p.routing_position()
        twin = clone(p)
        assert twin == p and twin is not p
        assert not hasattr(twin, "_route")
        assert twin.routing_position() is p.routing_position()


class TestPatternMatching:
    triple = Triple(URI("EMBL:A1"), URI("EMBL#Organism"),
                    Literal("Aspergillus niger"))

    def test_binds_variables(self):
        p = TriplePattern(X, URI("EMBL#Organism"), Y)
        assert p.matches(self.triple) == {
            X: URI("EMBL:A1"), Y: Literal("Aspergillus niger")}

    def test_like_object(self):
        p = TriplePattern(X, URI("EMBL#Organism"), Literal("%niger%"))
        assert p.matches(self.triple) == {X: URI("EMBL:A1")}

    def test_mismatch_returns_none(self):
        p = TriplePattern(X, URI("Other#Pred"), Y)
        assert p.matches(self.triple) is None

    def test_prior_bindings_respected(self):
        p = TriplePattern(X, URI("EMBL#Organism"), Y)
        consistent = p.matches(self.triple, {X: URI("EMBL:A1")})
        assert consistent is not None
        conflicting = p.matches(self.triple, {X: URI("EMBL:A2")})
        assert conflicting is None

    def test_uri_object_exact_match(self):
        triple = Triple(URI("s"), URI("p"), URI("o"))
        assert TriplePattern(X, URI("p"), URI("o")).matches(triple) == {
            X: URI("s")}
        assert TriplePattern(X, URI("p"), URI("other")).matches(triple) \
            is None


class TestConjunctiveQuery:
    def test_needs_patterns(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([], [X])

    def test_needs_distinguished(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([TriplePattern(X, URI("p"), Y)], [])

    def test_distinguished_must_appear(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([TriplePattern(X, URI("p"), Y)], [Z])

    def test_variables_union(self):
        q = ConjunctiveQuery(
            [TriplePattern(X, URI("p"), Y),
             TriplePattern(Y, URI("q"), Z)],
            [X, Z],
        )
        assert q.variables() == {X, Y, Z}

    def test_str_matches_paper_syntax(self):
        q = ConjunctiveQuery(
            [TriplePattern(X, URI("EMBL#Organism"),
                           Literal("%Aspergillus%"))], [X])
        assert str(q) == (
            'SearchFor(x? : (x?, <EMBL#Organism>, "%Aspergillus%"))')

    def test_hashable_for_dedup(self):
        q1 = ConjunctiveQuery([TriplePattern(X, URI("p"), Y)], [X])
        q2 = ConjunctiveQuery([TriplePattern(X, URI("p"), Y)], [X])
        assert len({q1, q2}) == 1
