"""Tests for conjunctive-join execution modes (parallel vs bound)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mediation.network import GridVineNetwork
from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import Literal, URI, Variable
from repro.rdf.triples import Triple
from repro.schema.model import Schema

X, Y = Variable("x"), Variable("y")


class TestSubstitute:
    def test_substitutes_bound_variables(self):
        pattern = TriplePattern(X, URI("S#len"), Y)
        ground = pattern.substitute({X: URI("S:e1")})
        assert ground.subject == URI("S:e1")
        assert ground.object == Y

    def test_unbound_variables_survive(self):
        pattern = TriplePattern(X, URI("S#len"), Y)
        assert pattern.substitute({}) == pattern

    def test_irrelevant_bindings_ignored(self):
        pattern = TriplePattern(X, URI("S#len"), Literal("v"))
        z = Variable("z")
        assert pattern.substitute({z: URI("nope")}) == pattern


def deploy(num_entries=30, num_selected=5, seed=3):
    net = GridVineNetwork.build(num_peers=24, seed=seed)
    schema = Schema("S", ["org", "len", "gene"], domain="jm")
    net.insert_schema(schema)
    triples = []
    for i in range(num_entries):
        organism = "Aspergillus" if i < num_selected else "Yeast"
        triples.append(Triple(URI(f"S:e{i}"), URI("S#org"),
                              Literal(organism)))
        triples.append(Triple(URI(f"S:e{i}"), URI("S#len"),
                              Literal(str(100 + i))))
        triples.append(Triple(URI(f"S:e{i}"), URI("S#gene"),
                              Literal(f"g{i % 7}")))
    net.insert_triples(triples)
    net.settle()
    return net


def set_mode(net, mode):
    for peer in net.peers.values():
        peer.join_mode = mode


TWO_PATTERN = ('SearchFor(x?, y? : (x?, S#org, "Aspergillus") '
               'AND (x?, S#len, y?))')
THREE_PATTERN = ('SearchFor(x?, y?, z? : (x?, S#org, "Aspergillus") '
                 'AND (x?, S#len, y?) AND (x?, S#gene, z?))')


class TestBoundJoin:
    def test_two_pattern_equivalence(self):
        net = deploy()
        set_mode(net, "parallel")
        parallel = net.search_for(TWO_PATTERN, strategy="local")
        set_mode(net, "bound")
        bound = net.search_for(TWO_PATTERN, strategy="local")
        assert parallel.results == bound.results
        assert bound.result_count == 5

    def test_three_pattern_equivalence(self):
        net = deploy()
        set_mode(net, "parallel")
        parallel = net.search_for(THREE_PATTERN, strategy="local")
        set_mode(net, "bound")
        bound = net.search_for(THREE_PATTERN, strategy="local")
        assert parallel.results == bound.results
        assert bound.result_count == 5

    def test_bound_ships_fewer_values(self):
        net = deploy(num_entries=40, num_selected=3)
        set_mode(net, "parallel")
        net.network.metrics.reset()
        net.search_for(TWO_PATTERN, strategy="local")
        parallel_shipped = net.metrics_snapshot()["values_shipped"]
        set_mode(net, "bound")
        net.network.metrics.reset()
        net.search_for(TWO_PATTERN, strategy="local")
        bound_shipped = net.metrics_snapshot()["values_shipped"]
        assert bound_shipped < parallel_shipped

    def test_empty_selective_side_short_circuits(self):
        net = deploy(num_selected=0)
        set_mode(net, "bound")
        out = net.search_for(TWO_PATTERN, strategy="local")
        assert out.result_count == 0

    def test_fanout_cap_falls_back_to_unbound(self):
        net = deploy(num_entries=40, num_selected=30)
        for peer in net.peers.values():
            peer.join_mode = "bound"
            peer.bound_join_fanout_cap = 4  # force the fallback
        out = net.search_for(TWO_PATTERN, strategy="local")
        assert out.result_count == 30

    def test_single_pattern_unaffected_by_mode(self):
        net = deploy()
        set_mode(net, "bound")
        out = net.search_for(
            'SearchFor(x? : (x?, S#org, "Aspergillus"))',
            strategy="local")
        assert out.result_count == 5

    def test_bound_join_with_reformulation(self):
        net = deploy()
        target = Schema("T", ["species", "length"], domain="jm")
        net.insert_schema(target)
        net.insert_triples([
            Triple(URI("T:1"), URI("T#species"), Literal("Aspergillus")),
            Triple(URI("T:1"), URI("T#length"), Literal("777")),
        ])
        net.create_mapping(net.peers[net.peer_ids()[0]] and
                           Schema("S", ["org", "len", "gene"],
                                  domain="jm"),
                           target,
                           [("org", "species"), ("len", "length")])
        net.settle()
        set_mode(net, "bound")
        out = net.search_for(TWO_PATTERN, strategy="iterative")
        assert (URI("T:1"), Literal("777")) in out.results
        assert out.result_count == 6

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 100))
    def test_mode_equivalence_property(self, num_selected, seed):
        rng = random.Random(seed)
        net = deploy(num_entries=20,
                     num_selected=min(num_selected, 20),
                     seed=rng.randrange(1000))
        set_mode(net, "parallel")
        parallel = net.search_for(THREE_PATTERN, strategy="local")
        set_mode(net, "bound")
        bound = net.search_for(THREE_PATTERN, strategy="local")
        assert parallel.results == bound.results


class TestQueryOutcomeMessages:
    def test_messages_counted_per_query(self):
        net = deploy()
        out = net.search_for(
            'SearchFor(x? : (x?, S#org, "Aspergillus"))',
            strategy="local")
        assert out.messages >= 0
        # a second identical query costs a comparable amount
        again = net.search_for(
            'SearchFor(x? : (x?, S#org, "Aspergillus"))',
            strategy="local")
        assert abs(again.messages - out.messages) <= 12
