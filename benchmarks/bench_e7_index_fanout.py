"""E7 (ablation) — §2.2/§2.3: triple indexing and routing-key choice.

Paper claims: a triple insertion triggers exactly three overlay
``Update()`` operations (one per position key); constraint searches on
*any* position resolve with one overlay lookup; and the most specific
constant is used for routing (the predicate in the Fig. 2 example,
because the object is a ``%...%`` pattern).

The bench verifies the 3x fan-out accounting, per-position query
success, and ablates the routing-key choice: routing by LIKE-wildcard
objects (forbidden by the rule) would hit the wrong key space and lose
every answer, which is why the rule exists.
"""

from conftest import report, run_once
from record import record

from repro import GridVineNetwork, Literal, Schema, Triple, URI
from repro.mediation.keys import term_key
from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import Variable


def build(num_triples=60):
    net = GridVineNetwork.build(num_peers=48, seed=13)
    schema = Schema("S", ["organism", "length"], domain="e7")
    net.insert_schema(schema)
    triples = []
    for i in range(num_triples):
        triples.append(Triple(
            URI(f"S:entry{i}"), URI("S#organism"),
            Literal(f"Aspergillus strain {i}")))
    net.insert_triples(triples)
    net.settle()
    return net, triples


def test_e7_insertion_fanout_is_three(benchmark, scale):
    net, _ = build(num_triples=1)
    origin = net.peer_ids()[0]
    triple = Triple(URI("S:extra"), URI("S#organism"),
                    Literal("Aspergillus extra"))

    def run():
        before = net.metrics_snapshot()["messages_by_kind"]
        net.call("insert_triple", triple, origin=origin)
        net.settle()
        after = net.metrics_snapshot()["messages_by_kind"]
        return before, after

    before, after = run_once(benchmark, run)
    copies = sum(
        1 for peer in net.peers.values()
        for bucket in peer.store.values()
        for value in bucket
        if value == triple
    )
    report("E7", f"one mediation-layer insert -> {copies} stored copies "
                 f"(paper: 3 Update() operations, one per position key)")
    record("E7-fanout", scale=scale, runs=[
        {"copies": copies,
         "messages_by_kind": {kind: count - before.get(kind, 0)
                              for kind, count in sorted(after.items())
                              if count != before.get(kind, 0)}}])
    assert copies == 3


def test_e7_every_position_is_searchable(benchmark, scale):
    net, triples = build()
    target = triples[7]
    x = Variable("x")
    by_position = {
        "subject": TriplePattern(target.subject, Variable("p"), x),
        "predicate": TriplePattern(x, target.predicate,
                                   Literal("%strain 7%")),
        "object": TriplePattern(x, Variable("p"), target.object),
    }

    def run():
        results = {}
        for position, pattern in by_position.items():
            from repro.rdf.patterns import ConjunctiveQuery
            query = ConjunctiveQuery([pattern], [x])
            results[position] = net.search_for(query, strategy="local")
        return results

    results = run_once(benchmark, run)
    report("E7", "constraint search per position:")
    runs = []
    for position, outcome in results.items():
        routed_by = by_position[position].routing_position().value
        report("E7", f"  constrained on {position:<9} -> routed by "
                     f"{routed_by:<9} results={outcome.result_count}")
        runs.append({"constrained_on": position, "routed_by": routed_by,
                     "results": outcome.result_count,
                     "messages": outcome.messages})
    record("E7", scale=scale, runs=runs)
    assert all(outcome.result_count >= 1
               for outcome in results.values())


def test_e7_routing_key_ablation(benchmark, scale):
    """Route by the LIKE object instead of the rule's choice: the
    lookup lands on Hash('%strain 7%'), where nothing is stored."""
    net, triples = build()
    target = triples[7]

    def run():
        origin = net.peer_ids()[0]
        # correct rule: predicate key (object is a LIKE pattern)
        good, _ = net.call("retrieve", term_key(target.predicate),
                           origin=origin)
        # ablated rule: hash the wildcard literal itself
        bad, _ = net.call("retrieve", term_key(Literal("%strain 7%")),
                          origin=origin)
        return good, bad

    good, bad = run_once(benchmark, run)
    good_hits = sum(
        1 for value in (good.values or [])
        if isinstance(value, Triple)
    )
    bad_hits = len(bad.values or [])
    report("E7", f"routing by predicate key: {good_hits} candidate "
                 f"triples at destination")
    report("E7", f"routing by LIKE-object key: {bad_hits} values "
                 f"(wildcard hashes route nowhere useful)")
    record("E7-ablation", scale=scale, runs=[
        {"routed_by": "predicate", "hits": good_hits, "hops": good.hops},
        {"routed_by": "like-object", "hits": bad_hits, "hops": bad.hops}])
    assert good_hits >= len(triples)
    assert bad_hits == 0
