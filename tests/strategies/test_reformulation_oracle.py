"""Every reformulation strategy against one generated oracle.

The planner, the iterative operator and the recursive handler take
their translations from one step, ``reformulation.planner.
translations``, and differ only in where it runs and which policy they
pass it.  This module checks what that rule implies, over generated
mapping graphs (cycles, non-inverse cycles, dead, deprecated and
converging edges, forests) and 1–2-pattern queries.

Offline, at ``STANDARD_SETTINGS``:

* the step is a filter: in the caller's order, it yields the active
  mappings that rewrite the query into a schema not visited, each
  translation once per ``seen`` set;
* (i) ``plan_reformulations`` is the reference closure — every query
  reachable within ``max_hops`` exactly once, its ``hops`` the shortest
  distance, which the reference finds by relaxation, not by BFS.

On a fault-free 8–16-peer overlay with WAN latency, at
``SLOW_SETTINGS``:

* (ii) ``engine`` returns the truth: the closure evaluated against the
  generated corpus, with no overlay involved;
* (iii) on forests, ``local ⊆ iterative == recursive == engine``, in rows
  and in reformulations explored;
* (iv) on every graph, ``local ⊆ iterative == engine``, in rows and
  in reformulations explored, and ``local ⊆ recursive ⊆ engine``;
* (v) ``auto``, with a prune threshold below every yield, returns the
  rows of the strategy its ``PlanDecision`` names (checked on forests,
  where every strategy's answer is independent of message order).

The gap the subsets in (iv) leave is the stated difference between
the strategies (``docs/ARCHITECTURE.md``): recursive's visited-schema
rule, its unfolding through the mappings stored where its requests
land, and the ``ttl`` of the first request to reach a peer.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.mapping.graph import MappingGraph
from repro.mapping.unfolding import query_schemas, translate_query
from repro.mediation.network import GridVineNetwork
from repro.rdf.terms import Variable
from repro.reformulation.planner import plan_reformulations, translations
from repro.simnet.latency import LogNormalWANLatency

from strategies import SLOW_SETTINGS, STANDARD_SETTINGS, reformulation_cases

ONLINE = ("local", "iterative", "recursive")


def reference_closure(query, mappings, max_hops=None):
    """``{query: shortest distance}`` for every query reachable through
    active mappings within ``max_hops`` (``None``: unbounded).

    Relaxes every (query, mapping) pair until nothing changes — no
    frontier, no schema index, no step function.
    """
    active = [m for m in mappings if m.active]
    distance = {query: 0}
    changed = True
    while changed:
        changed = False
        for current, hops in list(distance.items()):
            if max_hops is not None and hops >= max_hops:
                continue
            for mapping in active:
                translated = translate_query(current, mapping)
                if (translated is not None
                        and hops + 1 < distance.get(translated, math.inf)):
                    distance[translated] = hops + 1
                    changed = True
    return distance


def _extend(pattern, triple, binding):
    extended = dict(binding)
    for term, value in zip(
            (pattern.subject, pattern.predicate, pattern.object),
            (triple.subject, triple.predicate, triple.object)):
        if isinstance(term, Variable):
            if extended.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return extended


def evaluate(query, triples):
    """The rows of ``query`` over ``triples``, by nested loops."""
    bindings = [{}]
    for pattern in query.patterns:
        bindings = [extended for binding in bindings for triple in triples
                    for extended in [_extend(pattern, triple, binding)]
                    if extended is not None]
    return {tuple(binding[v] for v in query.distinguished)
            for binding in bindings}


def truth(case):
    """The plan's answer, computed from the corpus alone."""
    rows = set()
    for query in reference_closure(case.query, case.mappings, case.max_hops):
        rows |= evaluate(query, case.triples)
    return rows


# ----------------------------------------------------------------------
# Offline: the step and the plan
# ----------------------------------------------------------------------

@STANDARD_SETTINGS
@given(case=reformulation_cases(), data=st.data())
def test_the_step_is_a_filter(case, data):
    schemas = sorted({m.target_schema for m in case.mappings})
    visited = data.draw(st.sets(st.sampled_from(schemas)) if schemas
                        else st.just(set()))
    query = case.query
    eligible = [(m, translate_query(query, m)) for m in case.mappings
                if m.active and m.target_schema not in visited]
    eligible = [(m, t) for m, t in eligible if t is not None]

    assert list(translations(query, case.mappings, None, visited)) == eligible

    seen = {query}
    once = list(translations(query, case.mappings, seen, visited))
    firsts = {}
    for mapping, translated in eligible:
        if translated != query:
            firsts.setdefault(translated, mapping)
    assert once == [(m, t) for t, m in firsts.items()]
    assert seen == {query, *firsts}
    assert list(translations(query, case.mappings, seen, visited)) == []


@STANDARD_SETTINGS
@given(case=reformulation_cases())
def test_the_plan_is_the_shortest_distance_closure(case):
    plan = plan_reformulations(case.query, MappingGraph(case.mappings),
                               case.max_hops)
    distance = reference_closure(case.query, case.mappings, case.max_hops)
    assert len(plan) == len(distance)
    assert {r.query: r.hops for r in plan} == distance
    assert [r.hops for r in plan] == sorted(r.hops for r in plan)
    for reformulation in plan:
        query = case.query
        for mapping in reformulation.path:
            assert mapping.active
            assert mapping.source_schema in query_schemas(query)
            query = translate_query(query, mapping)
        assert query == reformulation.query


# ----------------------------------------------------------------------
# On an overlay: every strategy
# ----------------------------------------------------------------------

def deploy(case):
    """The case on a fault-free WAN overlay; returns the network, an
    engine that saw every mapping event, and the querying peer."""
    net = GridVineNetwork.build(num_peers=case.num_peers, seed=case.seed,
                                latency=LogNormalWANLatency())
    engine = net.create_engine(max_hops=case.max_hops)
    origin = net.peer_ids()[0]
    net.insert_triples(case.triples, origin=origin)
    for mapping in case.mappings:
        net.insert_mapping(mapping.with_deprecated(False), origin=origin)
    net.settle()
    for mapping in case.mappings:
        if mapping.deprecated:
            net.deprecate_mapping(mapping.with_deprecated(False))
    net.settle()
    return net, engine, origin


def run(case, net, engine, origin):
    """``{strategy: outcome}`` for the three online strategies and the
    engine, each complete."""
    outcomes = {strategy: net.search_for(case.query, strategy=strategy,
                                         max_hops=case.max_hops,
                                         origin=origin)
                for strategy in ONLINE}
    outcomes["engine"] = engine.search_for(case.query, origin=origin)
    for strategy, outcome in outcomes.items():
        assert outcome.complete, strategy
    return outcomes


@SLOW_SETTINGS
@given(case=reformulation_cases(forest=True))
def test_on_a_forest_every_strategy_returns_the_plan(case):
    net, engine, origin = deploy(case)
    outcomes = run(case, net, engine, origin)
    rows = {s: outcome.results for s, outcome in outcomes.items()}
    explored = {s: outcome.reformulations_explored
                for s, outcome in outcomes.items()}
    planned = len(reference_closure(case.query, case.mappings,
                                    case.max_hops)) - 1

    assert rows["engine"] == truth(case)
    assert rows["local"] <= rows["iterative"]
    assert rows["iterative"] == rows["recursive"] == rows["engine"]
    assert (explored["iterative"] == explored["recursive"]
            == explored["engine"] == planned)

    peer = net.peer(origin)
    peer.receive_synopses([p.synopsis_digest() for p in net.peers.values()])
    # keep every reformulation: live pruning would drop the ones the
    # digests estimate empty, which the other strategies still explore
    peer.optimizer.keep_reformulation = lambda query, confidence: True
    auto = net.search_for(case.query, strategy="auto",
                          max_hops=case.max_hops, origin=origin)
    assert auto.results == rows[auto.decision.strategy]


@SLOW_SETTINGS
@given(case=reformulation_cases())
def test_every_strategy_answers_within_the_plan(case):
    net, engine, origin = deploy(case)
    outcomes = run(case, net, engine, origin)
    local, iterative, recursive, engine_rows = (
        outcomes[s].results for s in (*ONLINE, "engine"))
    bounded = reference_closure(case.query, case.mappings, case.max_hops)

    assert engine_rows == truth(case)
    assert local <= iterative == engine_rows
    assert (outcomes["iterative"].reformulations_explored
            == outcomes["engine"].reformulations_explored
            == len(bounded) - 1)
    assert local <= recursive <= engine_rows
    for strategy in ("iterative", "recursive"):
        assert set(outcomes[strategy].results_by_query) <= set(bounded)
