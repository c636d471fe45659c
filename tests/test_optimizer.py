"""Tests for the cost-based query optimizer.

Unit level: join order follows estimated cardinalities (and flips when
they flip), everything degrades to the static ``selectivity_rank``
behaviour with no statistics, strategy choice reacts to the mapping
knowledge in the digests.  Integration level: ``strategy="auto"`` on a
live deployment returns bit-identical results to the static iterative
reference while spending fewer messages.
"""

import random

import pytest

from repro.datagen import BioDatasetGenerator, QueryWorkloadGenerator
from repro.exec.operators import BoundJoin, selectivity_rank
from repro.mediation.network import GridVineNetwork
from repro.mediation.peer import GridVinePeer
from repro.pgrid.maintenance import MaintenanceProcess
from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
from repro.rdf.terms import URI, Variable
from repro.schema.model import Schema
from repro.stats.synopsis import MappingEdge, PeerSynopsis, PredicateDigest
from repro.util.keys import Key


def _peer():
    return GridVinePeer("origin", Key("0101"))


def _digest(peer_id, counts, mappings=(), version=1, path=""):
    """A synthetic digest: ``counts`` maps predicate -> triple count.

    ``path=""`` leaves key-space coverage unknown; pass e.g. ``"1"``
    (the complement of the test peer's ``"0101"``) to make the
    known digests cover the whole space, which is what authorizes
    absence-means-empty estimates.
    """
    return PeerSynopsis(
        peer_id=peer_id, version=version,
        triples=sum(counts.values()),
        predicates=tuple(
            PredicateDigest(predicate=p, triples=n,
                            distinct_subjects=max(1, n // 2),
                            distinct_objects=max(1, n // 2))
            for p, n in sorted(counts.items())
        ),
        mappings=tuple(mappings),
        path=path,
    )


def _covering_peer(peer):
    """Register digests whose paths + the peer's own cover the space."""
    # peer path "0101": digests at "1", "00", "011", "0100" complete
    # the cover together with the peer's own "0101".
    for i, path in enumerate(("1", "00", "011", "0100")):
        peer.synopses.register(_digest(f"cover{i}", {}, path=path,
                                       version=1))
    return peer


X = Variable("x")
Y = Variable("y")
WIDE = TriplePattern(X, URI("A#wide"), Variable("w"))
NARROW = TriplePattern(X, URI("A#narrow"), Y)
TWO_PATTERN = ConjunctiveQuery([WIDE, NARROW], [X])


class TestScanOrder:
    def test_order_follows_estimated_cardinality(self):
        peer = _peer()
        peer.synopses.register(_digest("n1", {"A#wide": 100,
                                              "A#narrow": 2}))
        assert peer.optimizer.scan_order(TWO_PATTERN) == [NARROW, WIDE]

    def test_order_flips_when_cardinalities_flip(self):
        peer = _peer()
        peer.synopses.register(_digest("n1", {"A#wide": 2,
                                              "A#narrow": 100}))
        assert peer.optimizer.scan_order(TWO_PATTERN) == [WIDE, NARROW]

    def test_no_statistics_falls_back_to_static_rank(self):
        peer = _peer()
        assert peer.optimizer.scan_order(TWO_PATTERN) is None
        # and the bound join then uses the historical static order
        join = BoundJoin(TWO_PATTERN, peer.bound_join_fanout_cap)
        assert join.ordered == sorted(TWO_PATTERN.patterns,
                                      key=selectivity_rank)

    def test_unestimable_predicates_sort_last_under_partial_coverage(self):
        peer = _peer()
        peer.synopses.register(_digest("n1", {"A#wide": 5}))
        mystery = TriplePattern(X, URI("Z#mystery"), Y)
        query = ConjunctiveQuery([mystery, WIDE], [X])
        # Partial coverage: Z#mystery could live on an unseen peer, so
        # it is unestimable (not zero) and sorts after known extents.
        assert not peer.optimizer.estimator.full_coverage()
        assert peer.optimizer.scan_order(query) == [WIDE, mystery]

    def test_absent_predicates_sort_first_under_full_coverage(self):
        peer = _covering_peer(_peer())
        peer.synopses.register(_digest("n1", {"A#wide": 5}))
        mystery = TriplePattern(X, URI("Z#mystery"), Y)
        query = ConjunctiveQuery([mystery, WIDE], [X])
        # Full coverage: every responsible peer is known and none
        # reports Z#mystery, so its extent is authoritatively empty.
        assert peer.optimizer.estimator.full_coverage()
        assert peer.optimizer.scan_order(query) == [mystery, WIDE]


class TestStrategyChoice:
    def test_fallback_without_statistics(self):
        decision = _peer().optimizer.choose_strategy(TWO_PATTERN,
                                                     max_hops=5)
        assert decision.fallback
        assert decision.strategy == "iterative"

    def test_local_when_no_mapping_edges(self):
        peer = _covering_peer(_peer())
        peer.synopses.register(_digest("n1", {"A#wide": 10,
                                              "A#narrow": 5}))
        decision = peer.optimizer.choose_strategy(TWO_PATTERN,
                                                  max_hops=5)
        assert not decision.fallback
        assert decision.strategy == "local"

    def test_local_when_all_targets_empty(self):
        peer = _covering_peer(_peer())
        peer.synopses.register(_digest(
            "n1", {"A#wide": 10, "A#narrow": 5},
            mappings=(MappingEdge("A", "Ghost", 0.9),),
        ))
        decision = peer.optimizer.choose_strategy(TWO_PATTERN,
                                                  max_hops=5)
        assert decision.strategy == "local"
        assert "no data" in decision.reason

    def test_partial_coverage_never_skips_reformulation(self):
        """With digests from only part of the key space, an unseen
        peer could hold the mapping that makes reformulation
        worthwhile — auto must not degrade to local."""
        peer = _peer()
        peer.synopses.register(_digest("n1", {"A#wide": 10,
                                              "A#narrow": 5}))
        decision = peer.optimizer.choose_strategy(TWO_PATTERN,
                                                  max_hops=5)
        assert decision.strategy == "iterative"
        assert "coverage" in decision.reason

    def test_partial_coverage_keeps_unknown_reformulations(self):
        peer = _peer()
        peer.synopses.register(_digest("n1", {"A#wide": 10}))
        ghost_query = ConjunctiveQuery(
            [TriplePattern(X, URI("Ghost#wide"), Y)], [X])
        # Ghost#wide is absent from the digests but coverage is
        # partial: expected yield must be unknown (kept), not zero.
        assert peer.optimizer.expected_yield(ghost_query, 0.9) is None
        assert peer.optimizer.keep_reformulation(ghost_query, 0.9)

    def test_reformulating_strategy_when_targets_hold_data(self):
        peer = _covering_peer(_peer())
        peer.synopses.register(_digest(
            "n1", {"A#wide": 10, "A#narrow": 5, "B#attr": 40},
            mappings=(MappingEdge("A", "B", 1.0),),
        ))
        decision = peer.optimizer.choose_strategy(TWO_PATTERN,
                                                  max_hops=5)
        assert decision.strategy in ("iterative", "recursive")
        assert set(decision.candidate_costs) == {"local", "iterative",
                                                 "recursive"}

    def test_dead_fanout_prefers_prunable_iterative(self):
        peer = _covering_peer(_peer())
        ghosts = tuple(MappingEdge("A", f"Ghost{i}", 0.9)
                       for i in range(10))
        peer.synopses.register(_digest(
            "n1", {"A#wide": 10, "A#narrow": 5, "B#attr": 40},
            mappings=ghosts + (MappingEdge("A", "B", 1.0),),
        ))
        decision = peer.optimizer.choose_strategy(TWO_PATTERN,
                                                  max_hops=5)
        # recursive cannot prune the ten dead edges; iterative can
        assert decision.strategy == "iterative"
        assert (decision.candidate_costs["recursive"]
                > decision.candidate_costs["iterative"])


class TestPrunePlans:
    def test_optimizer_yield_uses_confidence_and_cardinality(self):
        peer = _peer()
        peer.synopses.register(_digest("n1", {"A#wide": 10,
                                              "Ghost#wide": 0}))
        ghost = ConjunctiveQuery(
            [TriplePattern(X, URI("Ghost#wide"), Variable("w"))], [X])
        optimizer = peer.optimizer
        wide = ConjunctiveQuery([WIDE], [X])
        assert optimizer.expected_yield(wide) == pytest.approx(10.0)
        assert optimizer.expected_yield(wide, 0.5) == pytest.approx(5.0)
        assert optimizer.expected_yield(ghost, 0.9) == 0.0  # empty target
        assert not optimizer.keep_reformulation(ghost, 0.9)


def _deployment(seed=11):
    """A small corpus: a mapped pair, a dead-end ghost, an unmapped
    schema — warm statistics via maintenance gossip."""
    dataset = BioDatasetGenerator(num_schemas=4, num_entities=36,
                                  entities_per_schema=9,
                                  seed=seed).generate()
    net = GridVineNetwork.build(num_peers=24, seed=seed, replication=2)
    for schema in dataset.schemas:
        net.insert_schema(schema)
    net.insert_triples(dataset.triples)
    names = [s.name for s in dataset.schemas]
    net.insert_mapping(dataset.ground_truth_mapping(names[0], names[1]),
                       bidirectional=True)
    ghost = Schema("Ghost", dataset.schemas[0].attributes,
                   domain=dataset.domain)
    net.insert_schema(ghost)
    net.create_mapping(dataset.schemas[0], ghost,
                       [(a, a) for a in dataset.schemas[0].attributes],
                       confidence=0.8)
    net.settle()
    maintenance = MaintenanceProcess(net.peers, interval=20.0,
                                     rng=random.Random(5))
    maintenance.start()
    net.loop.run_until(net.loop.now + 500)
    maintenance.stop()
    net.loop.run_until(net.loop.now + 40)
    return net, dataset


class TestAutoStrategyEndToEnd:
    def test_auto_matches_iterative_results_with_fewer_messages(self):
        net, dataset = _deployment()
        origin = net.peer_ids()[0]
        workload = QueryWorkloadGenerator(dataset, seed=3)
        mapped = workload.concept_query(dataset.schemas[0].name,
                                        "organism", "a")
        unmapped = workload.concept_query(dataset.schemas[3].name,
                                          "organism", "a")
        totals = {"auto": 0, "iterative": 0}
        for query in (mapped, unmapped):
            reference = net.search_for(query, strategy="iterative",
                                       max_hops=8, origin=origin)
            auto = net.search_for(query, strategy="auto", max_hops=8,
                                  origin=origin)
            assert auto.results == reference.results
            assert auto.decision is not None
            assert not auto.decision.fallback
            totals["auto"] += auto.messages
            totals["iterative"] += reference.messages
        assert totals["auto"] < totals["iterative"]

    def test_auto_picks_local_for_unmapped_schema(self):
        net, dataset = _deployment()
        origin = net.peer_ids()[0]
        workload = QueryWorkloadGenerator(dataset, seed=3)
        unmapped = workload.concept_query(dataset.schemas[3].name,
                                          "organism", "a")
        outcome = net.search_for(unmapped, strategy="auto", max_hops=8,
                                 origin=origin)
        assert outcome.decision.strategy == "local"
