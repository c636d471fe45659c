"""Tests for the fault lab's invariant checkers.

Each checker is exercised both ways: green on a healthy deployment,
and red once the corresponding kind of damage is planted (via the
omniscient harness view — the same access the checkers use).
"""

from repro.faultlab import LabContext, run_invariants
from repro.faultlab.invariants import (
    check_engine_cache,
    check_live_recall,
    check_recall,
    check_replica_agreement,
    check_routing_tables,
    check_synopsis_convergence,
    check_trie_coverage,
)
from repro.mediation.network import GridVineNetwork
from repro.rdf.terms import URI, Literal
from repro.rdf.triples import Triple
from repro.resilience.scenario import ScenarioReport, ScenarioSpec
from repro.schema.model import Schema
from repro.stats.gossip import StatsAntiEntropy
from repro.util.keys import Key


def small_net(num_peers=12, seed=5, replication=2):
    net = GridVineNetwork.build(num_peers=num_peers, seed=seed,
                                replication=replication)
    embl = Schema("EMBL", ["Organism"], domain="d")
    emp = Schema("EMP", ["SystematicName"], domain="d")
    net.insert_schema(embl)
    net.insert_schema(emp)
    net.insert_triples([
        Triple(URI(f"EMBL:{i}"), URI("EMBL#Organism"),
               Literal(f"Aspergillus {i}"))
        for i in range(6)
    ] + [
        Triple(URI("EMP:9"), URI("EMP#SystematicName"),
               Literal("Aspergillus 9")),
    ])
    net.create_mapping(embl, emp, [("Organism", "SystematicName")],
                       origin=net.peer_ids()[0])
    net.settle()
    return net


class TestRoutingAndCoverage:
    def test_healthy_network_passes(self):
        ctx = LabContext(net=small_net())
        assert check_routing_tables(ctx) == []
        assert check_trie_coverage(ctx) == []

    def test_poisoned_reference_flagged(self):
        net = small_net()
        peer = net.peers[net.peer_ids()[0]]
        # a ref pointing back at the peer's own subtree breaks the
        # forwarding invariant
        peer.routing_table[0].append(peer.node_id)
        violations = check_routing_tables(LabContext(net=net))
        assert any("references itself" in v for v in violations)

    def test_unknown_reference_flagged(self):
        net = small_net()
        peer = net.peers[net.peer_ids()[0]]
        peer.routing_table[0].append("ghost-peer")
        violations = check_routing_tables(LabContext(net=net))
        assert any("unknown peer" in v for v in violations)

    def test_dead_replica_group_breaks_coverage(self):
        net = small_net()
        by_path = {}
        for node_id, peer in net.peers.items():
            by_path.setdefault(peer.path.bits, []).append(node_id)
        victims = next(iter(sorted(by_path.values())))
        for node_id in victims:
            net.network.set_online(node_id, False)
        violations = check_trie_coverage(LabContext(net=net))
        assert len(violations) == 1
        assert "no online holder" in violations[0]


class TestReplicaAgreement:
    def test_converged_replicas_pass(self):
        assert check_replica_agreement(LabContext(net=small_net())) == []

    def test_diverged_store_flagged(self):
        net = small_net()
        # plant divergence: drop one stored value from one member of
        # a replica group that actually holds data
        for node_id in net.peer_ids():
            peer = net.peers[node_id]
            if peer.replicas and peer.store:
                bits = next(iter(peer.store))
                # through the peer API (not ``peer.store`` directly) so
                # the cached sync snapshot is dropped with the value
                peer.local_remove(Key(bits), peer.store[bits][0])
                break
        violations = check_replica_agreement(LabContext(net=net))
        assert violations
        assert "disagree" in violations[0]


class TestSynopsisConvergence:
    def test_cold_registry_flagged_then_sweep_converges(self):
        net = small_net()
        origin = net.peer_ids()[0]
        ctx = LabContext(net=net, origin=origin)
        assert check_synopsis_convergence(ctx)  # nothing pulled yet
        StatsAntiEntropy(net.peers, origin).sweep()
        net.settle()
        assert check_synopsis_convergence(ctx) == []

    def test_stale_digest_flagged_after_mutation(self):
        net = small_net()
        origin = net.peer_ids()[0]
        StatsAntiEntropy(net.peers, origin).sweep()
        net.settle()
        # mutate a remote store directly: its digest version advances
        # past what the origin pulled
        other = net.peer_ids()[1]
        net.peers[other].db.add(
            Triple(URI("EMBL:new"), URI("EMBL#Organism"), Literal("X")))
        ctx = LabContext(net=net, origin=origin)
        violations = check_synopsis_convergence(ctx)
        assert any(other in v and "stale" in v for v in violations)


class TestEngineCacheCoherence:
    def test_live_cache_passes(self):
        net = small_net()
        engine = net.create_engine(domain="d", max_hops=4)
        engine.search_for("SearchFor(x? : (x?, EMBL#Organism, %Asp%))")
        assert len(engine.cache) > 0
        ctx = LabContext(net=net, engine=engine)
        assert check_engine_cache(ctx) == []

    def test_planted_stale_plan_flagged(self):
        net = small_net()
        engine = net.create_engine(domain="d", max_hops=4)
        engine.search_for("SearchFor(x? : (x?, EMBL#Organism, %Asp%))")
        (_key, entry), *_ = engine.cache.entries()
        entry.reformulations.pop()  # corrupt the cached plan
        violations = check_engine_cache(LabContext(net=net, engine=engine))
        assert violations
        assert "stale cached plan" in violations[0]

    def test_no_engine_means_no_check(self):
        assert check_engine_cache(LabContext(net=small_net())) == []


class TestRecallCheckers:
    def test_healthy_recall_passes_and_damage_flags(self):
        net = small_net()
        panel = [(
            # answered via the mapping: EMBL + EMP subjects
            "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))",
            {f"EMBL:{i}" for i in range(6)} | {"EMP:9"},
        )]
        from repro.rdf.parser import parse_search_for
        panel = [(parse_search_for(q), t) for q, t in panel]
        ctx = LabContext(net=net, panel=panel, max_hops=4)
        assert check_recall(ctx) == []
        # knock every holder of some leaf offline: part of the truth
        # set becomes unreachable
        by_path = {}
        for node_id, peer in net.peers.items():
            by_path.setdefault(peer.path.bits, []).append(node_id)
        for members in by_path.values():
            for node_id in members:
                if node_id != net.peer_ids()[0]:
                    net.network.set_online(node_id, False)
        violations = check_recall(ctx)
        assert violations
        assert "recall" in violations[0]

    def test_live_recall_reads_report(self):
        report = ScenarioReport(spec=ScenarioSpec())
        report.per_query_recall = [0.2, 0.2]
        report.recall = 0.2
        ctx = LabContext(net=None, report=report, min_live_recall=0.5)
        assert check_live_recall(ctx)
        report.recall = 0.9
        assert check_live_recall(ctx) == []

    def test_no_report_or_panel_skips(self):
        ctx = LabContext(net=None)
        assert check_live_recall(ctx) == []
        assert check_recall(ctx) == []


class TestRunInvariants:
    def test_aggregates_named_violations(self):
        net = small_net()
        peer = net.peers[net.peer_ids()[0]]
        peer.routing_table[0].append("ghost-peer")
        report = run_invariants(
            LabContext(net=net),
            names=["routing_tables", "trie_coverage"])
        assert not report.ok
        assert report.failed_invariants() == ["routing_tables"]
        assert any("ghost-peer" in line for line in report.summary())

    def test_healthy_summary(self):
        report = run_invariants(
            LabContext(net=small_net()),
            names=["routing_tables", "trie_coverage",
                   "replica_agreement"])
        assert report.ok
        assert report.summary() == ["all invariants hold"]
