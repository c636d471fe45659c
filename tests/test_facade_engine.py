"""``GridVineNetwork`` on the engine surface: one query path.

``search_for`` and ``run_batch`` are one ``submit`` plus one ``result``
on whichever engine the facade was built over, so three things hold:
nothing about a finished query is retained, a handler exception leaves
the deployment usable, and both engines answer identically.
"""

import pytest

from repro.mediation.network import GridVineNetwork
from repro.pgrid.scaleout import (
    ScaleoutSpec,
    _make_peer,
    _preload_mediation,
    _result_rows,
    build_deployment,
)
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.simnet.events import SimulationError
from repro.simnet.latency import ConstantLatency
from repro.simnet.shard import (
    ShardedTransport,
    SingleLoopEngine,
    partition_paths,
)

QUERY = "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"


def deploy(**kwargs):
    net = GridVineNetwork.build(num_peers=16, seed=5, **kwargs)
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


def remote_origins(net):
    """Two origins that do not own the queried key space themselves."""
    return net.peer_ids()[2], net.peer_ids()[3]


def assert_nothing_retained(net):
    assert net.network.metrics.operations == {}
    assert len(net.engine.completed) == 0
    assert net.engine._futures == {}


class TestNothingRetained:
    def test_after_many_queries_and_batches(self):
        net = deploy()
        origin, _ = remote_origins(net)
        for _ in range(1000):
            assert net.search_for(QUERY, origin=origin).messages > 0
        engine = net.create_engine(domain="d")
        for _ in range(50):
            assert engine.execute_batch([QUERY, QUERY],
                                        origin=origin).messages > 0
        assert_nothing_retained(net)

    def test_after_a_query_level_timeout(self):
        net = deploy(timeout=4.0, max_retries=1, query_timeout=30.0)
        origin, _ = remote_origins(net)
        for node_id in net.peer_ids():
            if node_id != origin:
                net.network.set_online(node_id, False)
        outcome = net.search_for(QUERY, strategy="recursive", origin=origin)
        assert not outcome.complete
        assert_nothing_retained(net)

    def test_after_a_kickoff_error(self):
        net = deploy()
        with pytest.raises(Exception):
            net.search_for("SearchFor(x? : (x?, y?, z?))",
                           origin=remote_origins(net)[0])
        assert_nothing_retained(net)


class TestHandlerExceptionOnTheSingleLoop:
    """The failure policy: the exception propagates unchanged, the op
    is released, and the deployment stays usable."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_propagates_releases_and_leaves_deployment_usable(self, traced):
        # Pools of size one: routing draws no rng, so the second query
        # takes the same path whatever happened before it.
        clean = deploy(refs_per_level=1, replication=1)
        first, second = remote_origins(clean)
        expected = clean.search_for(QUERY, origin=second).messages

        net = deploy(refs_per_level=1, replication=1)
        if traced:  # the raising delivery then carries a trace context
            tracer = net.install_tracer(seed=5)
        boom = RuntimeError("route handler failed")

        def raise_once(message):
            for peer in net.peers.values():
                peer.register_handler("route", peer._handle_route)
            raise boom

        for peer in net.peers.values():  # whichever routes first raises
            peer.register_handler("route", raise_once)

        with pytest.raises(RuntimeError) as caught:
            net.search_for(QUERY, origin=first)
        assert caught.value is boom
        assert_nothing_retained(net)
        assert net.network.scope() is None

        outcome = net.search_for(QUERY, origin=second)
        assert outcome.complete and outcome.results
        assert outcome.messages == expected
        if traced:
            assert tracer.current() is None
            hops = [r for r in net.trace_records()
                    if r["trace"] == "op:1" and r.get("kind") == "message"]
            assert len(hops) == expected
        # The abandoned query's retries still run their course; its
        # late completion is not kept either.
        net.settle()
        assert_nothing_retained(net)


# ----------------------------------------------------------------------
# One facade, two engines
# ----------------------------------------------------------------------

SPEC = ScaleoutSpec(num_peers=120, replication=1, refs_per_level=1, seed=3,
                    workload="mediation", num_schemas=4, num_entities=60,
                    entities_per_schema=20, ops_per_wave=4, num_waves=1,
                    batch_queries=3)


def facade_over(engine, deployment, traced=True):
    """What ``pgrid.scaleout._drive`` builds, tracer installed."""
    peers = {node_id: _make_peer(SPEC, deployment, node_id)
             for node_id in sorted(deployment.assignment)}
    _preload_mediation(deployment, peers)
    owner = partition_paths(deployment.assignment, engine.num_shards)
    for node_id, peer in peers.items():
        engine.add_peer(peer, owner[node_id])
    if traced:
        engine.install_tracer(seed=0)
    return GridVineNetwork(engine, peers,
                           mappings=deployment.mediation.mappings)


def test_both_engines_answer_identically():
    deployment = build_deployment(SPEC)
    med = deployment.mediation
    origin, query = med.query_waves[0][0]
    batch_origin, batch = med.batch_waves[0]

    def observe(engine):
        with engine:
            net = facade_over(engine, deployment)
            outcome = net.search_for(query, max_hops=SPEC.query_max_hops,
                                     origin=origin)
            net.settle()
            result = net.create_engine(
                max_hops=SPEC.query_max_hops,
            ).execute_batch(list(batch), origin=batch_origin)
            net.settle()
            return (_result_rows(outcome), outcome.messages,
                    [_result_rows(o) for o in result.outcomes],
                    result.messages, net.trace_records())

    latency = ConstantLatency(SPEC.latency_delay)
    single = observe(SingleLoopEngine(latency=latency, seed=SPEC.seed))
    sharded = observe(ShardedTransport(2, latency=latency, seed=SPEC.seed))
    rows, messages, batch_rows, batch_messages, records = single
    assert rows and messages > 0
    assert any(batch_rows) and batch_messages > 0
    assert {r["trace"] for r in records} == {"op:0", "op:1"}
    assert sharded == single


def test_observability_calls_work_on_both_engines():
    """``install_tracer``, the registry views and ``metrics_snapshot``
    are part of the surface that works on every engine; what only a
    single loop has (one ``network``) says so in a ``SimulationError``
    instead of crashing half-way through an install."""
    deployment = build_deployment(SPEC)
    origin, query = deployment.mediation.query_waves[0][0]

    def observe(engine):
        with engine:
            net = facade_over(engine, deployment, traced=False)
            tracer = net.install_tracer(seed=0)
            net.search_for(query, max_hops=SPEC.query_max_hops,
                           origin=origin)
            net.settle()
            views = net.registry.snapshot()["views"]
            assert views["tracer"]["records"] == len(net.trace_records())
            assert views["tracer"]["traces"] == 1
            assert (views["network"]["messages_by_kind"]
                    == net.metrics_snapshot()["messages_by_kind"])
            return net, tracer, views

    latency = ConstantLatency(SPEC.latency_delay)
    net, tracer, single = observe(
        SingleLoopEngine(latency=latency, seed=SPEC.seed))
    assert tracer is net.network.tracer
    assert single["tracer"] == tracer.snapshot()
    assert single["network"] == net.network.metrics.snapshot()

    net, tracer, sharded = observe(
        ShardedTransport(2, latency=latency, seed=SPEC.seed))
    assert tracer is None  # one recorder per shard, none to single out
    assert sharded["tracer"] == single["tracer"]
    assert (sharded["network"]["messages_sent"]
            == single["network"]["messages_sent"] > 0)
    for single_loop_only in ("network", "loop"):
        with pytest.raises(SimulationError, match="engine.metrics_snapshot"):
            getattr(net, single_loop_only)


def test_drawing_an_origin_needs_the_harness_rng():
    deployment = build_deployment(SPEC)
    net = facade_over(SingleLoopEngine(seed=SPEC.seed), deployment)
    with pytest.raises(SimulationError, match="explicit origin"):
        net.search_for(deployment.mediation.query_waves[0][0][1])
