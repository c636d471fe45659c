"""``GridVineNetwork`` on the engine surface: one way to run an op.

Every write, read, query and controller fetch is one ``call`` — one
``submit`` plus one ``result`` on whichever engine the facade was built
over — so three things hold: nothing about a finished operation is
retained, a handler exception leaves the deployment usable, and both
engines do and answer the same.
"""

import random

import pytest

from repro.mapping.model import PredicateCorrespondence, SchemaMapping
from repro.mediation.network import GridVineNetwork
from repro.obs.analysis import trace_ids
from repro.pgrid.scaleout import (
    QUERY_MAX_HOPS,
    ScaleoutSpec,
    _make_peer,
    _preload_mediation,
    _result_rows,
    build_deployment,
)
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.selforg import CreationPolicy, SelfOrganizationController
from repro.simnet.events import SimulationError
from repro.simnet.latency import ConstantLatency
from repro.simnet.shard import (
    ShardedTransport,
    SingleLoopEngine,
    partition_paths,
)

QUERY = "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"


EMBL = Schema("EMBL", ["Organism"], domain="d")
EMP = Schema("EMP", ["SystematicName"], domain="d")


def load_corpus(net):
    """Two schemas, their triples and the mapping EMBL -> EMP."""
    net.insert_schema(EMBL)
    net.insert_schema(EMP)
    net.insert_triples([
        Triple(URI(f"EMBL:{i}"), URI("EMBL#Organism"),
               Literal(f"Aspergillus {i}"))
        for i in range(6)
    ] + [
        Triple(URI("EMP:9"), URI("EMP#SystematicName"),
               Literal("Aspergillus 9")),
    ])
    net.create_mapping(EMBL, EMP, [("Organism", "SystematicName")],
                       origin=net.peer_ids()[0])
    net.settle()


def deploy(**kwargs):
    net = GridVineNetwork.build(num_peers=16, seed=5, **kwargs)
    load_corpus(net)
    return net


SWISS = Schema("SWISS", ["Species"], domain="d")


def directed(source, target, attribute_pairs):
    return SchemaMapping(
        f"m:{source.name}->{target.name}", source.name, target.name,
        [PredicateCorrespondence(source.predicate(a), target.predicate(b))
         for a, b in attribute_pairs])


def write_read_script(net):
    """Every write and read kind of the facade on the ``deploy`` corpus,
    then one self-organization round over the fragmented result."""
    load_corpus(net)
    net.insert_schema(SWISS)
    net.insert_triples([
        Triple(URI(f"SWISS:{i}"), URI("SWISS#Species"),
               Literal(f"Aspergillus {i}"))
        for i in range(4)])
    both_ways = directed(EMP, SWISS, [("SystematicName", "Species")])
    net.insert_mapping(both_ways, bidirectional=True)
    net.deprecate_mapping(both_ways)
    short_lived = directed(SWISS, EMBL, [("Species", "Organism")])
    net.insert_mapping(short_lived)
    net.remove_mapping(short_lived)
    records = net.connectivity_records("d")
    graph = net.mapping_graph("d", include_deprecated=True)
    controller = SelfOrganizationController(
        net, domain="d", policy=CreationPolicy(mappings_per_round=1))
    report = controller.step()
    net.settle()
    return (
        [(r.schema_name, r.degree_pair) for r in records],
        [(m.mapping_id, m.deprecated)
         for m in graph.mappings(include_deprecated=True)
         if m.source_schema == "EMP"],
        sorted(m.mapping_id for m in graph.mappings()),
        (report.ci_before, report.ci_after, report.created,
         report.deprecated, report.posteriors),
    )


def remote_origins(net):
    """Two origins that do not own the queried key space themselves."""
    return net.peer_ids()[2], net.peer_ids()[3]


def traces_rooted_at(records, name):
    """Trace ids, in submit order, whose root span is called ``name``."""
    return [r["trace"] for r in records
            if r["type"] == "span" and r["parent"] is None
            and r["name"] == name]


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
        net = deploy(timeout=4.0, max_retries=1)
        for peer in net.peers.values():
            peer.query_timeout = 30.0
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

    def test_after_writes_reads_and_a_controller_round(self):
        net = GridVineNetwork.build(num_peers=16, seed=5)
        write_read_script(net)
        assert_nothing_retained(net)

    def test_after_a_write_whose_kickoff_raises(self):
        net = deploy()
        with pytest.raises(AttributeError):
            net.insert_schema(None, origin=remote_origins(net)[0])
        assert_nothing_retained(net)
        assert net.network.scope() is None


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
            records = net.trace_records()
            _raised, trace = traces_rooted_at(records, "op:search_for")
            hops = [r for r in records
                    if r["trace"] == trace and r.get("kind") == "message"]
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


def facade_over(engine, deployment, traced=True, rng=None, preload=True):
    """What ``pgrid.scaleout._drive`` builds, tracer installed
    (``preload=False``: the same overlay with empty stores)."""
    peers = {node_id: _make_peer(SPEC, deployment, node_id)
             for node_id in sorted(deployment.assignment)}
    mappings = ()
    if preload:
        _preload_mediation(deployment, peers)
        mappings = deployment.mediation.mappings
    owner = partition_paths(deployment.assignment, engine.num_shards)
    for node_id, peer in peers.items():
        engine.add_peer(peer, owner[node_id])
    if traced:
        engine.install_tracer(seed=0)
    return GridVineNetwork(engine, peers, rng=rng, mappings=mappings)


def test_both_engines_answer_identically():
    deployment = build_deployment(SPEC)
    med = deployment.mediation
    origin, query = med.query_waves[0][0]
    batch_origin, batch = med.batch_waves[0]

    def observe(engine):
        with engine:
            net = facade_over(engine, deployment)
            outcome = net.search_for(query, max_hops=QUERY_MAX_HOPS,
                                     origin=origin)
            net.settle()
            result = net.create_engine(
                max_hops=QUERY_MAX_HOPS,
            ).execute_batch(list(batch), origin=batch_origin)
            net.settle()
            return (_result_rows(outcome), outcome.messages,
                    [_result_rows(o) for o in result.outcomes],
                    result.messages, net.trace_records())

    latency = ConstantLatency()
    single = observe(SingleLoopEngine(latency=latency, seed=SPEC.seed))
    sharded = observe(ShardedTransport(2, latency=latency, seed=SPEC.seed))
    rows, messages, batch_rows, batch_messages, records = single
    assert rows and messages > 0
    assert any(batch_rows) and batch_messages > 0
    assert trace_ids(records) == (
        traces_rooted_at(records, "op:search_for")
        + traces_rooted_at(records, "op:execute_planned_batch"))
    assert len(trace_ids(records)) == 2
    assert sharded == single


def test_writes_reads_and_a_controller_round_are_equal_on_both_engines(
        record_calls):
    """The paper's other two thirds — every ``Update``, every mediation
    read and the §3.2 loop — on the single loop and on 1 / 2 / 4 inline
    shards: same stores, same ``ci``, same messages, call by call.

    Two clocks, so one thing differs by design and is pinned here: the
    single loop's ``result`` returns at the operation's own completion,
    a sharded one at quiescence.  A mapping mutation's holders republish
    their connectivity records *after* acknowledging it; that tail
    carries the op's tag, so the sharded count includes it and the
    single loop's stops short of it by exactly the traffic still in
    flight when the call returned.
    """
    deployment = build_deployment(SPEC)

    def observe(engine):
        with engine:
            net = facade_over(engine, deployment, traced=False,
                              rng=random.Random(SPEC.seed), preload=False)
            log = record_calls(net)
            observed = write_read_script(net)
            stores = {node_id: {bits: sorted(map(repr, values))
                                for bits, values in peer.store.items()}
                      for node_id, peer in net.peers.items()}
            return (log, observed, stores, net.connectivity_indicator("d"),
                    net.metrics_snapshot()["messages_sent"])

    latency = ConstantLatency()
    log, observed, *rest = observe(
        SingleLoopEngine(latency=latency, seed=SPEC.seed))
    report = observed[-1]
    assert report[0] < 0.0 and report[2], "the round must fetch and create"
    methods = {method for method, *_ in log}
    assert methods >= {
        "insert_schema", "insert_triples", "insert_mapping",
        "deprecate_mapping", "remove_mapping", "fetch_connectivity",
        "retrieve_many"}
    # On a quiet single loop the attributed count is exact for every
    # kind: everything sent before the call returned was the op's.
    assert all(attributed == at_return <= settled
               for _method, attributed, at_return, settled in log)
    assert {method for method, attributed, _r, settled in log
            if attributed < settled} <= {
        "insert_schema", "insert_mapping", "deprecate_mapping",
        "remove_mapping"}

    for shards in (1, 2, 4):
        sharded_log, *sharded = observe(
            ShardedTransport(shards, latency=latency, seed=SPEC.seed))
        assert sharded == [observed, *rest]
        assert all(attributed == at_return == settled
                   for _method, attributed, at_return, settled in sharded_log)
        assert ([(method, settled) for method, *_, settled in sharded_log]
                == [(method, settled) for method, *_, settled in log])


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
            net.search_for(query, max_hops=QUERY_MAX_HOPS,
                           origin=origin)
            net.settle()
            views = net.registry.snapshot()["views"]
            assert views["tracer"]["records"] == len(net.trace_records())
            assert views["tracer"]["traces"] == 1
            assert (views["network"]["messages_by_kind"]
                    == net.metrics_snapshot()["messages_by_kind"])
            return net, tracer, views

    latency = ConstantLatency()
    net, tracer, single = observe(
        SingleLoopEngine(latency=latency, seed=SPEC.seed))
    assert tracer is net.network.tracer
    assert single["tracer"] == tracer.snapshot()
    assert single["network"] == net.network.metrics.snapshot()

    assert net.metrics_snapshot() == net.network.metrics.snapshot()
    assert single["network"]["messages_sent"] > 0

    # ``metrics_snapshot`` is engine-independent: one shape, and (in
    # SPEC's rng-free regime) the same counts on any number of shards;
    # only the float sum behind the mean may round differently.
    for num_shards in (1, 2, 4):
        net, tracer, sharded = observe(
            ShardedTransport(num_shards, latency=latency, seed=SPEC.seed))
        assert tracer is None  # one recorder per shard, none to single out
        assert sharded["tracer"] == single["tracer"]
        assert sharded["network"] == net.metrics_snapshot()
        assert set(sharded["network"]) == set(single["network"])
        assert sharded["network"].pop("mean_latency") == pytest.approx(
            single["network"]["mean_latency"])
        assert sharded["network"] == {
            name: count for name, count in single["network"].items()
            if name != "mean_latency"}
    for single_loop_only in ("network", "loop"):
        with pytest.raises(SimulationError, match="engine.metrics_snapshot"):
            getattr(net, single_loop_only)


def test_drawing_an_origin_needs_the_harness_rng():
    deployment = build_deployment(SPEC)
    net = facade_over(SingleLoopEngine(seed=SPEC.seed), deployment)
    with pytest.raises(SimulationError, match="explicit origin"):
        net.search_for(deployment.mediation.query_waves[0][0][1])
    # A join draws the newcomer's seeds from the same rng.
    with pytest.raises(SimulationError, match="pass the facade an rng"):
        net.join("newcomer")
    assert "newcomer" not in net.peers
