"""The run phase leaves the cyclic collector nothing to do.

Three properties, none of them a timing.  *A finished operation is
freed by reference counting*: with the collector switched off, a
``search_for``, an engine batch — limit hit or not, late replies
included — an upload or a self-organization round leaves no
unreachable object behind for ``gc.collect()`` to find.  *A peer owns
eagerly only what every peer needs*: its tables, its store and its
handler registry; the rng stream, the failover counters, the synopsis
registry and the maintenance ledgers appear on first use, which is
pinned as a per-peer budget of GC-tracked objects rather than as a
list of attribute names.  *A write holds only what it routes*: budgets
of tracked objects per in-flight overlay update and per stored triple
copy.
"""

import gc
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datagen import BioDatasetGenerator
from repro.exec.operators import Collect, Limit, Union
from repro.exec.stream import Batch, PipelineContext
from repro.mediation.keys import triple_keys
from repro.mediation.network import GridVineNetwork
from repro.mediation.peer import GridVinePeer
from repro.mediation.query import QueryOutcome
from repro.pgrid.peer import PGridPeer
from repro.rdf.parser import parse_search_for
from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
from repro.rdf.terms import Literal, URI, Variable
from repro.rdf.triples import Triple
from repro.selforg.controller import SelfOrganizationController
from repro.selforg.creator import CreationPolicy
from repro.simnet.network import Message, Node, SimNetwork
from repro.util.keys import Key

from strategies import DETERMINISM_SETTINGS
from test_exec_limit_pushdown import deploy_chain

LIKE = "SearchFor(x? : (x?, S0#org, %Aspergillus%))"
JOIN = ("SearchFor(x?, y? : (x?, S0#org, %Aspergillus%) "
        "AND (x?, S0#len, y?))")
#: no routable constant but a ``prefix%`` literal: resolved by overlay
#: range queries (one fan-out ledger per covering prefix)
RANGE = ConjunctiveQuery(
    [TriplePattern(Variable("x"), Variable("p"),
                   Literal("Aspergillus-0%"))], [Variable("x")])


def unreachable_after(action) -> int:
    """Objects only the cyclic collector could free after ``action()``
    ran with the collector off."""
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        gc.enable()


def tracked_growth(action) -> int:
    """GC-tracked objects alive after ``action()`` ran with the
    collector off that were not alive before it."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        action()
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def chain():
    """Four mapped schemas on 32 peers, six matching rows each."""
    return deploy_chain()


class TestFinishedQueriesAreNotCyclicGarbage:
    @pytest.mark.parametrize("limit", [None, 4])
    @pytest.mark.parametrize("strategy,query", [
        ("local", LIKE), ("local", JOIN), ("local", RANGE),
        ("iterative", LIKE), ("iterative", JOIN),
        ("recursive", LIKE), ("recursive", JOIN),
    ], ids=lambda value: value if value in (
        "local", "iterative", "recursive") else {
            LIKE: "like", JOIN: "join"}.get(value, "range"))
    def test_search_for(self, chain, strategy, query, limit):
        origin = chain.peer_ids()[0]
        outcomes = []

        def run():
            outcomes.append(chain.search_for(
                query, strategy=strategy, max_hops=8, origin=origin,
                limit=limit))
            # Handler-side pipelines of the recursive strategy and
            # whatever a limit left on the wire finish here.
            chain.settle()

        assert unreachable_after(run) == 0
        assert outcomes[0].results
        if limit is not None:
            assert outcomes[0].result_count <= limit

    @pytest.mark.parametrize("strategy", ["iterative", "recursive"])
    def test_limit_hit_with_late_arrivals(self, chain, strategy):
        origin = chain.peer_ids()[0]
        loop = chain.network.loop
        seen = {}

        def run():
            seen["outcome"] = chain.search_for(
                LIKE, strategy=strategy, max_hops=8, origin=origin,
                limit=4)
            seen["resolved_at"] = loop.events_processed
            chain.settle()

        assert unreachable_after(run) == 0
        assert seen["outcome"].limit_hit
        # Replies were still on the wire when the limit resolved the
        # query; they arrived to a pipeline that was already released.
        assert loop.events_processed > seen["resolved_at"]

    def test_bound_join(self, chain):
        origin = chain.peer_ids()[0]
        for peer in chain.peers.values():
            peer.join_mode = "bound"
        try:
            for limit in (None, 3):
                assert unreachable_after(lambda: chain.search_for(
                    JOIN, strategy="iterative", max_hops=8,
                    origin=origin, limit=limit)) == 0
        finally:
            for peer in chain.peers.values():
                peer.join_mode = "parallel"

    @pytest.mark.parametrize("limit", [None, 4])
    def test_engine_batch(self, chain, limit):
        origin = chain.peer_ids()[0]
        engine = chain.create_engine(max_hops=8)
        engine.execute_batch([LIKE], origin=origin)  # plans cached
        results = []

        def run():
            results.append(engine.execute_batch(
                [LIKE, JOIN, LIKE, RANGE], origin=origin, limit=limit))
            chain.settle()

        assert unreachable_after(run) == 0
        assert all(outcome.results for outcome in results[0].outcomes)
        if limit is not None:
            assert any(o.limit_hit for o in results[0].outcomes)


def test_resolved_pipeline_still_counts_late_batches(small_network):
    """Early resolution releases nothing a late batch flows through."""
    x = Variable("x")
    peer = next(iter(small_network.peers.values()))
    ctx = PipelineContext(peer)
    query = parse_search_for("SearchFor(x? : (x?, S#a, v))")
    outcome = QueryOutcome(query=query, strategy="local", issued_at=0.0,
                           limit=2)
    union, limit_op = Union(), Limit(2)
    collect = Collect(ctx, outcome=outcome)
    union.connect(limit_op).connect(collect)
    ctx.register(union, limit_op, collect)
    limit_op.on_satisfied = collect.resolve

    def rows(*values):
        return Batch.from_tuples((x,), [(URI(v),) for v in values])

    union._receive(rows("a", "b", "c"), 0)    # overshoot: c truncated
    assert collect.future.done and collect.finalize is None
    union._receive(rows("d", "e"), 0)         # late, after resolution
    assert (limit_op.late_rows, limit_op.stats.rows_dropped) == (2, 3)
    collect._receive(rows("f"), 0)            # past the limit operator
    assert outcome.rows_after_cancel == 1
    assert collect.stats.rows_dropped == 1
    assert [s["name"] for s in ctx.operator_snapshots()] == [
        "union", "limit[2]", "collect"]
    assert ctx.operator_snapshots()[1]["rows_dropped"] == 3


class TestPeerBudget:
    """GC-tracked objects a peer costs before it does anything.

    The path is two bits deep, so the routing table is three lists and
    the replica list a fourth; the peer and its handler registry make
    six.  The bound leaves room for interpreters that materialise the
    instance ``__dict__`` (3.10) — and none for a bound method per
    handler (ten to eleven more), an eager ``random.Random``, counter
    group or synopsis registry.
    """

    PEERS = 1000

    def per_peer(self, make) -> float:
        path = Key("01")
        peers = []
        growth = tracked_growth(lambda: peers.extend(
            make(f"n{i}", path, i) for i in range(self.PEERS)))
        assert len(peers) == self.PEERS
        return growth / self.PEERS

    def test_pgrid_peer(self):
        assert self.per_peer(
            lambda node_id, path, seed: PGridPeer(node_id, path, rng=seed)
        ) <= 9

    def test_gridvine_peer(self):
        assert self.per_peer(
            lambda node_id, path, seed: GridVinePeer(node_id, path,
                                                    rng=seed)
        ) <= 22


class TestSelfOrganizationIsNotCyclicGarbage:
    @pytest.fixture(scope="class")
    def ring(self):
        """Eight schemas on 32 peers, mapped in a bidirectional ring."""
        dataset = BioDatasetGenerator(
            num_schemas=8, num_entities=80, entities_per_schema=25, seed=3,
        ).generate()
        net = GridVineNetwork.build(num_peers=32, seed=11)
        for schema in dataset.schemas:
            net.insert_schema(schema)
        net.insert_triples(dataset.triples)
        names = [schema.name for schema in dataset.schemas]
        for source, target in zip(names, names[1:] + names[:1]):
            net.insert_mapping(dataset.ground_truth_mapping(source, target),
                               bidirectional=True)
        net.settle()
        return net, dataset

    def test_cycle_and_path_search(self, ring):
        net, dataset = ring
        graph = net.mapping_graph(dataset.domain)
        names = graph.schemas()
        assert graph.find_cycles(4)
        assert unreachable_after(lambda: graph.find_cycles(4)) == 0
        assert unreachable_after(
            lambda: graph.find_paths(names[0], names[3])) == 0

    def test_controller_step(self, ring):
        net, dataset = ring
        controller = SelfOrganizationController(
            net, domain=dataset.domain,
            policy=CreationPolicy(mappings_per_round=4))
        assert unreachable_after(controller.step) == 0


class TestWritePath:
    """An overlay update holds only what it routes, and a stored triple
    copy leaves behind only what storing it needs.

    The key caches are warmed first, so only per-write state counts.
    In flight, an update that left its origin is its future, its
    pending entry and the set of first hops it tried, the route
    payload and message, the timeout handle with its arguments, bound
    ``_on_timeout`` and heap entry, and the delivery handle with its
    arguments and heap entry — twelve objects, and nothing of the
    triple it carries (12.01 measured on CPython 3.11).  The budget of 13
    has room for none of a per-triple future and gather, a closure per
    gather input, a callback list per future or a bound ``_deliver``
    per message (21.01 before those went).  A stored copy is its store
    bucket and index buckets (every term is fresh here) and a share of
    the synopsis entries (2.06 measured); the budget has no room for a
    record wrapping the triple (2.40 before) or a ``(position, term)``
    tuple per indexed position (3.74 before that).
    """

    TRIPLES = 300

    @staticmethod
    def deploy():
        return GridVineNetwork.build(num_peers=64, seed=5)

    def batch(self, tag: str) -> list[Triple]:
        triples = [Triple(URI(f"W:{tag}{i}"), URI(f"W#{tag}p{i % 7}"),
                          Literal(f"{tag} value {i}"))
                   for i in range(self.TRIPLES)]
        for triple in triples:  # warm the shared key caches
            for key in triple_keys(triple):
                Key.of(key.bits)
        return triples

    def test_insert_then_settle_leaves_no_cyclic_garbage(self):
        net = self.deploy()
        batch = self.batch("garbage")
        origin = net.peer_ids()[0]

        def run():
            net.insert_triples(batch, origin=origin)
            net.settle()

        assert unreachable_after(run) == 0
        assert all(any(triple in peer.db for peer in net.peers.values())
                   for triple in batch)

    def test_in_flight_budget_per_update(self):
        net = self.deploy()
        batch = self.batch("flight")
        keys = {key for triple in batch for key in triple_keys(triple)}
        # Every update leaves the origin: none resolves (and stores) on
        # the spot.
        origin = next(peer for peer in net.peers.values()
                      if not any(peer.is_responsible_for(key)
                                 for key in keys))
        futures = []
        growth = tracked_growth(
            lambda: futures.append(origin.insert_triples(batch)))
        assert growth / (3 * self.TRIPLES) <= 13
        net.settle()
        assert len(futures[0].result()) == 3 * self.TRIPLES

    def test_stored_budget_per_triple_copy(self):
        net = self.deploy()
        origin = net.peer(net.peer_ids()[0])

        def copies():
            return sum(len(bucket) for peer in net.peers.values()
                       for bucket in peer.store.values())

        batch = self.batch("stored")
        held = copies()

        def run():
            net.loop.run_until_complete(origin.insert_triples(batch))
            net.settle()

        # Reference counting frees everything else (an upload leaves no
        # cyclic garbage, pinned above).
        growth = tracked_growth(run)
        stored = copies() - held
        assert stored >= 3 * self.TRIPLES
        assert growth / stored <= 2.2


@DETERMINISM_SETTINGS
@given(seed=st.one_of(st.integers(), st.text(max_size=12),
                      st.floats(min_value=0.0, max_value=1.0)),
       pool=st.integers(min_value=1, max_value=7),
       draws=st.integers(min_value=1, max_value=24))
def test_seed_constructed_peer_draws_like_a_stream_constructed_one(
        seed, pool, draws):
    refs = [f"r{i}" for i in range(pool)]

    def picks(rng):
        peer = PGridPeer("n0", Key("0"), rng=rng)
        peer.routing_table = [list(refs)]
        return [peer._pick_reference(0) for _ in range(draws)]

    assert picks(seed) == picks(random.Random(seed))


class TestHandlerCallingConvention:
    """Every handler is called with the message and nothing else,
    however the registry stores it."""

    class Recorder(Node):
        def __init__(self, node_id):
            super().__init__(node_id)
            self.got = []
            self.register_handler("own", self.on_own)

        def on_own(self, message):
            self.got.append(("own", message))

    def test_own_methods_foreign_methods_functions_and_closures(self):
        network = SimNetwork()
        node, other = self.Recorder("a"), self.Recorder("b")
        network.attach(node)
        network.attach(other)
        got = node.got

        def plain(*args):
            got.append(("plain", *args))

        node.register_handler("plain", plain)
        node.register_handler(
            "closure", lambda *args: got.append(("closure", *args)))
        # Bound to *another* node: it must record there, not here.
        node.register_handler("foreign", other.on_own)
        kinds = ["own", "plain", "closure", "foreign"]
        for kind in kinds:
            other.send("a", kind)
        network.loop.run_until_idle()
        assert [(tag, type(m)) for tag, m in got] == [
            ("own", Message), ("plain", Message), ("closure", Message)]
        assert [m.kind for _tag, m in got] == kinds[:3]
        assert [(tag, m.kind) for tag, m in other.got] == [
            ("own", "foreign")]
        # The same table serves a direct ``on_message`` call.
        node.on_message(Message("plain", "b", "a"))
        assert got[-1][0] == "plain" and len(got[-1]) == 2

    def test_last_registration_wins_and_unknown_kinds_raise(self):
        node = self.Recorder("a")
        node.register_handler("own", lambda message: node.got.append(
            ("replaced", message)))
        node.on_message(Message("own", "b", "a"))
        assert [tag for tag, _m in node.got] == ["replaced"]
        with pytest.raises(ValueError, match="unknown message kind"):
            node.on_message(Message("nope", "b", "a"))
