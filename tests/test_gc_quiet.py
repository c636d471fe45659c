"""The run phase leaves the cyclic collector nothing to do.

Three properties, none of them a timing.  *A finished operation is
freed by reference counting*: with the collector switched off, a
``search_for``, an engine batch — limit hit or not, late replies
included — an upload or a self-organization round leaves no
unreachable object behind for ``gc.collect()`` to find.  *A peer owns
eagerly only what every peer needs*: its tables and its store, while
its handler registry is one table shared by every peer of its class;
the failover counters, the synopsis registry and the maintenance
ledgers appear on first use, which is pinned as per-peer budgets of
GC-tracked objects and of bytes rather than as a list of attribute
names, and the rng stream is a buffer of words, pinned as a budget of
bytes per first draw.  *A write holds only what it
routes*: budgets of tracked objects per in-flight overlay update and
per stored triple copy; and so does a one-key read.
"""

import gc
import tracemalloc

import pytest

from repro.datagen import BioDatasetGenerator
from repro.exec.operators import Collect
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
    collect = Collect(ctx, outcome=outcome, limit=2)
    ctx.register(collect)

    def _finalize():
        outcome.rows_after_cancel = collect.late_rows

    collect.finalize = _finalize
    collect.on_satisfied = collect.resolve

    def rows(*values):
        return Batch.from_tuples((x,), [(URI(v),) for v in values])

    collect._receive(rows("a", "b", "c"), 0)  # overshoot: c truncated
    assert collect.future.done
    assert collect.finalize is None and collect.on_satisfied is None
    assert outcome.rows_after_cancel == 0     # stamped at resolution
    collect._receive(rows("d", "e"), 0)       # late, after resolution
    collect._receive(rows("f"), 0)
    assert (collect.late_rows, collect.stats.rows_dropped) == (3, 4)
    assert outcome.result_count == 2
    _issued, _skipped, snapshots = ctx.totals()
    assert [s["name"] for s in snapshots] == ["collect"]
    assert snapshots[0]["rows_dropped"] == 4


class TestPeerBudget:
    """GC-tracked objects and bytes a peer costs before it does
    anything.

    The path is two bits deep, so the routing table is three lists and
    the replica list a fourth; the peer makes five.  The handler
    registry is a table every peer of the class shares, so it costs a
    peer nothing.  The bound leaves room for interpreters that
    materialise the instance ``__dict__`` (3.10) — and none for a
    private handler dict, a bound method per handler (ten to eleven
    more), an eager ``random.Random``, counter group or synopsis
    registry.  In bytes (tracemalloc), a private handler dict would be
    272 B more per ``PGridPeer`` and 464 B more per ``GridVinePeer``.
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
        ) <= 8

    def test_gridvine_peer(self):
        assert self.per_peer(
            lambda node_id, path, seed: GridVinePeer(node_id, path,
                                                    rng=seed)
        ) <= 21

    @pytest.mark.parametrize("peer_class, bound", [
        (PGridPeer, 900), (GridVinePeer, 3000)])
    def test_bytes_per_constructed_peer(self, peer_class, bound):
        path = Key("01")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            peers = [peer_class(f"n{i}", path, rng=i)
                     for i in range(self.PEERS)]
            gained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(peers) == self.PEERS
        assert gained / self.PEERS <= bound

    def test_first_draw_bytes(self):
        """A peer's first reference draw buffers words of its stream,
        not a generator: at most 512 bytes gained per peer (a private
        ``random.Random`` is 2.5 KiB of Mersenne-Twister state)."""
        refs = ["r0", "r1", "r2"]
        peers = [PGridPeer(f"n{i}", Key("01"), rng=i)
                 for i in range(self.PEERS)]
        for peer in peers:
            peer.routing_table = [refs, refs]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for peer in peers:
                peer._pick_reference(0)
            gained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert gained / self.PEERS <= 512


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
    """An upload holds only what it routes, and a stored triple copy
    leaves behind only what storing it needs.

    The key caches are warmed first, so only per-write state counts.
    An upload groups its triples by key and sends the groups as one
    write that splits where the keys diverge.  In flight, before any
    delegate has answered, it is the tuple of triples each key carries
    plus, once per upload, its future and fan-out ledger with the
    ledger's timeout, and one sub-request — payload, key groups,
    message and delivery — per trie level where the keys leave the
    origin's path: 1.06 objects per key (645 for 607 keys, CPython
    3.11).  The budget of 1.5 per key has no room for a pending entry,
    a timeout handle or a future per key (13.01 per key when every key
    was routed on its own).  A stored copy is a share of its store
    bucket (every key is fresh here) and a count in the copy table:
    0.69 measured (620 for 900 copies).  The budget of 0.8 has no room
    for index buckets or synopsis entries built on write (2.06 when
    every first copy was indexed and counted at once), a record
    wrapping the triple (2.40 before that) or a ``(position, term)``
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
        # Every key leaves the origin: none is stored on the spot.
        origin = next(peer for peer in net.peers.values()
                      if not any(peer.is_responsible_for(key)
                                 for key in keys))
        futures = []
        growth = tracked_growth(
            lambda: futures.append(origin.insert_triples(batch)))
        # Seven predicates: 300 subject, 7 predicate and 300 object keys.
        assert len(keys) == 2 * self.TRIPLES + 7
        assert len(origin._tasks) == 1
        assert growth / len(keys) <= 1.5
        net.settle()
        results = futures[0].result()
        assert len(results) == len(keys)
        assert all(result.success for result in results)

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
        assert growth / stored <= 0.8


class TestReadPath:
    """A one-key read holds only what it routes.

    In flight, before its answer has arrived, a ``retrieve`` is its
    future and the future's bound ``set_result`` (the ledger's one
    result callback), the ledger with its timeout event and heap entry
    (the ledger is its own timeout callback, and its tried first hops
    are a dict the collector does not track), and one route — payload,
    message, delivery event, heap entry and argument tuple: 10.0
    objects per read (CPython 3.11).  The budget of 11 is what the
    pending-op table it replaced held; it has no room for a bound
    timeout method or a tried-hops set per read, nor for a closure.
    """

    READS = 200

    def test_in_flight_budget_per_one_key_read(self):
        from repro.util.hashing import uniform_hash

        net = GridVineNetwork.build(num_peers=64, seed=5)
        origin = net.peer(net.peer_ids()[0])
        keys = [key for key in (uniform_hash(f"read {i}")
                                for i in range(self.READS))
                if not origin.is_responsible_for(key)]
        for key in keys:  # warm the shared key cache
            Key.of(key.bits)
        futures = []
        growth = tracked_growth(
            lambda: futures.extend(origin.retrieve(key) for key in keys))
        assert len(origin._tasks) == len(keys) > self.READS // 2
        assert growth / len(keys) <= 11
        net.settle()
        assert all(future.result().success for future in futures)
        assert not origin._tasks


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
