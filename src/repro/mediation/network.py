"""The whole-system harness: build and drive a GridVine deployment.

:class:`GridVineNetwork` is the one mediation facade: the
:class:`~repro.pgrid.overlay.PGridOverlay` spine (engine, peers,
origins, membership, :meth:`~repro.pgrid.overlay.PGridOverlay.call`)
plus what is mediation.  It exposes a *synchronous* façade over the
asynchronous protocol, and every operation on it — each ``Update`` of
a schema, triples or a mapping, each mediation read, the paper's
``SearchFor`` and the engine batches of
:class:`~repro.engine.core.QueryEngine` — is one ``call``: a peer
method *submitted* to the engine and waited for, so its attribution
scope (``op:<ref>``), trace root and loop driving are the engine's,
identical on one event loop and on N shards.  Examples, tests and
benchmarks all talk to this class.

The harness view is deliberately omniscient (it can read any peer's
state directly) — that power is only used for ground-truth checks and
reporting, never inside protocol logic.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from typing import Any

from repro.connectivity.indicator import indicator_from_degrees
from repro.exec.plans import check_limit, check_max_hops
from repro.mapping.graph import MappingGraph
from repro.mapping.model import PredicateCorrespondence, SchemaMapping
from repro.mediation.keys import schema_key
from repro.mediation.peer import GridVinePeer
from repro.mediation.records import ConnectivityRecord, mappings_in
from repro.mediation.query import QueryOutcome
from repro.pgrid.membership import join_network
from repro.pgrid.overlay import PGridOverlay, build_overlay
from repro.rdf.parser import parse_search_for
from repro.rdf.patterns import ConjunctiveQuery
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.simnet.latency import LatencyModel
from repro.util.keys import Key


def graph_of_spaces(spaces: dict[str, list],
                    include_deprecated: bool = False) -> MappingGraph:
    """The mapping graph a read of schema key spaces shows (``spaces``
    is ``{schema name: records}``, as :meth:`GridVineNetwork.
    schema_spaces` returns): every schema, by name, then each one's
    mapping records (active only by default), by id."""
    graph = MappingGraph()
    names = sorted(spaces)
    for name in names:
        graph.add_schema(name)
    for name in names:
        for mapping in mappings_in(spaces[name], include_deprecated):
            graph.add(mapping)
    return graph


class GridVineNetwork(PGridOverlay):
    """A simulated GridVine deployment of N peers, on either engine.

    Parameters
    ----------
    engine, peers, rng:
        As for :class:`~repro.pgrid.overlay.PGridOverlay`.
    mappings:
        Schema mappings the overlay already holds (both directions of
        every bidirectional insert).  Replayed as ``"insert"`` events
        to each newly registered mapping listener, so an engine created
        over a preloaded deployment starts with a complete mirror
        without crawling the overlay.

    Writes, reads, queries, tracing and :meth:`settle` need nothing
    but the engine surface and work on every engine.  One caveat
    survives: under ``mode="process"`` the controller's peers are
    pre-fork copies, so mapping-event hooks fire in the worker and
    peer state read here (diagnostics) is the pre-fork state.
    """

    def __init__(self, engine: Any,
                 peers: dict[str, GridVinePeer],
                 rng: random.Random | None = None,
                 failover: bool = True,
                 refs_per_level: int = 2,
                 mappings: Sequence[SchemaMapping] = ()) -> None:
        super().__init__(engine, peers, rng)
        #: mappings already in the overlay, replayed to new listeners
        self._mappings = list(mappings)
        #: whether peers created later (joins) use replica failover
        self.failover = failover
        #: the deployment's routing-table redundancy target (what
        #: maintenance repairs thin levels back up to)
        self.refs_per_level = refs_per_level
        #: lazily-built unified metrics registry (see :attr:`registry`)
        self._registry = None
        #: deployment-wide mapping-event listeners ``fn(action,
        #: mapping)``; every peer's issuing-path hook relays here so a
        #: :class:`~repro.engine.core.QueryEngine` sees mutations from
        #: any origin (including the self-organization loop)
        self._mapping_listeners: list = []
        for peer in self.peers.values():
            peer.mapping_hooks.append(self._emit_mapping_event)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        num_peers: int,
        key_sample: Sequence[Key] | None = None,
        replication: int = 1,
        refs_per_level: int = 2,
        latency: LatencyModel | None = None,
        seed: int = 0,
        timeout: float = 15.0,
        max_retries: int = 2,
        failover: bool = True,
    ) -> "GridVineNetwork":
        """Build a deployment; parameters mirror
        :meth:`repro.pgrid.overlay.PGridOverlay.build` plus
        ``failover`` (replica-aware retry steering, see
        :class:`~repro.pgrid.peer.PGridPeer`)."""
        engine, peers, rng = build_overlay(
            num_peers,
            lambda node_id, path, peer_rng: GridVinePeer(
                node_id, path, rng=peer_rng, timeout=timeout,
                max_retries=max_retries, failover=failover),
            key_sample=key_sample, replication=replication,
            refs_per_level=refs_per_level, latency=latency, seed=seed,
        )
        return cls(engine, peers, rng,
                   failover=failover, refs_per_level=refs_per_level)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def join(self, node_id: str) -> GridVinePeer:
        """Add a new GridVine peer to the live deployment."""
        rng = self._harness_rng()

        def factory(new_id: str, path: Key) -> GridVinePeer:
            peer = GridVinePeer(new_id, path, rng=rng.random(),
                                failover=self.failover)
            peer.mapping_hooks.append(self._emit_mapping_event)
            return peer

        self._sorted_peers = None
        return join_network(self.network, self.peers, node_id, factory,
                            rng=random.Random(rng.random()))

    def settle(self) -> None:
        """Run the engine until quiescence (replication, republication
        and other background traffic finishes)."""
        self.engine.run_until_quiescent()

    # ------------------------------------------------------------------
    # Mapping events and the query engine
    # ------------------------------------------------------------------

    def _emit_mapping_event(self, action: str, mapping) -> None:
        for listener in self._mapping_listeners:
            listener(action, mapping)

    def add_mapping_listener(self, listener) -> None:
        """Subscribe ``fn(action, mapping)`` to every mapping mutation
        issued anywhere in the deployment (``action`` is one of
        ``"insert"``, ``"remove"``, ``"deprecate"``); the mappings the
        deployment was constructed with are replayed first."""
        self._mapping_listeners.append(listener)
        for mapping in self._mappings:
            listener("insert", mapping)

    def create_engine(self, domain: str | None = None,
                      max_hops: int = 5,
                      cache_capacity: int = 256):
        """A new :class:`~repro.engine.core.QueryEngine` bound to this
        deployment (plan caching + batched execution).

        Pass ``domain`` to backfill the engine's mapping-graph mirror
        from the overlay when mappings were already inserted; engines
        created before any mapping stay in sync automatically.
        """
        from repro.engine.core import QueryEngine
        engine = QueryEngine(self, domain=domain, max_hops=max_hops,
                             cache_capacity=cache_capacity)
        registry = self.registry
        name = "engine"
        if name in registry.view_names():
            index = 2
            while f"engine:{index}" in registry.view_names():
                index += 1
            name = f"engine:{index}"
        registry.register_view(name, engine.stats.snapshot)
        return engine

    # ------------------------------------------------------------------
    # Synchronous mediation operations
    # ------------------------------------------------------------------

    def insert_schema(self, schema: Schema, origin: str | None = None) -> None:
        """Insert a schema definition from ``origin`` (random default)."""
        self.call("insert_schema", schema, origin=origin)

    def insert_triples(self, triples: Sequence[Triple],
                       origin: str | None = None) -> None:
        """Insert data triples (each indexed under its three keys)."""
        self.call("insert_triples", list(triples), origin=origin)

    def insert_mapping(self, mapping: SchemaMapping,
                       bidirectional: bool = False,
                       origin: str | None = None) -> None:
        """Insert a schema mapping."""
        self.call("insert_mapping", mapping, bidirectional, origin=origin)

    def remove_mapping(self, mapping: SchemaMapping) -> None:
        """Remove a schema mapping entirely (from a random peer)."""
        self.call("remove_mapping", mapping)

    def deprecate_mapping(self, mapping: SchemaMapping) -> None:
        """Flag a mapping as deprecated (from a random peer)."""
        self.call("deprecate_mapping", mapping)

    def create_mapping(
        self,
        source: Schema,
        target: Schema,
        attribute_pairs: Iterable[tuple[str, str]],
        confidence: float = 1.0,
        origin: str | None = None,
    ) -> SchemaMapping:
        """Convenience: build a user-defined equivalence mapping from
        attribute-name pairs and insert it (directed, source ->
        target)."""
        creator = self._origin(origin)
        correspondences = [
            PredicateCorrespondence(source.predicate(a), target.predicate(b))
            for a, b in attribute_pairs
        ]
        mapping = SchemaMapping(
            creator.mint_guid(f"map:{source.name}->{target.name}"),
            source.name,
            target.name,
            correspondences,
            confidence=confidence,
        )
        self.insert_mapping(mapping, origin=creator.node_id)
        return mapping

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def search_for(self, query: ConjunctiveQuery | str,
                   strategy: str = "iterative",
                   max_hops: int = 5,
                   origin: str | None = None,
                   limit: int | None = None) -> QueryOutcome:
        """Issue a ``SearchFor`` and block until its outcome.

        ``query`` may be a parsed query or the paper's surface syntax,
        e.g. ``"SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"``.

        ``strategy`` is one of:

        ``"local"``
            No reformulation — only data under the query's own schema.
        ``"iterative"``
            The origin fetches mapping records itself and issues every
            reformulation it can derive (§4).
        ``"recursive"``
            Reformulation is delegated hop-by-hop to the peers holding
            the mappings (§4).
        ``"auto"``
            The origin's cost-based optimizer picks one of the above
            per query from gossiped synopses (static fallback until
            statistics arrive; ``outcome.decision`` says which).

        ``limit`` is pushed *into* the distributed execution: the
        streaming pipeline stops issuing pattern fetches and
        reformulation fan-out the moment ``limit`` distinct rows have
        arrived (cooperative cancellation), and the outcome's
        streaming statistics report the fetches skipped and the
        estimated messages saved.

        For repeated / high-volume workloads, prefer an engine from
        :meth:`create_engine`: it caches reformulation plans across
        calls and dedupes pattern lookups within a batch.
        """
        check_limit(limit)
        check_max_hops(max_hops)
        if isinstance(query, str):
            query = parse_search_for(query)
        outcome, messages = self.call("search_for", query, strategy,
                                      max_hops, limit, origin=origin)
        outcome.messages = messages
        return outcome

    def run_batch(self, peer, queries, plans, limit: int | None = None):
        """Run a pre-planned engine batch where ``peer`` lives.

        The transport seam under
        :meth:`repro.engine.core.QueryEngine.execute_batch`: the
        engine owns planning (its mapping-graph mirror and plan
        cache); the planned batch crosses into the deployment as one
        attributed ``execute_planned_batch`` submission, concurrent
        with whatever else is already submitted.

        Returns ``(outcomes, fetch_stats, messages)``.
        """
        (outcomes, fetch_stats), messages = self.call(
            "execute_planned_batch", queries, plans, limit,
            origin=peer.node_id)
        return outcomes, fetch_stats, messages

    # ------------------------------------------------------------------
    # Connectivity (§3.1) and graph reconstruction
    # ------------------------------------------------------------------

    def connectivity_records(self, domain: str = "default",
                             origin: str | None = None) -> list[ConnectivityRecord]:
        """Fetch the domain's connectivity records through the overlay."""
        records, _ = self.call("fetch_connectivity", domain, origin=origin)
        return sorted(records, key=lambda r: r.schema_name)

    def connectivity_indicator(self, domain: str = "default") -> float:
        """The indicator ``ci`` computed from published degree records."""
        records = self.connectivity_records(domain)
        return indicator_from_degrees([r.degree_pair for r in records])

    def schema_spaces(self, schema_names: Iterable[str],
                      origin: str | None = None) -> dict[str, list]:
        """Every record at each schema's key space — its definition,
        outgoing mapping records and incoming markers — by name, read
        as one split ``retrieve_many`` of the schema keys."""
        keys = {name: schema_key(name) for name in schema_names}
        spaces, _ = self.call("retrieve_many", list(keys.values()),
                              origin=origin)
        return {name: spaces[key] for name, key in keys.items()}

    def mapping_graph(self, domain: str = "default",
                      include_deprecated: bool = False) -> MappingGraph:
        """The domain's mapping graph, read through the overlay.

        Two reads from one origin (a harness-rng draw): the
        domain's connectivity records name its schemas, and one
        :meth:`schema_spaces` read returns every schema's mapping
        records.  This reads the whole graph, which is what the
        indicator exists to avoid; the self-organization controller
        and a query engine's mirror build use it, as do ground-truth
        checks in tests and experiments.
        """
        origin = self.random_peer().node_id
        records = self.connectivity_records(domain, origin)
        return graph_of_spaces(
            self.schema_spaces([r.schema_name for r in records], origin),
            include_deprecated)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def total_triples_stored(self) -> int:
        """Sum of local triple-database sizes (includes replication)."""
        return sum(peer.db.count() for peer in self.peers.values())

    def metrics_snapshot(self) -> dict:
        """Network counters, for bench reporting: the engine's
        :class:`~repro.simnet.metrics.NetworkMetrics` summed over its
        transports — the same shape on one loop and on N shards."""
        return self.engine.metrics_snapshot()

    # ------------------------------------------------------------------
    # Observability (see repro.obs)
    # ------------------------------------------------------------------

    @property
    def registry(self):
        """The deployment's metrics registry (lazily built).

        :meth:`metrics_snapshot` is registered as the ``network`` view
        on first access; engines created via :meth:`create_engine` add
        ``engine`` views.  Views snapshot the live stat bags on demand
        — nothing on the message path changes.
        """
        registry = self._registry
        if registry is None:
            from repro.obs.registry import MetricsRegistry
            registry = self._registry = MetricsRegistry()
            registry.register_view("network", self.metrics_snapshot)
        return registry

    def install_tracer(self, seed: int = 0, capacity: int = 200_000):
        """Install span recording on the engine, on any engine.

        Every query issued afterwards produces one causal trace
        ``op:<ref>`` (root span per ``search_for`` / engine batch, hop
        span per attributed message).  The ``tracer`` registry view
        summarises what the engine's transports recorded.  Returns the
        single loop's recorder; a sharded engine has one per shard
        (read them through :meth:`trace_records`) and returns ``None``.
        """
        self.engine.install_tracer(seed=seed, capacity=capacity)
        self.registry.register_view("tracer", self._tracer_view)
        net = getattr(self.engine, "net", None)
        return None if net is None else net.tracer

    def _tracer_view(self) -> dict:
        from repro.obs.tracer import summarize_records
        stats = self.engine.shard_stats()
        return summarize_records(
            [r for entry in stats for r in entry.get("spans", ())],
            sum(entry.get("spans_dropped", 0) for entry in stats))

    def trace_records(self) -> list[dict]:
        """All recorded span/event dicts in deterministic order."""
        return self.engine.trace_records()

    def export_trace(self, path: str) -> int:
        """Write recorded spans/events as sorted JSONL; returns count."""
        from repro.obs.tracer import export_records_jsonl
        return export_records_jsonl(self.trace_records(), path)
