"""The GridVine peer: P-Grid node + semantic mediation layer.

A :class:`GridVinePeer` extends :class:`~repro.pgrid.peer.PGridPeer`
with the paper's mediation operations:

* ``Update(data)`` / ``Update(schema)`` / ``Update(mapping)`` /
  ``Update(connectivity)`` — all reduce to overlay ``Update(key,
  values)`` calls, with triples or a schema themselves or a typed
  record as the values, at the key derivations of
  :mod:`repro.mediation.keys`; an upload of triples groups them by
  key and sends the groups as one write that splits where the keys
  diverge;
* ``SearchFor(query)`` — triple-pattern and conjunctive queries with
  three execution strategies:

  ``"local"``
      No reformulation: resolve the query's patterns by overlay lookup
      and join at the origin.

  ``"iterative"``
      The origin "iteratively looks for paths of mappings and
      reformulates the query by itself" (§4): it retrieves the schema
      key spaces it learns about, translates the query through the
      mappings found there, and issues every distinct reformulation.

  ``"recursive"``
      "The successive reformulations are delegated to intermediate
      peers" (§4): the query travels to the peer holding the source
      schema's mappings; that peer reformulates with its local
      mappings, forwards to the next schema peers, executes the query
      it received, and streams results straight back to the origin.
      The origin knows it has heard from every delegate through the
      overlay's :class:`~repro.pgrid.peer.FanoutTask` ledger (each
      request reports the ids of the sub-requests it forwarded), with
      a virtual-time timeout as a safety net against message loss
      under churn.

All three strategies execute through the streaming operator runtime of
:mod:`repro.exec`: this module builds the operator DAG (via
:mod:`repro.exec.plans`) and contributes the overlay primitives the
operators drive — pattern fetches (:meth:`GridVinePeer.
_search_pattern`), schema-space reads and the recursive strategy
(:meth:`GridVinePeer.recursive_query` beside the handlers it talks
to).  ``SearchFor`` therefore supports **limit pushdown**: a
``limit`` makes the pipeline cancel its remaining fan-out the moment
enough distinct answers arrived, and the outcome reports what the
early stop saved.

Degree bookkeeping (§3.1) is event-driven: whenever mapping records at
a schema's key space change, the peer holding that schema definition
recomputes ``(InDegree, OutDegree)`` over *active* mappings and
republishes a :class:`~repro.mediation.records.ConnectivityRecord`
under ``Hash(Domain)``.  The domain peer keeps one record per schema,
the one with the highest ``(sequence, publisher)`` version, so records
that overtake each other in the overlay and replicas republishing
concurrently converge.  The sequence counts one schema's publications,
so every holder of the schema counts alike, and a peer joining the
holders' replica group continues its host's count.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from typing import Any

from repro.exec.plans import execute_query_rows, run_query_plan
from repro.mapping.model import SchemaMapping
from repro.mapping.unfolding import query_schemas
from repro.mediation.keys import domain_key, group_by_key, schema_key, term_key
from repro.util.hashing import prefix_interval
from repro.util.keys import covering_prefixes
from repro.mediation.records import (
    ConnectivityRecord,
    IncomingMappingRecord,
    MappingRecord,
)
from repro.pgrid.peer import FanoutTask, PGridPeer, task_origin
from repro.optimizer.core import QueryOptimizer
from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
from repro.rdf.triples import Triple
from repro.reformulation.planner import translations
from repro.schema.model import Schema
from repro.simnet.events import CancelToken, Future, gather
from repro.simnet.network import Message
from repro.stats.synopsis import PeerSynopsis, mapping_edges
from repro.storage.triplestore import TripleStore
from repro.util.guid import mint_guid
from repro.util.keys import Key

#: How long (virtual seconds) a schema peer remembers the queries it
#: has already processed for one recursive task.
_REFO_SEEN_TTL = 600.0


class GridVinePeer(PGridPeer):
    """A peer participating in all three GridVine layers."""

    #: virtual seconds a recursive query waits for its reformulation
    #: reports before it resolves with what arrived
    query_timeout = 120.0

    def __init__(
        self,
        node_id: str,
        path: Key,
        rng: "int | float | str | None" = None,
        timeout: float = 15.0,
        max_retries: int = 2,
        failover: bool = True,
    ) -> None:
        super().__init__(node_id, path, rng=rng, timeout=timeout,
                         max_retries=max_retries, failover=failover)
        #: conjunctive-join execution mode: ``"parallel"`` resolves all
        #: patterns independently and joins at the origin (the paper's
        #: "iteratively resolving each triple pattern ... and
        #: aggregating"); ``"bound"`` resolves patterns sequentially,
        #: substituting earlier bindings into later patterns (a bound
        #: join — ships far fewer tuples on selective queries)
        self.join_mode = "parallel"
        #: bound-join fan-out cap: above this many distinct
        #: substitutions a pattern is fetched unbound instead
        self.bound_join_fanout_cap = 24
        #: local triple database DB_p (triples routed here by any key)
        self.db = TripleStore()
        #: schema definitions stored in this peer's key space
        self.local_schemas: dict[str, Schema] = {}
        #: outgoing mapping records stored here, by mapping id
        self.local_mappings: dict[str, SchemaMapping] = {}
        #: incoming-edge markers stored here, by mapping id
        self.incoming_mappings: dict[str, SchemaMapping] = {}
        #: record last published per schema: suppresses redundant
        #: republication, and the schema's next record continues its
        #: sequence
        self._published_connectivity: dict[str, ConnectivityRecord] = {}
        #: true while :meth:`clone_store` replays a replica's store
        self._cloning = False
        #: recursive-strategy handler-side dedup sets, per task
        self._refo_seen: dict[str, set[ConjunctiveQuery]] = {}
        #: mapping-event hooks ``fn(action, mapping)`` fired on the
        #: issuing path of insert/remove/deprecate — the versioning
        #: signal consumed by :mod:`repro.engine` plan caches
        self.mapping_hooks: list = []
        #: monotone counter bumped on local mapping-record changes;
        #: folded into the synopsis digest version
        self._mapping_stats_version = 0
        self._digest_cache: tuple[int, PeerSynopsis] | None = None
        self.register_handler("refo_results", self._handle_refo_results)

    @cached_property
    def optimizer(self) -> QueryOptimizer:
        """Cost-based query optimizer over the peer's synopsis
        registry (built, like it, on first use); consulted by
        ``strategy="auto"`` only (static strategies and engine batches
        keep their historical behaviour bit for bit)."""
        return QueryOptimizer(self)

    # ------------------------------------------------------------------
    # Statistics (see repro.stats)
    # ------------------------------------------------------------------

    def synopsis_digest(self) -> PeerSynopsis:
        """This peer's current statistics digest.

        Counts the triple database's statistics in one pass over its
        copy table (no index is built) and adds the active mapping
        edges stored here; the version is the sum of both monotone
        change counters, so any local mutation makes the next digest
        win merges, and an unchanged version reuses the last digest.
        """
        version = self.db.version + self._mapping_stats_version
        if (self._digest_cache is not None
                and self._digest_cache[0] == version):
            return self._digest_cache[1]
        digest = self.db.digest(
            self.node_id, version=version,
            mappings=mapping_edges(self.local_mappings.values()),
            path=self.path.bits,
        )
        self._digest_cache = (version, digest)
        return digest

    # ------------------------------------------------------------------
    # Identifier minting
    # ------------------------------------------------------------------

    def mint_guid(self, local_identifier: str) -> str:
        """A globally unique id: ``pi(p)`` + hash of the local name."""
        return mint_guid(self.path, local_identifier)

    # ------------------------------------------------------------------
    # Mediation-layer updates
    # ------------------------------------------------------------------

    def insert_triple(self, triple: Triple) -> Future:
        """``Update(t)``: the triple under its three position keys
        (fewer when two positions share a key), as one write."""
        return self.insert_triples([triple])

    def insert_triples(self, triples: list[Triple]) -> Future:
        """``Update(t)`` for each triple, set at a time.

        Every triple is published under each of its three keys (§2.2),
        and within one upload those keys repeat — a predicate's key is
        shared by every triple with that predicate.  The triples are
        grouped by key in first-occurrence order (:func:`group_by_key`)
        and the groups go out as one overlay write that splits where
        the keys diverge (:meth:`~repro.pgrid.peer.PGridPeer.
        update_many`), resolving to one result per key in that order.
        """
        return self.update_many(group_by_key(triples))

    def remove_triple(self, triple: Triple) -> Future:
        """Delete a triple from all three position key spaces, as one
        write."""
        return self.update_many(group_by_key([triple]), "remove")

    def insert_schema(self, schema: Schema) -> Future:
        """``Update(Schema)``: definition stored at ``Hash(Schema Name)``."""
        return self.update(schema_key(schema.name), (schema,))

    def _fire_mapping_event(self, action: str,
                            mapping: SchemaMapping) -> None:
        """Notify :attr:`mapping_hooks` of one issued mapping mutation.

        Fired on the *issuing* path (not on record replication), so
        every logical operation produces exactly one event per
        direction, in deterministic issuing order.
        """
        for hook in self.mapping_hooks:
            hook(action, mapping)

    def _write_mapping_records(self, mapping: SchemaMapping,
                               action: str = "insert") -> Future:
        """Insert (or remove) a mapping's record at its source schema's
        key space and its incoming marker at the target's."""
        return gather([
            self.update(schema_key(mapping.source_schema),
                        (MappingRecord(mapping),), action),
            self.update(schema_key(mapping.target_schema),
                        (IncomingMappingRecord(mapping),), action),
        ])

    def insert_mapping(self, mapping: SchemaMapping,
                       bidirectional: bool = False) -> Future:
        """``Update(Schema Mapping)``.

        The mapping lands at the source schema's key space; an
        incoming-edge marker lands at the target's so that peer can
        account for its in-degree.  A bidirectional mapping is the
        pair of directed mappings (the reverse direction is derived
        from the equivalence correspondences) — "or at the key spaces
        corresponding to both schemas if the mapping is bidirectional".
        """
        self._fire_mapping_event("insert", mapping)
        ops = [self._write_mapping_records(mapping)]
        if bidirectional:
            reverse = mapping.reversed()
            self._fire_mapping_event("insert", reverse)
            ops.append(self._write_mapping_records(reverse))
        return gather(ops)

    def remove_mapping(self, mapping: SchemaMapping) -> Future:
        """Delete a directed mapping's record and its incoming marker."""
        self._fire_mapping_event("remove", mapping)
        return self._write_mapping_records(mapping, "remove")

    def deprecate_mapping(self, mapping: SchemaMapping) -> Future:
        """Mark a mapping deprecated (§3.2): it keeps existing but is
        ignored for reformulation and connectivity accounting."""
        deprecated = mapping.with_deprecated(True)
        self._fire_mapping_event("deprecate", deprecated)
        return gather([
            self._write_mapping_records(mapping, "remove"),
            self._write_mapping_records(deprecated),
        ])

    # ------------------------------------------------------------------
    # Mediation-layer reads
    # ------------------------------------------------------------------

    def fetch_connectivity(self, domain: str) -> Future:
        """All :class:`ConnectivityRecord`s of a domain."""
        out: Future = Future()
        fut = self.retrieve(domain_key(domain))
        fut.add_done_callback(lambda f: out.set_result([
            r for r in (f.result().values or [])
            if isinstance(r, ConnectivityRecord)
        ]))
        return out

    # ------------------------------------------------------------------
    # SearchFor
    # ------------------------------------------------------------------

    def search_for(self, query: ConjunctiveQuery, strategy: str = "iterative",
                   max_hops: int = 5, limit: int | None = None) -> Future:
        """Resolve a query; resolves to a :class:`QueryOutcome`.

        ``strategy`` selects where reformulation runs: ``"local"``
        (no reformulation), ``"iterative"`` (the origin walks mapping
        paths itself) or ``"recursive"`` (reformulation is delegated
        to the schema peers) — see the module docstring for the
        paper's definitions.  ``"auto"`` lets the peer's cost-based
        :attr:`optimizer` pick among the three per query (plus join
        mode, scan order and reformulation pruning) from propagated
        statistics; the :class:`~repro.optimizer.core.PlanDecision`
        is recorded on the outcome.  Conjunctive joins otherwise
        honour :attr:`join_mode` (``"parallel"`` or ``"bound"``).

        ``max_hops`` bounds the length of mapping paths explored (the
        recursive strategy's TTL / the iterative strategy's BFS
        depth).  ``limit`` caps the number of distinct result rows:
        once reached, the streaming pipeline cooperatively cancels all
        remaining fan-out (limit pushdown), and the outcome's
        streaming statistics report the fetches that saved.
        """
        for pattern in query.patterns:
            pattern.routing_position()  # raises early on unroutable patterns
        return run_query_plan(self, query, strategy=strategy,
                              max_hops=max_hops, limit=limit)

    def execute_planned_batch(self, queries: list[ConjunctiveQuery],
                              plans: list[list[Any]],
                              limit: int | None = None) -> Future:
        """Run a pre-planned query batch from this peer.

        The transport-boundary twin of
        :func:`repro.engine.executor.execute_batch`: planning happens
        wherever the mapping-graph mirror lives (a
        :class:`~repro.engine.core.QueryEngine`, or a scale-out
        controller), and execution happens *here*, against whatever
        transport this peer is attached to — the engine batch is one
        ``engine.submit(origin, "execute_planned_batch", ...)`` on the
        single loop and on shards alike.
        Resolves to ``(outcomes, fetch_stats)``; both are plain data,
        so the result crosses process-mode worker pipes unchanged.
        """
        from repro.engine.executor import execute_batch

        return execute_batch(self, queries, plans, limit=limit)

    # -- data-layer execution ------------------------------------------

    def _search_pattern(self, pattern: TriplePattern,
                        cancel: CancelToken | None = None) -> Future:
        """Route one pattern to its key space; resolves to rows.

        Rows are value tuples in ``pattern.schema`` order, exactly as
        the destination's :meth:`TripleStore.match` produced them.

        Exact routing constants resolve with a one-key split read
        (:meth:`~repro.pgrid.peer.PGridPeer.read_many`) of ``search`` at
        the constant's key space, carrying the pattern as a 1-tuple (a
        ``search`` carries a tuple of patterns and is answered with one
        row list per pattern — the batched reads of
        :meth:`~repro.exec.stream.PipelineContext.read_scans` read many
        keys of them at once).  A ``prefix%`` routing constant has
        no single key; its matches occupy a contiguous key *interval*
        (order-preserving hash), which is fetched with overlay range
        queries over the interval's covering prefixes and matched
        against the pattern at the origin.  ``cancel`` propagates
        cooperative cancellation: a fired token stops retries and
        resolves the fetch (empty) immediately.
        """
        if pattern.routing_mode() == "prefix":
            return self._search_pattern_by_prefix(pattern, cancel=cancel)
        out: Future = Future()

        def _on_result(result) -> None:
            out.set_result(result.values[0] if result.values else [])

        self.read_many("search", {term_key(pattern.routing_constant()):
                                  (pattern,)}, _on_result, cancel)
        return out

    #: decomposition depth for prefix-pattern range queries; bounds the
    #: fan-out at 2 * depth subtree queries (over-covered results are
    #: filtered by pattern matching at the origin)
    _RANGE_COVER_DEPTH = 16

    def _search_pattern_by_prefix(self, pattern: TriplePattern,
                                  cancel: CancelToken | None = None
                                  ) -> Future:
        needle = pattern.routing_constant().prefix_needle  # type: ignore[union-attr]
        low, high = prefix_interval(needle)
        covers = covering_prefixes(low, high,
                                   max_length=self._RANGE_COVER_DEPTH)
        out: Future = Future()

        def _on_ranges(f: Future) -> None:
            # One row per distinct matching triple, in arrival order.
            triples = dict.fromkeys(
                value for result in f.result()
                for value in result.values or ()
                if isinstance(value, Triple))
            out.set_result(pattern.prepared().scan(triples))

        gather([self.range_query(c, cancel=cancel) for c in covers]
               ).add_done_callback(_on_ranges)
        return out

    # -- recursive strategy ---------------------------------------------

    def recursive_query(self, query: ConjunctiveQuery, max_hops: int,
                        cancel: CancelToken, on_rows: Any,
                        on_finish: Any) -> None:
        """Origin side of the recursive strategy.

        Sends ``query`` to the peer holding its source schema's
        mappings (:meth:`_handle_reformulate` takes it from there).
        ``on_rows(query, rows)`` receives each reformulation's results
        as they stream back; ``on_finish(complete)`` runs once: when
        every delegate has settled or ``cancel`` fires (a satisfied
        limit — still complete), or incomplete when
        :attr:`query_timeout` expires first.
        """
        task = FanoutTask(self, on_finish, on_results=on_rows)
        primary_schema = min(query_schemas(query))
        task.start("reformulate", schema_key(primary_schema), {
            "query": query,
            "visited": [primary_schema],
            "ttl": max_hops,
        }, self.query_timeout)
        cancel.on_cancel(lambda: task.finish(True))

    def _handle_reformulate(self, value: dict) -> dict:
        """Schema-peer side of the recursive strategy.

        Returns the report ``{"spawned": [...], "executes": bool}``
        delivered to the task origin as the route reply: ``spawned``
        lists the request ids of the sub-requests this peer forwarded,
        and ``executes`` says whether a separate ``refo_results``
        message will follow for this request.
        """
        task_id = value["task_id"]
        request_id = value["request_id"]
        query: ConjunctiveQuery = value["query"]
        visited = set(value["visited"])
        ttl = int(value["ttl"])
        seen = self._refo_seen.get(task_id)
        if seen is None:
            seen = set()
            self._refo_seen[task_id] = seen
            self.loop.schedule(_REFO_SEEN_TTL, self._refo_seen.pop,
                               task_id, None)
        if query in seen:
            return {"spawned": [], "executes": False}
        seen.add(query)
        spawned: list[str] = []
        if ttl > 0:
            # No dedup here: a repeat goes out and the receiving peer's
            # per-task ``seen`` set drops it.
            for mapping, translated in translations(
                    query, sorted(self.local_mappings.values(),
                                  key=lambda m: m.mapping_id),
                    None, visited):
                spawned.append(self._send_subrequest(
                    "reformulate", task_id,
                    schema_key(mapping.target_schema), {
                        "query": translated,
                        "visited": sorted(visited | {mapping.target_schema}),
                        "ttl": ttl - 1,
                    }
                ))

        def _on_rows(f: Future) -> None:
            self.send(task_origin(task_id), "refo_results", {
                "task_id": task_id,
                "request_id": request_id,
                "query": query,
                "rows": f.result(),
            })

        execute_query_rows(self, query).add_done_callback(_on_rows)
        return {"spawned": spawned, "executes": True}

    # ------------------------------------------------------------------
    # Protocol extensions
    # ------------------------------------------------------------------

    def _handle_refo_results(self, message: Message) -> None:
        task = self._tasks.get(message.payload["task_id"])
        if task is not None:
            task.on_result(message.payload["request_id"],
                           message.payload["query"],
                           message.payload["rows"])

    def _execute_op(self, op: str, key: Key, value: Any) -> Any:
        if op == "search":
            match = self.db.match
            return [match(pattern) for pattern in value]
        if op == "reformulate":
            return self._handle_reformulate(value)
        return super()._execute_op(op, key, value)

    def _carried(self, op: str, values: Any) -> int:
        if op == "search":
            return sum(map(len, values))  # rows, over every pattern
        return super()._carried(op, values)

    # ------------------------------------------------------------------
    # Record dispatch (storage side)
    # ------------------------------------------------------------------

    def _write_local(self, action: str, groups: dict) -> None:
        """Store and index a write: an insert of triples only extends
        its buckets and adds them all in one :meth:`TripleStore.add`; an
        insert holding any other value is dispatched value by value."""
        if action != "insert" or all(map(isinstance, chain.from_iterable(
                groups.values()), repeat(Triple))):
            super()._write_local(action, groups)
            if action == "insert":
                self.db.add(*chain.from_iterable(groups.values()))
            return
        self._sync_snapshot = None
        for bits, values in groups.items():
            for value in values:
                bucket = self.store.setdefault(bits, [])
                if isinstance(value, ConnectivityRecord):
                    # Highest version per schema: the domain key space
                    # holds one record per schema, and an older record
                    # arriving after a newer one (records race through
                    # the overlay) is dropped.
                    held = next((index for index, stored in enumerate(bucket)
                                 if isinstance(stored, ConnectivityRecord)
                                 and stored.schema_name == value.schema_name),
                                None)
                    if held is not None:
                        if bucket[held].version >= value.version:
                            continue
                        del bucket[held]
                bucket.append(value)
                if isinstance(value, Triple):
                    self.db.add(value)
                elif isinstance(value, Schema):
                    self.local_schemas[value.name] = value
                    self._republish_connectivity(value.name)
                elif isinstance(value, MappingRecord):
                    self.local_mappings[value.mapping.mapping_id] = (
                        value.mapping)
                    self._mapping_stats_version += 1
                    self._republish_connectivity(value.mapping.source_schema)
                elif isinstance(value, IncomingMappingRecord):
                    self.incoming_mappings[value.mapping.mapping_id] = (
                        value.mapping)
                    self._republish_connectivity(value.mapping.target_schema)

    def local_remove(self, key: Key, value: Any) -> int:
        removed = super().local_remove(key, value)
        if not removed:
            return removed
        if isinstance(value, Triple):
            # One database copy per removed store copy: the triple
            # leaves the database with its last copy at this peer.
            for _ in range(removed):
                self.db.remove(value)
        elif isinstance(value, Schema):
            self.local_schemas.pop(value.name, None)
        elif isinstance(value, MappingRecord):
            self.local_mappings.pop(value.mapping.mapping_id, None)
            self._mapping_stats_version += 1
            self._republish_connectivity(value.mapping.source_schema)
        elif isinstance(value, IncomingMappingRecord):
            self.incoming_mappings.pop(value.mapping.mapping_id, None)
            self._republish_connectivity(value.mapping.target_schema)
        return removed

    def clone_store(self, host: PGridPeer) -> None:
        """Clone ``host``'s store and take over its publications.

        The cloned degrees are the host's, which the host has already
        published, so the clone publishes nothing; it inherits the
        host's last record per schema, and its next record for a
        schema continues that schema's sequence.
        """
        self._cloning = True
        try:
            super().clone_store(host)
        finally:
            self._cloning = False
        self._published_connectivity.update(host._published_connectivity)

    # ------------------------------------------------------------------
    # Degree bookkeeping (§3.1)
    # ------------------------------------------------------------------

    def _local_degree(self, schema_name: str) -> tuple[int, int]:
        """(in, out) over active mappings recorded at this peer."""
        out_degree = sum(
            1 for m in self.local_mappings.values()
            if m.active and m.source_schema == schema_name
        )
        in_degree = sum(
            1 for m in self.incoming_mappings.values()
            if m.active and m.target_schema == schema_name
        )
        return (in_degree, out_degree)

    def _republish_connectivity(self, schema_name: str) -> None:
        """Push ``{Schema, InDegree, OutDegree}`` to ``Hash(Domain)``.

        Only the peer(s) holding the schema definition publish — the
        paper makes "each peer storing a schema definition responsible
        for updating the number of incoming and outgoing mappings
        attached to its schema".  No-ops when the degrees are the ones
        last published; otherwise the record's version is the schema's
        next sequence number and this peer.  Holders that saw the same
        degree changes count alike, so the highest sequence carries
        every change; between two holders at one sequence the publisher
        id breaks the tie, the same way at every replica.
        """
        schema = self.local_schemas.get(schema_name)
        if schema is None or self._cloning:
            return
        degrees = self._local_degree(schema_name)
        last = self._published_connectivity.get(schema_name)
        if last is not None and last.degree_pair == degrees:
            return
        sequence = 1 if last is None else last.version[0] + 1
        record = ConnectivityRecord(schema_name, *degrees,
                                    version=(sequence, self.node_id))
        self._published_connectivity[schema_name] = record
        self.update(domain_key(schema.domain), (record,))

