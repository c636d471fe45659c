"""The GridVine peer: P-Grid node + semantic mediation layer.

A :class:`GridVinePeer` extends :class:`~repro.pgrid.peer.PGridPeer`
with the paper's mediation operations:

* ``Update(data)`` / ``Update(schema)`` / ``Update(mapping)`` /
  ``Update(connectivity)`` — all reduce to overlay ``Update(key,
  value)`` calls, with the triple or schema itself or a typed record
  as the value, at the key derivations of :mod:`repro.mediation.keys`;
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
under ``Hash(Domain)``.  The domain peer keeps one record per schema
(last-writer-wins), so replicas republishing concurrently converge.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Any

from repro.exec.plans import execute_query_rows, run_query_plan
from repro.mapping.model import SchemaMapping
from repro.mapping.unfolding import query_schemas, translate_query
from repro.mediation.keys import domain_key, schema_key, term_key, triple_keys
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

    def __init__(
        self,
        node_id: str,
        path: Key,
        rng: "random.Random | int | float | str | None" = None,
        timeout: float = 15.0,
        max_retries: int = 2,
        query_timeout: float = 120.0,
        failover: bool = True,
    ) -> None:
        super().__init__(node_id, path, rng=rng, timeout=timeout,
                         max_retries=max_retries, failover=failover)
        self.query_timeout = query_timeout
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
        #: last connectivity record published per schema (suppresses
        #: redundant republication)
        self._published_connectivity: dict[str, ConnectivityRecord] = {}
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
        ``strategy="auto"`` and by engines executing with
        ``optimize=True`` (static strategies keep their historical
        behaviour bit for bit)."""
        return QueryOptimizer(self)

    # ------------------------------------------------------------------
    # Statistics (see repro.stats)
    # ------------------------------------------------------------------

    def synopsis_digest(self) -> PeerSynopsis:
        """This peer's current statistics digest.

        Combines the triple database's incrementally maintained
        synopsis with the active mapping edges stored here; the
        version is the sum of both monotone change counters, so any
        local mutation makes the next digest win merges.
        """
        version = self.db.synopsis.version + self._mapping_stats_version
        if (self._digest_cache is not None
                and self._digest_cache[0] == version):
            return self._digest_cache[1]
        digest = self.db.synopsis.digest(
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
        """``Update(t)``: three overlay updates, one per position key."""
        return self.insert_triples([triple])

    def insert_triples(self, triples: list[Triple]) -> Future:
        """``Update(t)`` for each triple: one overlay update per
        position key, triple by triple, under one flat gather that
        resolves to the 3 x len(triples) results in that order."""
        update = self.update
        return gather([update(key, triple)
                       for triple in triples for key in triple_keys(triple)])

    def remove_triple(self, triple: Triple) -> Future:
        """Delete a triple from all three position key spaces."""
        return gather([
            self.update(key, triple, action="remove")
            for key in triple_keys(triple)
        ])

    def insert_schema(self, schema: Schema) -> Future:
        """``Update(Schema)``: definition stored at ``Hash(Schema Name)``."""
        return self.update(schema_key(schema.name), schema)

    def _fire_mapping_event(self, action: str,
                            mapping: SchemaMapping) -> None:
        """Notify :attr:`mapping_hooks` of one issued mapping mutation.

        Fired on the *issuing* path (not on record replication), so
        every logical operation produces exactly one event per
        direction, in deterministic issuing order.
        """
        for hook in self.mapping_hooks:
            hook(action, mapping)

    def _insert_mapping_records(self, mapping: SchemaMapping) -> Future:
        return gather([
            self.update(schema_key(mapping.source_schema),
                        MappingRecord(mapping)),
            self.update(schema_key(mapping.target_schema),
                        IncomingMappingRecord(mapping)),
        ])

    def _remove_mapping_records(self, mapping: SchemaMapping) -> Future:
        return gather([
            self.update(schema_key(mapping.source_schema),
                        MappingRecord(mapping), action="remove"),
            self.update(schema_key(mapping.target_schema),
                        IncomingMappingRecord(mapping), action="remove"),
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
        ops = [self._insert_mapping_records(mapping)]
        if bidirectional:
            reverse = mapping.reversed()
            self._fire_mapping_event("insert", reverse)
            ops.append(self._insert_mapping_records(reverse))
        return gather(ops)

    def remove_mapping(self, mapping: SchemaMapping) -> Future:
        """Delete a directed mapping's record and its incoming marker."""
        self._fire_mapping_event("remove", mapping)
        return self._remove_mapping_records(mapping)

    def deprecate_mapping(self, mapping: SchemaMapping) -> Future:
        """Mark a mapping deprecated (§3.2): it keeps existing but is
        ignored for reformulation and connectivity accounting."""
        deprecated = mapping.with_deprecated(True)
        self._fire_mapping_event("deprecate", deprecated)
        return gather([
            self._remove_mapping_records(mapping),
            self._insert_mapping_records(deprecated),
        ])

    # ------------------------------------------------------------------
    # Mediation-layer reads
    # ------------------------------------------------------------------

    def fetch_schema_space(self, schema_name: str,
                           cancel: CancelToken | None = None) -> Future:
        """Retrieve every record at ``Hash(schema_name)``.

        Resolves to the raw record list (schema definition, outgoing
        mapping records and incoming markers).  ``cancel`` propagates
        cooperative cancellation into the underlying retrieve.
        """
        out: Future = Future()
        fut = self.retrieve(schema_key(schema_name), cancel=cancel)
        fut.add_done_callback(
            lambda f: out.set_result(list(f.result().values or []))
        )
        return out

    def fetch_mappings(self, schema_name: str,
                       include_deprecated: bool = False,
                       cancel: CancelToken | None = None) -> Future:
        """Active outgoing mappings of a schema, via the overlay."""
        out: Future = Future()

        def _on_records(f: Future) -> None:
            mappings = [
                r.mapping for r in f.result()
                if isinstance(r, MappingRecord)
                and (include_deprecated or r.mapping.active)
            ]
            out.set_result(sorted(mappings, key=lambda m: m.mapping_id))

        self.fetch_schema_space(schema_name, cancel=cancel
                                ).add_done_callback(_on_records)
        return out

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
                              limit: int | None = None,
                              optimizer: Any = None) -> Future:
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

        return execute_batch(self, queries, plans, limit=limit,
                             optimizer=optimizer)

    # -- data-layer execution ------------------------------------------

    def _search_pattern(self, pattern: TriplePattern,
                        cancel: CancelToken | None = None) -> Future:
        """Route one pattern to its key space; resolves to rows.

        Rows are value tuples in ``pattern.schema`` order, exactly as
        the destination's :meth:`TripleStore.match` produced them.

        Exact routing constants resolve with a single ``search`` op at
        the constant's key space.  A ``prefix%`` routing constant has
        no single key; its matches occupy a contiguous key *interval*
        (order-preserving hash), which is fetched with overlay range
        queries over the interval's covering prefixes and matched
        against the pattern at the origin.  ``cancel`` propagates
        cooperative cancellation: a fired token stops retries and
        resolves the fetch (empty) immediately.
        """
        if pattern.routing_mode() == "prefix":
            return self._search_pattern_by_prefix(pattern, cancel=cancel)
        key = term_key(pattern.routing_constant())
        out: Future = Future()

        def _on_result(f: Future) -> None:
            result = f.result()
            values = result.values if result.success else None
            out.set_result(list(values) if values else [])

        self._start_op("search", key, pattern,
                       cancel=cancel).add_done_callback(_on_result)
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

    def _execute_query(self, query: ConjunctiveQuery,
                       cancel: CancelToken | None = None) -> Future:
        """Resolve a query's patterns and project the distinguished
        variables; resolves to a set of result tuples.

        Runs a reformulation-free operator pipeline honouring
        :attr:`join_mode` — the data-layer primitive behind the local
        strategy and the recursive strategy's handler-side execution.
        """
        return execute_query_rows(self, query, cancel=cancel)

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
        ``Limit`` — still complete), or incomplete when
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
            source_schemas = query_schemas(query)
            for mapping in sorted(self.local_mappings.values(),
                                  key=lambda m: m.mapping_id):
                if not mapping.active:
                    continue
                if mapping.source_schema not in source_schemas:
                    continue
                if mapping.target_schema in visited:
                    continue
                translated = translate_query(query, mapping)
                if translated is None:
                    continue
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

        self._execute_query(query).add_done_callback(_on_rows)
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

    def _execute_op(self, op: str, key: Key, value: Any) -> tuple[list[Any] | None, bool]:
        if op == "search":
            return self.db.match(value), False
        if op == "reformulate":
            return self._handle_reformulate(value), False  # type: ignore[return-value]
        return super()._execute_op(op, key, value)

    # ------------------------------------------------------------------
    # Record dispatch (storage side)
    # ------------------------------------------------------------------

    def local_insert(self, key: Key, value: Any) -> None:
        if isinstance(value, ConnectivityRecord):
            # Last-writer-wins per schema: drop stale records so the
            # domain key space holds exactly one record per schema.
            bucket = self.store.setdefault(key.bits, [])
            bucket[:] = [
                r for r in bucket
                if not (isinstance(r, ConnectivityRecord)
                        and r.schema_name == value.schema_name)
            ]
            bucket.append(value)
            self._sync_snapshot = None
            return
        super().local_insert(key, value)
        if isinstance(value, Triple):
            self.db.add(value)
        elif isinstance(value, Schema):
            self.local_schemas[value.name] = value
            self._republish_connectivity(value.name)
        elif isinstance(value, MappingRecord):
            self.local_mappings[value.mapping.mapping_id] = value.mapping
            self._mapping_stats_version += 1
            self._republish_connectivity(value.mapping.source_schema)
        elif isinstance(value, IncomingMappingRecord):
            self.incoming_mappings[value.mapping.mapping_id] = value.mapping
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
        attached to its schema".  No-ops when the record is unchanged.
        """
        schema = self.local_schemas.get(schema_name)
        if schema is None:
            return
        in_degree, out_degree = self._local_degree(schema_name)
        record = ConnectivityRecord(schema_name, in_degree, out_degree)
        if self._published_connectivity.get(schema_name) == record:
            return
        self._published_connectivity[schema_name] = record
        self.update(domain_key(schema.domain), record)

