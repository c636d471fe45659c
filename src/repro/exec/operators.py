"""The operator algebra: sources, answers and the sink.

Each class is one node type of the execution DAG (see
:mod:`repro.exec.stream` for the streaming mechanics and
:mod:`repro.exec.plans` for how strategies assemble them):

* sources — :class:`PatternScan` (one shared overlay pattern fetch of
  an engine batch), :class:`BoundJoin` (the sequential substituting
  join, which issues its own fetches step by step),
  :class:`Reformulate` (the iterative strategy's overlay-driven BFS
  over mapping paths, one level per read, spawning one subplan per
  reformulation) and
  :class:`RecursiveFanout` (the algebra's adapter over the peer's
  recursive-strategy protocol, which keeps its own termination
  ledger);
* :class:`Answer` — one reformulation's join, projection and dedup,
  emitting its attributable rows; in a strategy plan it fetches its
  own patterns;
* :class:`Collect` — the one tail: the union of its inputs, limit
  pushdown (it fires ``on_satisfied`` the moment enough distinct rows
  have arrived) and the sink resolving a future with a
  :class:`~repro.mediation.query.QueryOutcome` or a bare row set.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from repro.exec.bindings import join_batches
from repro.exec.stream import Batch, Operator, PipelineContext
from repro.mapping.unfolding import query_schemas
from repro.mediation.keys import schema_key, term_key
from repro.mediation.records import mappings_in
from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
from repro.rdf.triples import Position
from repro.reformulation.planner import translations
from repro.simnet.events import Future, gather

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mediation.query import QueryOutcome


def selectivity_rank(pattern: TriplePattern) -> tuple:
    """Sort key: most selective pattern first.

    Exact subjects pin a single resource; exact objects a value;
    predicates an entire attribute extent.  More exact constants beat
    fewer.
    """
    constants = pattern.constants()
    return (
        0 if Position.SUBJECT in constants else 1,
        0 if Position.OBJECT in constants else 1,
        0 if Position.PREDICATE in constants else 1,
        str(pattern),
    )


class PatternScan(Operator):
    """Fetch one triple pattern's rows from the overlay — an engine
    batch's shared scan, feeding every answer that uses the pattern.

    Emits a single batch when the fetch resolves, then closes.  A scan
    started after the pipeline was cancelled skips the fetch entirely
    (zero messages) and emits nothing; :meth:`skip` lets a scheduler
    close a never-started scan explicitly.
    """

    def __init__(self, pattern: TriplePattern) -> None:
        super().__init__(f"scan{pattern}")
        self.pattern = pattern

    def start(self, ctx: PipelineContext) -> None:
        ctx.fetch_pattern(self, self.pattern).add_done_callback(
            lambda future: self.deliver(future.result()))

    def deliver(self, rows: list) -> None:
        """Emit the fetched rows as one batch, then close."""
        # The reply carries the store's row tuples in the pattern's
        # schema order: the fetched list is the batch.
        self.emit(Batch(self.pattern.schema, tuples=rows))
        self.close()

    def skip(self) -> None:
        """Close without ever fetching (counted as a saved fetch)."""
        if self._closed:
            return
        self.stats.fetches_skipped += 1
        self.close()


def _concat_batches(batches: list[Batch]) -> Batch:
    """One batch holding every row of ``batches``, in arrival order.

    Every batch of a slot comes from the same upstream operator, so
    their schemas agree; a mismatch would mean a mis-wired plan.
    """
    if not batches:
        return Batch((), tuples=[])
    if len(batches) == 1:
        return batches[0]
    schema = batches[0].schema
    if any(b.schema != schema for b in batches[1:]):
        raise ValueError("slot received batches with differing schemas")
    tuples: list[tuple] = []
    for b in batches:
        tuples.extend(b.tuples())
    return Batch(schema, tuples=tuples)


class _SlotFetch:
    """One pattern an :class:`Answer` fetches into one of its input
    slots — a scan as :meth:`~repro.exec.stream.PipelineContext.
    read_scans` reads it, counted on the answer."""

    __slots__ = ("answer", "slot", "pattern", "stats")

    def __init__(self, answer: "Answer", slot: int,
                 pattern: TriplePattern) -> None:
        self.answer = answer
        self.slot = slot
        self.pattern = pattern
        self.stats = answer.stats

    def deliver(self, rows: list) -> None:
        """The slot's one batch, then its close.  The reply carries the
        store's row tuples in the pattern's schema order: the fetched
        list is the batch."""
        answer, slot = self.answer, self.slot
        answer._receive(Batch(self.pattern.schema, tuples=rows), slot)
        answer._input_closed(slot)


class Answer(Operator):
    """One reformulation's answer: join, project, dedup.

    Buffers each input slot's batches and, once every input has
    closed, folds them left to right with
    :func:`~repro.exec.bindings.join_batches` — slot order is connect
    order, i.e. the query's pattern order (the paper's parallel mode:
    scan each pattern, join at the origin).  A lone slot's rows are
    taken as they are: joining them with the unit relation would only
    copy each row.  The fold's rows are then reduced to the query's
    distinguished variables (position selection, looked up once; a
    missing variable leaves no row) and repeated rows dropped, the
    first of each kept, in one batch tagged with the query — the
    provenance :class:`Collect` uses for per-reformulation result
    attribution.  Each downstream gets that batch and then its close,
    one downstream after the other, so an answer feeding several
    collects acts as one answer per collect.

    Its inputs are upstream edges (an engine batch's shared scans, a
    :class:`BoundJoin`) or its own fetches (:meth:`fetch`).
    """

    def __init__(self, query: ConjunctiveQuery) -> None:
        super().__init__("answer")
        self.query = query
        self._batches_by_slot: dict[int, list[Batch]] = {}

    def fetch(self, ctx: PipelineContext,
              patterns: list[TriplePattern]) -> None:
        """Fetch each of ``patterns`` into an input slot of its own,
        in order, each counted as one fetch of this operator: a
        ``prefix%`` pattern by its own range shower
        (:meth:`~repro.exec.stream.PipelineContext.fetch_pattern`), the
        exact-routed rest as one split read
        (:meth:`~repro.exec.stream.PipelineContext.read_scans`, so
        inside a held read they join it).

        Every slot exists before the first fetch is issued — a fetch
        whose key the origin owns resolves synchronously, and the
        answer must not close while later patterns are still unasked.
        """
        fetches = [_SlotFetch(self, self._add_input(), pattern)
                   for pattern in patterns]
        by_key: dict = {}
        for fetch in fetches:
            pattern = fetch.pattern
            if pattern.routing_mode() == "prefix":
                ctx.fetch_pattern(self, pattern).add_done_callback(
                    lambda future, fetch=fetch: fetch.deliver(
                        future.result()))
            else:
                by_key.setdefault(term_key(pattern.routing_constant()),
                                  []).append(fetch)
        if by_key:
            ctx.read_scans(by_key)

    def on_batch(self, batch: Batch, slot: int) -> None:
        self._batches_by_slot.setdefault(slot, []).append(batch)

    def on_finish(self) -> None:
        ctx = self.ctx
        tracer = ctx.peer.network.tracer if ctx is not None else None
        span = None
        if tracer is not None and tracer.current() is not None:
            # Zero-duration in virtual time (the fold is synchronous);
            # the span exists for its position in the waterfall and its
            # row accounting.
            span = tracer.begin(f"join:{self.name}",
                                peer=ctx.peer.node_id, kind="join",
                                start=ctx.now)
        by_slot = self._batches_by_slot
        joined = _concat_batches(by_slot.get(0, []))
        for slot in range(1, self._input_slots):
            if not joined.count:
                break
            joined = join_batches(joined,
                                  _concat_batches(by_slot.get(slot, [])))
        if span is not None:
            tracer.finish(span, ctx.now, rows=joined.count,
                          inputs=self._input_slots)
        query = self.query
        distinguished = query.distinguished
        schema = joined.schema
        rows: list = []
        if joined.count and all(v in schema for v in distinguished):
            tuples = joined.tuples()
            if schema != distinguished:
                positions = [schema.index(v) for v in distinguished]
                if len(positions) == 1:
                    # ``itemgetter(i)`` yields the bare value, not a row.
                    only = positions[0]
                    tuples = [(row[only],) for row in tuples]
                else:
                    tuples = map(itemgetter(*positions), tuples)
            # Insertion-ordered: the first of each row, in row order.
            rows = list(dict.fromkeys(tuples))
        batch = Batch(distinguished, tuples=rows, source=query)
        self.stats.rows_out += batch.count
        self.stats.batches_out += 1
        # Emit and close edge by edge; the edges are taken, so close()
        # finds none left to close.
        edges, self._edges = self._edges, []
        for downstream, transform, slot in edges:
            downstream._receive(
                batch if transform is None else transform(batch), slot)
            downstream._input_closed(slot)


class BoundJoin(Operator):
    """Sequential bound join: substitute earlier bindings into later
    patterns before fetching them.

    A source operator (it issues its own overlay fetches): patterns
    are ordered most-selective-first; at each step the distinct
    substituted variants of the next pattern are fetched (capped at
    ``fanout_cap`` variants — beyond that the unbound pattern is
    cheaper) and joined into the running binding set.  Cancellation is
    checked before every step, so a satisfied limit stops all
    remaining fetches.
    """

    def __init__(self, query: ConjunctiveQuery, fanout_cap: int,
                 ordered: list[TriplePattern] | None = None) -> None:
        super().__init__("bound-join")
        self.query = query
        self.fanout_cap = fanout_cap
        #: step order: the optimizer's cardinality-based order when
        #: supplied, else the static constant-shape heuristic
        self.ordered = (list(ordered) if ordered is not None
                        else sorted(query.patterns, key=selectivity_rank))
        self._ctx: PipelineContext | None = None

    def start(self, ctx: PipelineContext) -> None:
        self._ctx = ctx
        self._step(0, Batch((), tuples=[()]))

    def _step(self, index: int, joined: Batch) -> None:
        ctx = self._ctx
        assert ctx is not None
        if index == len(self.ordered) or not joined.count:
            self.emit(joined)
            self.close()
            return
        if ctx.cancelled:
            # The remaining patterns were never verified against these
            # partial bindings, so no rows may be emitted.  Each
            # skipped step would have fetched one variant per distinct
            # substitution of the current bindings (capped), so count
            # skips at that scale to keep the saved-messages estimate
            # in the same units as fetches_issued.
            per_step = max(1, min(joined.count, self.fanout_cap))
            self.stats.fetches_skipped += (
                per_step * (len(self.ordered) - index))
            self.emit(Batch(joined.schema, tuples=[]))
            self.close()
            return
        pattern = self.ordered[index]
        # Distinct substituted variants, keyed on the positions the
        # pattern actually reads (first-occurrence order — the same
        # variant set and order the per-row substitution produced).
        pvars = pattern.variables()
        schema = joined.schema
        rel_idx = [i for i, v in enumerate(schema) if v in pvars]
        variants: list[TriplePattern] = []
        seen_variants: set[tuple] = set()
        for row in joined.tuples():
            key = tuple(row[i] for i in rel_idx)
            if key not in seen_variants:
                seen_variants.add(key)
                variants.append(pattern.substitute(
                    {schema[i]: row[i] for i in rel_idx}))
        if (len(variants) > self.fanout_cap
                or any(not v.variables() for v in variants)):
            # Too many variants (or fully ground ones, which bind
            # nothing a fetch could return): fetch unbound.
            variants = [pattern]

        fetch_schema = pattern.schema
        terms = (pattern.subject, pattern.predicate, pattern.object)

        def _on_fetched(future: Future) -> None:
            # Restore the variables each substitution erased (their
            # ground values and every row position are read off the
            # variant once per variant, not once per row), dedup across
            # variants with the row as the key, and join.
            fetched: list[tuple] = []
            seen_keys: set[tuple] = set()
            for rows, variant in zip(future.result(), variants):
                vschema = variant.schema
                erased = [v for v in fetch_schema if v not in vschema]
                ground = (variant.subject, variant.predicate, variant.object)
                restored = tuple(ground[terms.index(v)] for v in erased)
                source = vschema + tuple(erased)
                positions = [source.index(v) for v in fetch_schema]
                for row in rows:
                    wide = row + restored
                    row = tuple([wide[i] for i in positions])
                    if row not in seen_keys:
                        seen_keys.add(row)
                        fetched.append(row)
            self._step(index + 1, join_batches(
                joined, Batch(fetch_schema, tuples=fetched)))

        gather([ctx.fetch_pattern(self, v, label=self.name)
                for v in variants]).add_done_callback(_on_fetched)


class Collect(Operator):
    """The tail of every query: union, limit and sink in one node.

    It takes any number of inputs and closes once the last of them has
    (all a union ever did).  With an ``outcome``, every batch is
    recorded into it (per-source attribution, first-result
    timestamp); without one, the future resolves to the bare set of
    rows.  ``finalize`` (when set) runs once, immediately before
    resolution — plans use it to stamp latency and streaming
    statistics onto the outcome.

    ``limit`` caps the distinct rows (limit pushdown).  A row counts
    once (a repeated row is kept without counting, so
    per-reformulation attribution stays intact); the batch that
    reaches the limit is truncated there, and the moment it is reached
    ``on_satisfied`` fires, once — in a single-query plan it fires the
    pipeline's cancel token, cooperatively stopping every upstream
    fetch still pending.  Rows cut off count in ``stats.rows_dropped``;
    whole batches arriving after that (or after an early resolution)
    count there too and in :attr:`late_rows`, the true late arrivals.
    """

    def __init__(self, ctx: PipelineContext,
                 outcome: "QueryOutcome | None" = None,
                 limit: int | None = None) -> None:
        super().__init__("collect")
        self.ctx = ctx
        self.outcome = outcome
        self.limit = limit
        self.future: Future = Future()
        #: the distinct rows kept so far (the outcome's own result set
        #: when there is one) — what the limit counts
        self.rows: set = outcome.results if outcome is not None else set()
        self.first_rows_at: float | None = None
        self.finalize: Callable[[], None] | None = None
        self.on_satisfied: Callable[[], None] | None = None
        self.satisfied = False
        #: rows of batches arriving once the limit was satisfied or the
        #: future resolved (the overshoot that reached the limit is
        #: only in ``stats.rows_dropped``)
        self.late_rows = 0

    def on_batch(self, batch: Batch, slot: int) -> None:
        if self.satisfied or self.future.done:
            self.stats.rows_dropped += batch.count
            self.late_rows += batch.count
            return
        tuples = batch.tuples()
        limit = self.limit
        seen = self.rows
        if limit is not None:
            kept: list = []
            for position, row in enumerate(tuples):
                if row not in seen:
                    if len(seen) >= limit:
                        self.stats.rows_dropped += len(tuples) - position
                        break
                    seen.add(row)
                kept.append(row)
            tuples = kept
        if tuples and self.first_rows_at is None:
            self.first_rows_at = self.ctx.now
        if self.outcome is not None:
            self.outcome.record(batch.source or self.outcome.query,
                                set(tuples))
        else:
            seen.update(tuples)
        if limit is not None and len(seen) >= limit:
            self.satisfied = True
            if self.on_satisfied is not None:
                self.on_satisfied()

    def on_finish(self) -> None:
        self.resolve()

    def resolve(self) -> None:
        """Resolve the future now (idempotent; used for early stop)."""
        if self.future.done:
            return
        # Taken, not just called: plans close ``finalize`` and
        # ``on_satisfied`` over this operator, and a resolved sink must
        # not stay a reference cycle.
        finalize, self.finalize = self.finalize, None
        self.on_satisfied = None
        if finalize is not None:
            finalize()
        self.future.set_result(
            self.outcome if self.outcome is not None else self.rows)


class Reformulate(Operator):
    """The iterative strategy's overlay-driven reformulation BFS.

    The origin "iteratively looks for paths of mappings and
    reformulates the query by itself" (§4), one BFS level at a time:
    every query of level *h* is known before any is translated.  The
    level reads the schema key spaces it has not read yet with one
    ``retrieve_many`` and, once every key has answered (a failed key
    holds no mappings), translates its queries in order, each through
    the active mappings of its schemas in name order.  Every distinct
    translation spawns one execution subplan (via the ``spawn``
    callback the plan builder provides) and joins level *h+1*, up to
    ``max_hops``; the subplans a level spawns send their exact-routed
    pattern fetches as one split read
    (:meth:`~repro.exec.stream.PipelineContext.hold_reads`).  A query
    is thus reached at its shortest hop count, the operator spawns
    what :func:`~repro.reformulation.planner.plan_reformulations`
    plans over the same mappings, and a query costs at most
    ``2 * (max_hops + 1)`` reads besides its ``prefix%`` range
    showers; the price is that a level waits for its slowest key.

    The operator emits no batches itself — the spawned subplans feed
    the downstream collect directly — but it holds its input there open
    until the BFS settles, and its fetch counters carry the schema-
    space reads, one per key.  Cancellation stops the BFS at its next
    level (the schema keys it would have read count as skipped); a
    level whose read was in flight is still translated, and its
    subplans skip their scans (each skip is counted where it happens,
    so the messages-saved accounting stays exact).
    """

    def __init__(self, query: ConjunctiveQuery, max_hops: int,
                 spawn: Callable[[PipelineContext, ConjunctiveQuery], None],
                 prune: Callable[[ConjunctiveQuery, float], bool] | None
                 = None) -> None:
        super().__init__("reformulate")
        self.query = query
        self.max_hops = max_hops
        self._spawn_subplan = spawn
        #: optimizer prune predicate ``keep(query, confidence)``; a
        #: pruned translation is neither executed nor BFS-extended, so
        #: its pattern fetches *and* schema-space fetches are saved
        self._prune = prune
        #: translations dropped by the prune predicate
        self.pruned = 0
        self.seen: set[ConjunctiveQuery] = {query}
        #: schema -> its active mappings (present once read)
        self._mappings: dict[str, list] = {}
        self._ctx: PipelineContext | None = None
        #: open reformulation span (traced runs only)
        self._span = None

    def start(self, ctx: PipelineContext) -> None:
        self._ctx = ctx
        network = ctx.peer.network
        tracer = network.tracer
        scope = network.scope()
        if tracer is not None and tracer.current() is not None:
            # The reformulation span covers the whole BFS: schema-space
            # reads issued from here carry its context, so translated
            # subplans hang under it in the waterfall.
            self._span = tracer.begin("reformulate",
                                      peer=ctx.peer.node_id,
                                      kind="reformulate", start=ctx.now)
            scope = (scope[0], tracer.context_of(self._span))
        with network.resume(scope):
            with ctx.hold_reads():
                self._spawn_subplan(ctx, self.query)
            self._read_level([self.query], 0)

    def on_finish(self) -> None:
        if self._span is not None:
            ctx = self._ctx
            ctx.peer.network.tracer.finish(
                self._span, ctx.now, translations=len(self.seen) - 1,
                pruned=self.pruned)

    def _read_level(self, level: list[ConjunctiveQuery], hops: int) -> None:
        """Read the schema spaces level ``hops`` has not read yet, then
        translate it; the BFS settles at ``max_hops`` or on an empty
        level."""
        if hops >= self.max_hops or not level:
            self.close()
            return
        ctx = self._ctx
        assert ctx is not None
        unread = sorted({schema for query in level
                         for schema in query_schemas(query)}
                        - self._mappings.keys())
        if ctx.cancelled:
            self.stats.fetches_skipped += len(unread)
            self.close()
            return
        if not unread:
            self._translate_level(level, hops)
            return
        self.stats.fetches_issued += len(unread)
        keys = {schema: schema_key(schema) for schema in unread}

        def _on_read(read: Future) -> None:
            records = read.result()
            for schema, key in keys.items():
                self._mappings[schema] = mappings_in(records[key])
            self._translate_level(level, hops)

        ctx.peer.retrieve_many(list(keys.values()), cancel=ctx.cancel
                               ).add_done_callback(_on_read)

    def _translate_level(self, level: list[ConjunctiveQuery],
                         hops: int) -> None:
        ctx = self._ctx
        mappings = self._mappings
        following: list[ConjunctiveQuery] = []
        with ctx.hold_reads():
            for query in level:
                for schema in sorted(query_schemas(query)):
                    for mapping, translated in translations(
                            query, mappings[schema], self.seen):
                        if (self._prune is not None and not self._prune(
                                translated, mapping.confidence)):
                            self.pruned += 1
                            continue
                        self._spawn_subplan(ctx, translated)
                        following.append(translated)
        self._read_level(following, hops + 1)


class RecursiveFanout(Operator):
    """Origin side of the recursive strategy, as a source operator.

    Who is asked, who has answered and when the fan-out is over is
    the peer's business (``GridVinePeer.recursive_query``); this
    operator adapts it to the algebra: it counts the one fetch, emits
    one batch per results message and closes when the peer says so,
    recording whether every delegate answered (``complete`` is false
    after a timeout under message loss, still true when a satisfied
    limit cancelled the rest).
    """

    def __init__(self, query: ConjunctiveQuery, max_hops: int) -> None:
        super().__init__("recursive-fanout")
        self.query = query
        self.max_hops = max_hops
        self.complete = True

    def start(self, ctx: PipelineContext) -> None:
        self.stats.fetches_issued += 1
        ctx.peer.recursive_query(self.query, self.max_hops, ctx.cancel,
                                 self._on_rows, self._on_finish)

    def _on_rows(self, query: ConjunctiveQuery, rows: set) -> None:
        # Sorted for determinism: set iteration order is not stable
        # across processes, and a limited Collect truncates batches.
        self.emit(Batch.from_tuples(query.distinguished, sorted(rows),
                                    source=query))

    def _on_finish(self, complete: bool) -> None:
        # The close cascade resolves the query future; the peer calls
        # this inside the operation's causal scope.
        self.complete = complete
        self.close()
