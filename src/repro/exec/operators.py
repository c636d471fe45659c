"""The operator algebra: sources, joins, and streaming modifiers.

Each class is one node type of the execution DAG (see
:mod:`repro.exec.stream` for the streaming mechanics and
:mod:`repro.exec.plans` for how strategies assemble them):

* sources — :class:`PatternScan` (one overlay pattern fetch),
  :class:`BoundJoin` (the sequential substituting join, which issues
  its own fetches step by step), :class:`Reformulate` (the iterative
  strategy's overlay-driven BFS over mapping paths, spawning one
  subplan per reformulation) and :class:`RecursiveFanout` (the
  algebra's adapter over the peer's recursive-strategy protocol, which
  keeps its own termination ledger);
* relational operators — :class:`Answer` (one reformulation's
  join, projection and dedup, emitting its attributable rows) and
  :class:`Union`;
* control — :class:`Limit` (limit pushdown: fires the pipeline's
  cancel token the moment enough distinct rows have passed) and
  :class:`Collect` (the sink resolving a future with a
  :class:`~repro.mediation.query.QueryOutcome` or a bare row set).
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from repro.exec.bindings import join_batches
from repro.exec.stream import Batch, Operator, PipelineContext
from repro.mapping.unfolding import query_schemas
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
    """Fetch one triple pattern's rows from the overlay.

    Emits a single batch when the fetch resolves, then closes.  A scan
    started after the pipeline was cancelled skips the fetch entirely
    (zero messages) and emits nothing; :meth:`skip` lets a scheduler
    close a never-started scan explicitly.
    """

    def __init__(self, pattern: TriplePattern, name: str | None = None
                 ) -> None:
        super().__init__(name if name is not None else f"scan{pattern}")
        self.pattern = pattern

    def start(self, ctx: PipelineContext) -> None:
        ctx.fetch_pattern(self, self.pattern).add_done_callback(
            self._on_rows)

    def _on_rows(self, future: Future) -> None:
        self.deliver(future.result())

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
    attribution.
    """

    def __init__(self, query: ConjunctiveQuery) -> None:
        super().__init__("answer")
        self.query = query
        self._batches_by_slot: dict[int, list[Batch]] = {}

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
        self.emit(Batch(distinguished, tuples=rows, source=query))


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

        gather([ctx.fetch_pattern(self, v) for v in variants]
               ).add_done_callback(_on_fetched)


class Union(Operator):
    """Merge several streams (pass-through; closes when all inputs do)."""

    def __init__(self, name: str = "union") -> None:
        super().__init__(name)


class Limit(Operator):
    """Stop the stream after ``limit`` distinct rows (limit pushdown).

    Rows count toward the limit once each (duplicates pass through
    without counting, keeping per-reformulation attribution intact).
    The moment the limit is reached the operator truncates the
    current batch, stops accepting further input, and calls
    ``on_satisfied`` — which in a single-query plan fires the
    pipeline's cancel token, cooperatively stopping every upstream
    fetch still pending.  ``limit=None`` is a pure pass-through.
    """

    def __init__(self, limit: int | None,
                 on_satisfied: Callable[[], None] | None = None) -> None:
        super().__init__("limit" if limit is None else f"limit[{limit}]")
        self.limit = limit
        self.on_satisfied = on_satisfied
        self.satisfied = False
        self.seen: set = set()
        #: rows from batches arriving *after* satisfaction — true late
        #: arrivals, as opposed to the same-batch overshoot that
        #: triggered the limit (both count in ``stats.rows_dropped``)
        self.late_rows = 0

    def on_batch(self, batch: Batch, slot: int) -> None:
        if self.limit is None:
            self.emit(batch)
            return
        if self.satisfied:
            self.stats.rows_dropped += batch.count
            self.late_rows += batch.count
            return
        allowed: list = []
        rows = batch.tuples()
        for position, row in enumerate(rows):
            if row in self.seen:
                allowed.append(row)
                continue
            if len(self.seen) >= self.limit:
                self.stats.rows_dropped += len(rows) - position
                break
            self.seen.add(row)
            allowed.append(row)
        self.emit(Batch(batch.schema, tuples=allowed, source=batch.source))
        if len(self.seen) >= self.limit and not self.satisfied:
            self.satisfied = True
            if self.on_satisfied is not None:
                self.on_satisfied()


class Collect(Operator):
    """Sink: resolve a future with the stream's aggregated contents.

    With an ``outcome``, every batch is recorded into it (per-source
    attribution, first-result timestamp); without one, the future
    resolves to the bare set of rows.  ``finalize`` (when set) runs
    once, immediately before resolution — plans use it to stamp
    latency and streaming statistics onto the outcome.
    """

    def __init__(self, ctx: PipelineContext,
                 outcome: "QueryOutcome | None" = None) -> None:
        super().__init__("collect")
        self.ctx = ctx
        self.outcome = outcome
        self.future: Future = Future()
        self.rows: set = set()
        self.first_rows_at: float | None = None
        self.finalize: Callable[[], None] | None = None

    def on_batch(self, batch: Batch, slot: int) -> None:
        if self.future.done:
            # Late arrivals after an early (limit-driven) resolution.
            self.stats.rows_dropped += batch.count
            if self.outcome is not None:
                self.outcome.rows_after_cancel += batch.count
            return
        if batch.count and self.first_rows_at is None:
            self.first_rows_at = self.ctx.now
        if self.outcome is not None:
            self.outcome.record(batch.source or self.outcome.query,
                                set(batch.tuples()))
        else:
            self.rows |= set(batch.tuples())

    def on_finish(self) -> None:
        self.resolve()

    def resolve(self) -> None:
        """Resolve the future now (idempotent; used for early stop)."""
        if self.future.done:
            return
        # Taken, not just called: plans close ``finalize`` over this
        # operator, and a resolved sink must not stay a reference cycle.
        finalize, self.finalize = self.finalize, None
        if finalize is not None:
            finalize()
        self.future.set_result(
            self.outcome if self.outcome is not None else self.rows)


class Reformulate(Operator):
    """The iterative strategy's overlay-driven reformulation fan-out.

    The origin "iteratively looks for paths of mappings and
    reformulates the query by itself" (§4): schema key spaces are
    fetched to learn mappings, every distinct translation spawns one
    execution subplan (via the ``spawn`` callback the plan builder
    provides), and newly derived queries recurse up to ``max_hops``.

    The operator emits no batches itself — the spawned subplans feed
    the downstream union directly — but it holds its union input open
    until the BFS settles, and its fetch counters carry the schema-
    space lookups.  Cancellation stops new schema fetches; subplans
    spawned after cancellation skip their scans (each skip is counted
    where it happens, so the messages-saved accounting stays exact).
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
        #: schema -> fetched active mappings (present once fetched)
        self._mappings_cache: dict[str, list] = {}
        #: schema -> (query, hops) posed against it while its fetch is
        #: in flight; the BFS has settled when this is empty
        self._waiting: dict[str, list[tuple[ConjunctiveQuery, int]]] = {}
        #: guards against closing mid-start (a fetch can complete
        #: synchronously when the origin owns the key)
        self._starting = False
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
            # fetches issued from here carry its context, so translated
            # subplans hang under it in the waterfall.
            self._span = tracer.begin("reformulate",
                                      peer=ctx.peer.node_id,
                                      kind="reformulate", start=ctx.now)
            scope = (scope[0], tracer.context_of(self._span))
        with network.resume(scope):
            self._starting = True
            self._spawn_subplan(ctx, self.query)
            self._register(self.query, 0)
            self._starting = False
        self._maybe_close()

    def on_finish(self) -> None:
        if self._span is not None:
            ctx = self._ctx
            ctx.peer.network.tracer.finish(
                self._span, ctx.now, translations=len(self.seen) - 1,
                pruned=self.pruned)

    def _register(self, query: ConjunctiveQuery, hops: int) -> None:
        if hops >= self.max_hops:
            return
        for schema in sorted(query_schemas(query)):
            if schema in self._mappings_cache:
                self._translate(query, hops, schema)
            elif schema in self._waiting:
                self._waiting[schema].append((query, hops))
            else:
                self._fetch_schema(schema, query, hops)

    def _fetch_schema(self, schema: str, query: ConjunctiveQuery,
                      hops: int) -> None:
        ctx = self._ctx
        assert ctx is not None
        if ctx.cancelled:
            self.stats.fetches_skipped += 1
            return
        self._waiting[schema] = [(query, hops)]
        self.stats.fetches_issued += 1

        def _on_mappings(future: Future) -> None:
            # Cached first, so a query registered against ``schema``
            # from here on is translated at once, not appended.
            self._mappings_cache[schema] = future.result()
            for waiting, waiting_hops in self._waiting[schema]:
                self._translate(waiting, waiting_hops, schema)
            del self._waiting[schema]
            self._maybe_close()

        ctx.peer.fetch_mappings(schema, cancel=ctx.cancel
                                ).add_done_callback(_on_mappings)

    def _translate(self, query: ConjunctiveQuery, hops: int,
                   schema: str) -> None:
        for mapping, translated in translations(
                query, self._mappings_cache[schema], self.seen):
            if (self._prune is not None
                    and not self._prune(translated, mapping.confidence)):
                self.pruned += 1
                continue
            self._spawn_subplan(self._ctx, translated)
            self._register(translated, hops + 1)

    def _maybe_close(self) -> None:
        if not self._waiting and not self._starting:
            self.close()


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
        # across processes, and a downstream Limit truncates batches.
        self.emit(Batch.from_tuples(query.distinguished, sorted(rows),
                                    source=query))

    def _on_finish(self, complete: bool) -> None:
        # The close cascade resolves the query future; the peer calls
        # this inside the operation's causal scope.
        self.complete = complete
        self.close()
