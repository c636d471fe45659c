"""The streaming core of the operator runtime: batches, operators,
pipeline context.

Execution is organized as a DAG of :class:`Operator` nodes through
which :class:`Batch` es of rows are *pushed* as soon as they exist —
there is no materialize-everything-then-return step.  The push
discipline is what makes limit pushdown work: the moment a query's
``Collect`` has enough rows it fires the pipeline's
:class:`~repro.simnet.events.CancelToken`, and every upstream operator
checks that token before issuing new overlay fetches or reformulation
fan-out.

Mechanics
---------

* An operator *emits* batches to its downstream edges; an edge may
  carry a ``transform`` (e.g. re-expressing a shared scan's canonical
  bindings in the consumer's variables — one :meth:`Batch.renamed`
  schema remap over the shared rows, not a per-row rewrite).
* Each edge occupies a distinct input *slot* on the downstream
  operator, so the same upstream may legally feed one consumer twice
  (a reformulation using the same canonical pattern in two positions).
* An operator with inputs closes automatically once every input slot
  has closed; :meth:`Operator.on_finish` runs just before closing and
  may still emit (joins flush there).  Source operators (no inputs)
  close themselves when their asynchronous work completes.
* Per-operator counters (:class:`OperatorStats`) record rows in/out
  and the overlay fetches issued vs skipped — the raw material for
  the "messages saved by early stop" accounting.

Everything runs single-threaded on the simulation's event loop;
callbacks fire synchronously, so emission order (and therefore every
measurement) is deterministic under a fixed seed.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.registry import CounterGroup
from repro.simnet.events import CancelToken, Future

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.mediation.peer import GridVinePeer
    from repro.rdf.patterns import ConjunctiveQuery, TriplePattern


class OperatorStats(CounterGroup):
    """Row / fetch counters of one operator.

    ``rows_in`` / ``rows_out`` / ``batches_out`` count what crossed the
    operator's edges.  ``fetches_issued`` are the overlay operations it
    started (each costs network messages), ``fetches_skipped`` the ones
    skipped because the pipeline was cancelled first — the "messages
    saved by early stop" — and ``rows_dropped`` the rows discarded
    after the operator stopped accepting (e.g. arriving once a limit
    was already satisfied).
    """

    _fields = ("rows_in", "rows_out", "batches_out",
               "fetches_issued", "fetches_skipped", "rows_dropped")
    _derived = ("name",)  # the operator's label, reported as is
    __slots__ = _derived + _fields

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name


class Batch:
    """One unit of streamed data: a schema plus a list of row tuples.

    A batch carries its variable schema *once* — ``schema`` is a tuple
    of :class:`~repro.rdf.terms.Variable` — and each row as one value
    tuple in schema position order.  Rows are hashable, so dropping
    repeats is keying on the row, projecting is position selection, and
    renaming an edge's variables (:meth:`renamed`) is one schema remap
    per batch instead of a dict copy per row.

    ``count`` is the number of rows.  The zero-variable relation
    (``schema == ()``) still distinguishes the empty result
    (``tuples=[]``) from the unit row (``tuples=[()]``, the join
    identity).  ``source`` is the (original or reformulated) query
    that produced the rows — the attribution key for
    :attr:`~repro.mediation.query.QueryOutcome.results_by_query`.
    """

    __slots__ = ("schema", "source", "count", "_tuples")

    def __init__(self, schema: tuple, *, tuples: list,
                 source: "ConjunctiveQuery | None" = None) -> None:
        self.schema = schema
        self.source = source
        self._tuples = tuples
        self.count = len(tuples)

    @classmethod
    def from_tuples(cls, schema: tuple, tuples: list,
                    source: "ConjunctiveQuery | None" = None) -> "Batch":
        """Build a batch from row tuples in ``schema`` position order."""
        return cls(schema, tuples=tuples, source=source)

    def tuples(self) -> list:
        """The rows: one value tuple per row, in arrival order."""
        return self._tuples

    def to_bindings(self) -> list:
        """Per-row binding dicts (the oracle view the tests read)."""
        schema = self.schema
        return [dict(zip(schema, row)) for row in self._tuples]

    def renamed(self, renaming: dict) -> "Batch":
        """A view of this batch with schema variables renamed.

        Shares the row list — the whole point: an edge transform costs
        one tuple rebuild of the schema, not a dict copy per row.
        """
        if not renaming:
            return self
        schema = tuple(renaming.get(v, v) for v in self.schema)
        return Batch(schema, tuples=self._tuples, source=self.source)


class Operator:
    """Base class of every node in an execution DAG."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = OperatorStats(name)
        #: the pipeline this operator runs in (set by
        #: :meth:`PipelineContext.register`); lets non-source operators
        #: (joins) reach the peer/tracer without threading state
        self.ctx: "PipelineContext | None" = None
        #: outgoing edges: (downstream, transform, downstream slot)
        self._edges: list[tuple["Operator",
                                Callable[[Batch], Batch] | None, int]] = []
        self._input_slots = 0
        self._open_inputs = 0
        self._closed = False
        self._closing = False
        self._close_listeners: list[Callable[["Operator"], None]] = []

    # -- wiring ---------------------------------------------------------

    def connect(self, downstream: "Operator",
                transform: Callable[[Batch], Batch] | None = None
                ) -> "Operator":
        """Add an edge to ``downstream``; returns ``downstream``.

        Each call claims a fresh input slot on the consumer, so
        connecting the same pair twice creates two independent inputs.
        """
        slot = downstream._add_input()
        self._edges.append((downstream, transform, slot))
        return downstream

    def _add_input(self) -> int:
        slot = self._input_slots
        self._input_slots += 1
        self._open_inputs += 1
        return slot

    def on_closed(self, listener: Callable[["Operator"], None]) -> None:
        """Run ``listener(self)`` when this operator closes."""
        if self._closed:
            listener(self)
        else:
            self._close_listeners.append(listener)

    # -- data flow ------------------------------------------------------

    def emit(self, batch: Batch) -> None:
        """Push one batch to every downstream edge."""
        if self._closed:
            return
        self.stats.rows_out += batch.count
        self.stats.batches_out += 1
        for downstream, transform, slot in self._edges:
            downstream._receive(
                batch if transform is None else transform(batch), slot
            )

    def _receive(self, batch: Batch, slot: int) -> None:
        if self._closed:
            self.stats.rows_dropped += batch.count
            return
        self.stats.rows_in += batch.count
        self.on_batch(batch, slot)

    def close(self) -> None:
        """End the output stream (idempotent).

        Runs :meth:`on_finish` first — which may still emit final
        batches — then propagates the close to every downstream slot.
        """
        if self._closed or self._closing:
            return
        self._closing = True
        self.on_finish()
        self._closed = True
        for downstream, _transform, slot in self._edges:
            downstream._input_closed(slot)
        listeners, self._close_listeners = self._close_listeners, []
        for listener in listeners:
            listener(self)

    def _input_closed(self, slot: int) -> None:
        self._open_inputs -= 1
        if self._open_inputs <= 0 and self._input_slots > 0:
            self.close()

    # -- hooks ----------------------------------------------------------

    def start(self, ctx: "PipelineContext") -> None:
        """Begin a source operator's asynchronous work (no-op here)."""

    def on_batch(self, batch: Batch, slot: int) -> None:
        """Handle one incoming batch (default: pass through)."""
        self.emit(batch)

    def on_finish(self) -> None:
        """Flush before closing (default: nothing)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class PipelineContext:
    """Shared state of one pipeline run.

    Holds the executing peer, the run's cancellation token, and the
    registered operators' counters (for stats aggregation).  Operators
    issue their overlay work through :meth:`fetch_pattern` so skip/issue
    accounting stays in one place.

    References run one way — operator to context, context to
    :class:`OperatorStats` — so a pipeline is never a reference cycle
    and a finished one is freed by reference counting.
    """

    def __init__(self, peer: "GridVinePeer") -> None:
        self.peer = peer
        self.cancel = CancelToken()
        #: counters of the registered operators, in registration order
        self.stats: list[OperatorStats] = []
        #: ``id`` of every entry of :attr:`stats` (which keeps them
        #: alive, so the ids stay unique)
        self._registered: set[int] = set()
        #: the optimizer's :class:`~repro.optimizer.core.PlanDecision`
        #: steering this pipeline (``None`` on static strategies);
        #: subplans spawned per reformulation inherit it via the
        #: shared context
        self.decision = None
        #: the scans :meth:`hold_reads` is holding, by key (``None``:
        #: no hold open, reads are sent at once)
        self._held: dict | None = None

    @property
    def cancelled(self) -> bool:
        """Whether the pipeline's cancel token has fired."""
        return self.cancel.cancelled

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.peer.loop.now

    def register(self, *operators: Operator) -> None:
        """Track operators for stats aggregation (idempotent)."""
        for op in operators:
            stats = op.stats
            if id(stats) not in self._registered:
                self._registered.add(id(stats))
                self.stats.append(stats)
                op.ctx = self

    def start_source(self, op: Operator) -> None:
        """Register and start one source operator."""
        self.register(op)
        op.start(self)

    def fetch_pattern(self, op: Operator, pattern: "TriplePattern",
                      label: str | None = None) -> Future:
        """Issue one pattern fetch on behalf of ``op``.

        When the pipeline is already cancelled the fetch is skipped
        (counted on the operator) and an empty row list resolves
        immediately — zero messages spent.  A traced fetch's span is
        ``scan:<label>``, the label defaulting to the pattern's scan
        name ``scan<pattern>``.
        """
        if not self._count_fetch(op):
            future: Future = Future()
            future.set_result([])
            return future
        # A scan span covers the whole overlay search this fetch kicked
        # off and closes when the search resolves.
        span, issuing = self._open_span("scan", lambda: (
            f"scan:{label if label is not None else f'scan{pattern}'}",
            {"pattern": repr(pattern)}))
        with issuing:
            future = self.peer._search_pattern(pattern, cancel=self.cancel)
        if span is not None:
            future.add_done_callback(lambda _f: self._close_span(span))
        return future

    def read_scans(self, by_key: dict) -> None:
        """Issue exact-routed scans, grouped by key (``{key: [scan,
        ...]}``), as one split read
        (:meth:`~repro.pgrid.peer.PGridPeer.read_many`) — the one
        batching path: an engine batch's wave of shared
        :class:`~repro.exec.operators.PatternScan` s, and the patterns
        an :class:`~repro.exec.operators.Answer` fetches itself.  A
        scan is anything with a ``pattern``, the ``stats`` its fetch
        counts on and ``deliver(rows)``.

        Each key carries the tuple of its scans' patterns, and each
        scan gets its rows the moment its key's answer arrives, so a
        satisfied limit still stops the rest.  Every scan counts as
        one fetch, issued or skipped as in :meth:`fetch_pattern`; a
        skipped read is never sent.  A scan whose key failed or was
        cancelled closes empty.  Inside :meth:`hold_reads` nothing is
        sent: the scans join the held read.
        """
        held = self._held
        if held is not None:
            for key, group in by_key.items():
                held.setdefault(key, []).extend(group)
            return
        scans = [scan for group in by_key.values() for scan in group]
        # One cancel check decides for every scan: all issued or none.
        if not all([self._count_fetch(scan) for scan in scans]):
            for scan in scans:
                scan.deliver([])
            return
        # One span covers the split read and closes with the last
        # key's answer.
        span, issuing = self._open_span("read", lambda: (
            "read", {"keys": len(by_key)}))
        unread = len(by_key)

        def on_rows(result) -> None:
            nonlocal unread
            answer = result.values
            for index, scan in enumerate(by_key.pop(result.key)):
                scan.deliver(answer[index] if answer else [])
            unread -= 1
            if not unread:
                self._close_span(span)

        groups = {key: tuple([scan.pattern for scan in group])
                  for key, group in by_key.items()}
        with issuing:
            self.peer.read_many("search", groups, on_rows, self.cancel)

    @contextmanager
    def hold_reads(self) -> Iterator[None]:
        """Hold every :meth:`read_scans` issued inside the block and
        send them together, as one split read, when it ends — the
        reads of every subplan one reformulation level spawns."""
        held = self._held = {}
        try:
            yield
        finally:
            self._held = None
        if held:
            self.read_scans(held)

    def _count_fetch(self, op: Operator) -> bool:
        """Count one fetch of ``op``: issued, or skipped when the
        pipeline is already cancelled.  Whether it is issued."""
        if self.cancel.cancelled:
            op.stats.fetches_skipped += 1
            return False
        op.stats.fetches_issued += 1
        return True

    def _open_span(self, kind: str,
                   describe: Callable[[], tuple[str, dict]]) -> tuple:
        """``(span, context to issue in)`` for one overlay fetch of a
        traced run — the span's context is active during issue, so the
        fetch's messages parent under it — and ``(None, a no-op
        context)`` for an untraced one.  ``describe()`` gives the span's
        name and attributes; an untraced run never builds them."""
        network = self.peer.network
        tracer = network.tracer
        if tracer is None or tracer.current() is None:
            return None, nullcontext()
        name, attrs = describe()
        span = tracer.begin(name, peer=self.peer.node_id, kind=kind,
                            start=network.loop._now, **attrs)
        return span, tracer.activate(tracer.context_of(span))

    def _close_span(self, span: Any) -> None:
        """Close a span :meth:`_open_span` opened (``None``: nothing)."""
        if span is not None:
            network = self.peer.network
            network.tracer.finish(span, network.loop._now)

    # -- aggregation ----------------------------------------------------

    def totals(self) -> tuple[int, int, list[dict]]:
        """``(fetches issued, fetches skipped, per-operator stats)``
        over every registered operator, read in one pass: the overlay
        fetches started, the ones a cancellation skipped, and each
        operator's counter snapshot in registration order."""
        issued = skipped = 0
        snapshots = []
        for stats in self.stats:
            issued += stats.fetches_issued
            skipped += stats.fetches_skipped
            snapshots.append(stats.snapshot())
        return issued, skipped, snapshots
