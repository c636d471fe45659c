"""Batched multi-query execution as one shared-scan operator DAG.

Executing a batch of (reformulated) queries naively issues one overlay
lookup per triple pattern per reformulation per query.  Under real
multi-user traffic the same patterns recur constantly — repeated
queries, alpha-variant queries from different users, and conjunctive
queries whose reformulations leave some patterns untouched all ask the
overlay the same questions.  The batch executor exploits this by
building a single operator DAG (:mod:`repro.exec`) over the whole
batch:

* every distinct pattern (up to variable renaming, via
  :func:`~repro.engine.signature.canonicalize_pattern`) becomes **one
  shared** :class:`~repro.exec.operators.PatternScan`, whose edges
  re-express the fetched bindings in each consumer's own variables;
* each distinct reformulation gets one
  :class:`~repro.exec.operators.Answer` over its scans (join, project,
  dedup), feeding the one :class:`~repro.exec.operators.Collect`
  (union, limit, sink) of every query whose plan holds it — a repeated
  query, or one that is itself another query's reformulation, reuses
  the answer instead of joining the same scan rows again: shared
  ``PatternScan -> Answer -> Collect``, the paper's parallel join
  mode ("iteratively resolving each triple pattern contained in the
  query and aggregating the sets of results retrieved", §2.3) with
  per-reformulation result attribution.  A use reuses an answer only
  while that answer's edges are the last on every scan it reads, so
  every collect sees rows and closes in the order one answer per
  (query, reformulation) use would give it — the order a limit
  truncates in.

The DAG is built in one pass over the plans.  With a result
``limit``, scans start in **waves** by reformulation hop count (a plan
is in BFS order, so its waves are its runs of equal ``hops``): wave
``h`` only starts once wave ``h-1``'s scans finished and some query is
still unsatisfied.  Each satisfied limit resolves its
query early; once every query is satisfied the pipeline's cancel
token fires, in-flight scans stop retrying, and all never-started
scans are skipped — the batch-level form of limit pushdown.  Without
a limit there is exactly one wave.

A wave's exact-routed scans start as **one read**: grouped by key
space (scans with different patterns often share a predicate's key),
they travel as one overlay read that splits where the keys diverge
(:meth:`~repro.pgrid.peer.PGridPeer.read_many`), and each scan emits
its rows the moment its key is answered.  ``prefix%`` scans keep their
own range shower.
"""

from __future__ import annotations

from repro.engine.signature import canonicalize_pattern
from repro.exec.operators import Answer, Collect, PatternScan
from repro.exec.stream import PipelineContext
from repro.mediation.keys import term_key
from repro.mediation.peer import GridVinePeer
from repro.mediation.query import QueryOutcome
from repro.obs.registry import CounterGroup
from repro.rdf.patterns import ConjunctiveQuery
from repro.reformulation.planner import Reformulation
from repro.simnet.events import Future, gather


class _WaveScheduler:
    """Starts the batch's shared scans wave by wave.

    Waves run strictly sequentially: the next wave starts when every
    scan of the current one closed and some query is still
    unsatisfied.  :meth:`skip_pending` closes all never-started scans
    (counting each as a saved fetch) — called both on natural
    advancement once everything is satisfied and directly by the last
    query's limit, so the skip accounting is final before the batch
    result resolves.  A wave leaves :attr:`waves` as it starts or is
    skipped: a finished batch's scheduler references no operator.
    """

    def __init__(self, ctx: PipelineContext,
                 satisfied: list[bool]) -> None:
        self.ctx = ctx
        self.satisfied = satisfied
        #: the waves not started yet, next first
        self.waves: list[list[PatternScan]] = []
        #: id(scan) -> indices of the queries consuming that scan,
        #: filled under a limit only (without one no query is
        #: satisfied early, so no scan is ever useless)
        self.consumers: dict[int, set[int]] = {}
        self._open_in_wave = 0

    def skip_pending(self) -> None:
        """Close (and count as skipped) every not-yet-started wave."""
        while self.waves:
            for scan in self.waves.pop(0):
                scan.skip()

    def _useless(self, scan: PatternScan) -> bool:
        """Whether every query consuming ``scan`` is already
        satisfied — fetching it could not contribute a result row."""
        consumers = self.consumers.get(id(scan))
        return bool(consumers) and all(self.satisfied[i]
                                       for i in consumers)

    def start_next(self) -> None:
        """Start the next pending wave (or skip the rest if done): its
        ``prefix%`` scans one by one, the rest as one read."""
        if not self.waves:
            return
        if self.satisfied and all(self.satisfied):
            self.skip_pending()
            return
        wave = self.waves.pop(0)
        if self.waves:
            # Only a wave with a successor needs to hear it closed.
            self._open_in_wave = len(wave)
            for scan in wave:
                scan.on_closed(self._scan_closed)
        by_key: dict = {}
        for scan in wave:
            if self._useless(scan):
                scan.skip()
            elif scan.pattern.routing_mode() == "prefix":
                self.ctx.start_source(scan)
            else:
                by_key.setdefault(term_key(scan.pattern.routing_constant()),
                                  []).append(scan)
        if by_key:
            self.ctx.read_scans(by_key)

    def _scan_closed(self, _op) -> None:
        self._open_in_wave -= 1
        if self._open_in_wave == 0:
            self.start_next()


def _answer_key(query: ConjunctiveQuery, wiring: tuple) -> tuple:
    """What makes two uses of a reformulation one :class:`Answer`: the
    same query over the same scan wiring (``(scan index, inverse
    renaming items)`` per input slot) computes the same rows."""
    return query, wiring


class BatchFetchStats(CounterGroup):
    """What pattern sharing and limit pushdown saved for one batch.

    ``patterns_total`` counts pattern occurrences across all queries
    and reformulations, ``patterns_fetched`` the distinct patterns in
    the DAG (shared scan operators).  ``scans_issued`` are the scans
    actually started — sent inside a wave's read, or on their own
    range shower — (== ``patterns_fetched`` when no limit stopped the
    batch early), ``scans_skipped`` the ones left out of every read
    because every query's limit was satisfied, ``limits_hit`` the
    queries whose limit was reached.
    """

    _fields = ("patterns_total", "patterns_fetched", "scans_issued",
               "scans_skipped", "limits_hit")
    _derived = ("lookups_saved",)
    __slots__ = _fields

    @property
    def lookups_saved(self) -> int:
        """Overlay lookups avoided by deduplication."""
        return self.patterns_total - self.patterns_fetched


def execute_batch(
    peer: GridVinePeer,
    queries: list[ConjunctiveQuery],
    plans: list[list[Reformulation]],
    limit: int | None = None,
) -> Future:
    """Run a batch of planned queries from ``peer``.

    ``plans[i]`` is the reformulation plan of ``queries[i]`` (the
    original query included).  Resolves to ``(outcomes, fetch_stats)``
    where ``outcomes[i]`` is the :class:`QueryOutcome` of
    ``queries[i]`` with per-reformulation result attribution, exactly
    as the iterative strategy would have produced.  ``limit`` (when
    given) caps every query's distinct result rows and enables
    wave-staged fetching with cooperative early stop.
    """
    if len(queries) != len(plans):
        raise ValueError("one plan per query required")
    issued_at = peer.loop.now
    stats = BatchFetchStats()
    ctx = PipelineContext(peer)
    outcomes = [
        QueryOutcome(query=query, strategy="engine", issued_at=issued_at,
                     limit=limit)
        for query in queries
    ]

    # -- per-query tails: one Collect each ----------------------------
    satisfied = [False] * len(queries)
    scheduler = _WaveScheduler(ctx, satisfied)
    collects: list[Collect] = []
    for outcome in outcomes:
        collect = Collect(ctx, outcome=outcome, limit=limit)

        def _on_satisfied(query_index: int = len(collects),
                          collect: Collect = collect) -> None:
            satisfied[query_index] = True
            if all(satisfied):
                # Every query has enough rows: stop the whole batch.
                # Skip the never-started waves *first* — cancelling
                # in-flight ops can cascade into resolving the last
                # collect future (and with it the batch result), so
                # the saved-work accounting must already be final.
                scheduler.skip_pending()
                ctx.cancel.cancel()
            collect.resolve()

        collect.on_satisfied = _on_satisfied
        collects.append(collect)

    # -- one pass over the plans: shared scans, one answer per distinct
    # reformulation, each wired to the collect of every query using it
    #: canonical pattern -> index into the scan list
    fetch_index: dict = {}
    scans: list[PatternScan] = []
    #: per scan: the earliest wave needing it
    scan_wave: list[int] = []
    #: reformulation query -> its wiring, one ``(scan index, inverse
    #: renaming items)`` per input slot
    wirings: dict = {}
    #: :func:`_answer_key` -> the batch's latest answer for it
    answers: dict = {}
    #: every answer built, in wiring order
    built: list[Answer] = []
    #: per scan: the answer whose edges are its last ones
    tails: list = []
    for query_index, plan in enumerate(plans):
        collect = collects[query_index]
        for reformulation in plan:
            # A plan is in BFS order: its waves are its hop counts.
            wave = reformulation.hops
            query = reformulation.query
            wiring = wirings.get(query)
            if wiring is None:
                slots = []
                for pattern in query.patterns:
                    canonical, inverse = canonicalize_pattern(pattern)
                    index = fetch_index.get(canonical)
                    if index is None:
                        index = fetch_index[canonical] = len(scans)
                        scans.append(PatternScan(canonical))
                        scan_wave.append(wave)
                        tails.append(None)
                    slots.append((index, tuple(inverse.items())))
                wiring = wirings[query] = tuple(slots)
            stats.patterns_total += len(wiring)
            key = _answer_key(query, wiring)
            answer = answers.get(key)
            # A use shares its answer only where that answer's edges
            # are the last on every scan it reads: then the shared
            # answer closes where this use's own would have, and every
            # collect sees its rows and close in the same order.
            if answer is None or any(tails[index] is not answer
                                     for index, _inverse in wiring):
                answer = answers[key] = Answer(query)
                built.append(answer)
                for index, inverse in wiring:
                    tails[index] = answer
                    scans[index].connect(answer, transform=(
                        None if not inverse else (
                            # One schema remap per batch; the rows are
                            # shared, not copied.
                            lambda batch, inverse=dict(inverse):
                            batch.renamed(inverse))))
            answer.connect(collect)
            if limit is not None:
                # Only a limit can satisfy a query early, so only then
                # do waves and per-scan consumers matter.
                for index, _inverse in wiring:
                    scan_wave[index] = min(scan_wave[index], wave)
                    scheduler.consumers.setdefault(
                        id(scans[index]), set()).add(query_index)
    stats.patterns_fetched = len(scans)
    ctx.register(*scans)
    ctx.register(*collects)
    ctx.register(*built)

    # -- wave-staged scan scheduling -----------------------------------
    if limit is None:
        scheduler.waves = [scans] if scans else []
    else:
        # Group by the earliest plan wave needing each scan.
        by_wave: dict[int, list[PatternScan]] = {}
        for scan, wave in zip(scans, scan_wave):
            by_wave.setdefault(wave, []).append(scan)
        scheduler.waves = [by_wave[w] for w in sorted(by_wave)]
    scheduler.start_next()

    # -- completion ----------------------------------------------------
    out: Future = Future()

    def _on_all_done(_f: Future) -> None:
        # Every query is done here — satisfied queries resolved via
        # their limit, the rest closed naturally (meaning all *their*
        # scans already ran) — so any never-started wave can only
        # serve satisfied queries: drain it as skips before reading
        # the counters.
        scheduler.skip_pending()
        now = peer.loop.now
        stats.scans_issued = sum(s.stats.fetches_issued for s in scans)
        stats.scans_skipped = sum(s.stats.fetches_skipped for s in scans)
        stats.limits_hit = sum(1 for c in collects if c.satisfied)
        for outcome, plan, collect in zip(outcomes, plans, collects):
            outcome.latency = now - issued_at
            outcome.reformulations_explored = max(0, len(plan) - 1)
            outcome.limit_hit = collect.satisfied
            if collect.first_rows_at is not None:
                outcome.first_result_latency = (collect.first_rows_at
                                                - issued_at)
            outcome.rows_after_cancel = collect.late_rows
        if len(outcomes) == 1:
            # Shared scans make per-query fetch attribution meaningless
            # for larger batches; a singleton batch is unambiguous
            # (only its scans fetch, so the totals are the stats').
            outcome = outcomes[0]
            (outcome.fetches_issued, outcome.fetches_skipped,
             outcome.operator_stats) = ctx.totals()
        out.set_result((outcomes, stats))

    gather([collect.future for collect in collects]
           ).add_done_callback(_on_all_done)
    return out
